"""The three resource-theory models: spin, multi-qubit local, fermionic.

Each model fixes a Hilbert space, a compact symmetry group, an orthogonal
decomposition of operator space into irreducible blocks with Hermitian
orthonormal bases, a highest-weight reference state and a coherent-state
family parametrized by phase points.  Closed-form sector data (dimensions,
characteristic weights tau) is available at any supported size.

Declared geometry
-----------------
The phase-space algorithms are model-independent: they read what each
model declares and never test its class.

* ``band``: band limit of the harmonics on each sphere, S for a spin and
  1/2 for qubits; None for fermions, which have no structured quadrature.
* ``nspheres``: sphere factors of phase space: 1, n and 0.  A point is
  an (nspheres, 2) row of (theta, phi) per sphere and N points an (N,
  nspheres, 2) float array, as in ``phase_space.Quadrature``; a
  one-sphere model also reads bare pairs, so spin 1/2 and one qubit share
  their grids.  A fermionic point is a ``FermionicPoint``.
* ``word_sectors(x, z)``: sectors of the Pauli words X^x Z^z, for
  integer mask arrays, as rows of ``labels()``: the support pattern for
  qubits and the Majorana weight for fermions, by bit arithmetic; a spin
  refuses with ValueError.
* ``taus``: the (L,) weights tau_lam in ``labels()`` order, built once;
  ``tau(lam)`` reads one.  ``sector_name(lam)``: the name in tables and
  checks, the joined bits of a qubit support pattern, else ``str(lam)``.
* ``coefficients(A)``: the coefficients ``c_k = Tr(B_k A)`` of an operator
  on the model's operator basis B_k, without a dense sector block: for a
  spin ``Tr(T^lam_q A)``, a CG row dotted with one diagonal of A; for
  qubits and fermions ``Tr(X^x Z^z A)``, the fast Pauli transform.
  ``operators(b)`` is its transpose, ``sum_k b_k B_k``.
* ``coefficient_sectors()``: the row in ``labels()`` of each coefficient's
  sector.
* ``pure_state_purities(psi)``: the (K, L) sector purities of each
  ``psi psi^H`` of a (K, d) stack of states.  By default the operator
  route ``state_purities`` (fermions; ``purities`` of named states); a
  spin contracts the diagonal products ``psi_k conj(psi_(k+q))`` with its
  CG rows, and qubits invert their subsystem purities over subsets,
  neither forming a d x d matrix.  ``duality`` reads its samples by it.
* ``weights(A) = conj(coefficients(A^H)) / basis_norm``: the b with
  ``operators(b) = A``, as the B_k are orthogonal with ``Tr(B_k B_k^H) =
  basis_norm`` (1 for the spin's T^lam_q, d for words).
* ``harmonics(points)``: the (sum d_lam, N) real harmonics ``Y^lam_j =
  tau_lam**(-1/2) <Omega| D_j |Omega>`` of the tau > 0 sectors in
  ``labels()`` order, read from the model's point table: one Legendre
  recursion for a spin, the word expectations for qubits and fermions.
  ``harmonic_deviation(grid)``: max |G - I| of their Gram matrix G under
  a grid's weights, the one float ``verify`` checks, without the table.
* ``synthesis(c, points, factor)`` and ``synthesis_adjoint(w, points,
  factor)``: the fields ``F_n = sum_k E[n, k] c_k`` at phase points of
  coefficient vectors, and the transpose ``sum_n w_n E[n, k]``.
  ``factor`` is the one-sphere rule of a product grid
  (``phase_space.Quadrature.factor``), else None; a one-sphere model
  does not read it.  Summed over one
  sector's coefficients of A, ``E[n, k] c_k`` is ``Tr(U_n
  Pi_lam(|hw><hw|) U_n^H A)``, so the field of a filter with one factor
  f_lam per sector is the synthesis of ``f_lam c``.  A spin synthesizes on
  spherical harmonics, ``F = sum_q exp(-i q phi) sum_lam x0_lam sqrt(4 pi
  / (2 lam + 1)) Ybar_lam q(theta) c_lam q`` (Varilly & Gracia-Bondia,
  Ann. Phys. 190, 107 (1989)); qubits and fermions sum the Pauli words,
  ``E[n, W] = conj(<Omega_n| W |Omega_n>) / d``.  Work arrays (a spin's
  Legendre sums over distinct thetas) are held about ``TABLE_BYTES``.
* Qubits one qubit at a time.  On the product of a one-sphere rule of m
  nodes every row of E is a Kronecker product of n rows of one (m, 4)
  table, ``conj(1, n_x, n_z, -i n_y) / 2`` (``_factor_words``).  So the
  synthesis is n ``tensordot``s of the (K, 4, ..., 4) coefficients with
  it and the adjoint that chain in reverse.  The harmonics' Gram matrix
  is the Kronecker power of one qubit's 4 x 4 Gram matrix g of its rows
  ``_factor_harmonics`` (cf. Koczor, Zeier & Glaser, Phys. Rev. A 101,
  022318 (2020)), and ``harmonic_deviation`` reads g alone: the largest
  entry of G - I is one chain of g's largest and smallest entries per
  pattern of differing qubits.  Only other point sets, and fermions, read
  E in row chunks of about ``TABLE_BYTES``; that row route is also the
  tests' oracle for the contractions.

Declared costs
--------------
Each model prices its own routes, in bytes held at once and in work
units of about 4-5 ns, and the commands' ``admit`` estimates add these
terms to their own.  A term reads the chunk step of the route it prices
(``_word_step``, ``_ring_step``), so the two cannot drift apart;
``tests/test_declared_costs.py`` holds every estimate against the
``tracemalloc`` peak of its run.

* ``coefficient_bytes(nops)``: ``nops`` complex coefficient arrays,
  4**n words each; a spin's are (2d - 1, d), plus the CG table and its
  build, 4 d**3 B.
* ``synthesis_bytes(ncols, ntheta, nphi)``: one ``synthesis`` of
  ``ncols`` columns at ntheta x nphi points, but its output: a
  ``_word_step`` chunk of 4 d**2 + ncols complex values per point; for a
  spin four ``_ring_step`` chunks of (2d - 1, ncols) complex Legendre
  sums (a recursion step's product and rows are under thrice the sums)
  and twice one ring's (nphi, 2d - 1) complex Fourier factors.
* ``purity_work(nops)``: ``pure_state_purities`` of ``nops`` Haar
  states with their draw, the ``duality`` samples.  Fermions take the
  operator route, the Pauli transform's 4**n n additions at 4 units
  each.  A spin takes d**3 / 128 + d**2 / 2 + 64 d + 96 units each: the
  folded CG matmuls, a dozen numpy calls per diagonal q on each chunk,
  and the draw.  Qubits take ``sum_B 2**(n + |B|) / 6`` over the
  subsystems B they compute (the complex multiply-adds of the Gram
  products), d + 128 per subsystem (its reshape and numpy calls) and 256
  for the draw.  Against the measured ``duality`` time per sample at 4.5
  ns a unit (2-vCPU host, one BLAS thread, two or three runs per size),
  the spin estimate is 1.14-2.4 times it from 2S = 1 to 200 and the
  qubit one 1.06-2.4 times from n = 3 to 10.  Rounded up once, so exact
  at any count.
* ``harmonic_check_bytes(nodes)``: ``harmonic_deviation`` and the field
  passes on a grid of ``nodes``, per node 16 nspheres + 8 B of points and
  weight and 40 complex field columns (15 fields, 6 reconstructed columns
  and the intermediates of their contractions): ``nodes (16 nspheres +
  648)``, which is 0 for fermions, who have no grid.  A spin adds its
  (d, d, ntheta) Legendre table, ``coefficient_bytes(35)`` and a
  15-column ``synthesis_bytes``.
* ``point_work()``: one ``point_unitary`` and a kernel at it, a d x d
  product: d**3 units.

Banded and dense paths
----------------------
* Every runtime sector computation (purities, ``gfd.gfd_project``, the
  harmonics, the ``verify`` checks) reads the coefficients and forms no
  (d_lam, d, d) block.  Each T^lam_q lives on one diagonal, so a spin
  keeps one float CG-diagonal table (``cg_diagonals``, half of each
  diagonal, about d**3 / 6 doubles); it serves 2S <= 200.  Qubits and
  fermions use the fast Pauli transform (``paulis.pauli_transform``): all
  4**n traces Tr(P A) in n passes of 4**n additions, summed into sectors
  through ``word_sectors`` (built once per model); it serves n <= 10.
  A fermionic point unitary's generator is one ``operators`` call on its
  degree-2 word coefficients, O(n d**2), and no Majorana matrix.
* The center kernel of ``sw_kernel`` and ``kernel_stack`` reads one (L, d)
  table per model, ``hw_sector_diagonals`` (the diagonals of
  Pi_lam(|hw><hw|)), and no block.
* Dense (d_lam, d, d) sector blocks (``irrep_block``) are only the tests'
  independent reference: spin blocks, filled from the same table, serve
  2S <= 60; qubit and fermionic blocks (``paulis.words_dense``, one call
  per block) serve n <= 4.
* A spin's tau is the integer closed form (2S)!**2 / ((2S - lam)! (2S +
  lam + 1)!), checked against the table by ``verify``'s ``tau_two_route``;
  the exact Racah sums of ``clebsch`` are the tests' oracle for both.

Conventions
-----------
* Spin model: basis |S, m> with m descending, so J_z = diag(S, ..., -S)
  and the highest-weight state is the first basis vector.
* Multi-qubit model: sectors are 0/1 support patterns; the sector basis is
  the set of Pauli words on the support divided by sqrt(2^n).
* Fermionic model: sectors are Majorana degrees 0..2n; basis elements are
  ascending-ordered Majorana products times i^(lam(lam-1)/2) over sqrt(2^n),
  which makes them Hermitian.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it on first use, not at import

from ._frozen import Frozen
from .clebsch import HalfInt
from .paulis import pauli_operators, pauli_transform, word_masks, words_dense

_DENSE_QUBIT_CAP = 4  # dense irrep blocks and unitaries for qubit models
_LABEL_CAP = 10       # label/tau/dimension queries for qubit models
_DENSE_SPIN_CAP = 60  # 2S for dense spin blocks: d**4 complex, 221 MB at 60
_TABLE_SPIN_CAP = 200  # 2S for the CG-diagonal table: 11 MB at 200
TABLE_BYTES = 4 * 2**20  # live bytes of one chunk of a synthesis
_RHO_BYTES = 2**23  # one (k, d, d) stack of density matrices
BYTES_BUDGET = 768 * 2**20  # bytes one command may hold at once
# Work one command may spend, units of about 4-5 ns (15-20 s, one thread).
WORK_BUDGET = 4 * 10**9


def admit(what: str, nbytes: int = 0, work: int = 0) -> None:
    """The one admission rule: ValueError naming the estimate and the
    budget when a run's int estimate, ``nbytes`` held at once or ``work``
    units, passes ``BYTES_BUDGET`` or ``WORK_BUDGET`` (exact for any int).
    Callers admit before they allocate anything sized."""
    for need, budget, unit in ((nbytes, BYTES_BUDGET, "bytes"),
                               (work, WORK_BUDGET, "work units")):
        if need > budget:
            from decimal import Decimal  # formats ints past the float range
            raise ValueError(f"{what} needs about {Decimal(need):.2g} {unit}, "
                             f"over the budget of {Decimal(budget):.2g}")


def _exp_antihermitian(G: np.ndarray) -> np.ndarray:
    """exp(G) of an anti-Hermitian G, from ``eigh`` of the Hermitian iG."""
    w, V = np.linalg.eigh(1j * G)
    return (V * np.exp(-1j * w)) @ V.conj().T


def _log_rotation(R: np.ndarray) -> np.ndarray:
    """Real principal logarithm of a rotation R in SO(m): V log(w) V^-1."""
    w, V = np.linalg.eig(R)
    return np.real((V * np.log(w.astype(complex))) @ np.linalg.inv(V))


def _word_index(x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """Index in ``paulis.word_masks`` order of each word X^x Z^z: its
    base-4 digits ``x_q + 2 z_q``, qubit 0 leading."""
    q = np.arange(n)
    return ((x[:, None] >> q & 1) + 2 * (z[:, None] >> q & 1)) @ 4 ** q[::-1]


def _row_kron(factors) -> np.ndarray:
    """Row-wise Kronecker products of (N, m) arrays, from the left."""
    return functools.reduce(
        lambda E, e: (E[:, :, None] * e[:, None]).reshape(len(E), -1), factors)


class IrrepBlock:
    """One irreducible sector of operator space.

    Attributes
    ----------
    label : sector label (int for spin/fermionic, 0/1 tuple for multi-qubit)
    dim : number of basis elements d_lambda
    basis : (d_lambda, d, d) stack of Hermitian orthonormal matrices
    """

    __slots__ = ("label", "dim", "basis")

    def __init__(self, label, dim: int, basis: np.ndarray):
        self.label = label
        self.dim = dim
        self.basis = basis

    def project(self, A: np.ndarray) -> np.ndarray:
        """Component of A inside this sector: sum_j <D_j, A> D_j."""
        flat = self.basis.reshape(self.dim, -1)
        return ((flat.conj() @ A.ravel()) @ flat).reshape(A.shape)


class QrtModel:
    """Shared plumbing for the three concrete models, including the
    reference states (``hw_state``, ``ghz_state``, index ``basis_state``).
    Subclasses declare the geometry listed in the module docstring."""

    kind: str
    dim: int
    band: float | None
    nspheres: int

    def __init__(self):
        self._block_cache: dict = {}
        self._word_rows = None
        self._word_order = None

    # subclasses implement: labels, irrep_dim, taus, _build_block,
    # point_unitary, group_unitary, random_point, random_group, act,
    # identity_point and point_as_group (read by the tests only).  The
    # coefficient route below is the Pauli-word one; a spin overrides it.

    def labels(self):
        raise NotImplementedError

    def tau(self, lam) -> float:
        """Characteristic weight of one sector: its entry of ``taus``."""
        return float(self.taus[self.labels().index(lam)])

    def sector_name(self, lam) -> str:
        return str(lam)

    @property
    def trivial_label(self):
        raise NotImplementedError

    def irrep_block(self, label) -> IrrepBlock:
        block = self._block_cache.get(label)
        if block is None:
            block = self._block_cache[label] = self._build_block(label)
        return block

    def blocks(self):
        return [self.irrep_block(lam) for lam in self.labels()]

    def check_sector_size(self) -> None:
        """Raise ValueError, allocating nothing, when ``sector_purities``
        cannot serve this size.  The dense route needs no check here: its
        blocks refuse when first built, before any large allocation."""

    def sector_purities(self, A: np.ndarray) -> np.ndarray:
        """(..., L) purities P_lam(A) = sum_j |<D_j, A>|^2 in ``labels()``
        order, by the Pauli transform.

        The basis elements are the words P / sqrt(d) of each sector, so
        ``|Tr(P A)|**2 / d`` from ``coefficients`` (all 4**n words at once)
        summed over the words of each sector (``coefficient_sectors``)
        gives the spectrum; no dense block is built.  A is one (d, d)
        operator, giving (L,), or a (..., d, d) stack.
        """
        if self._word_order is None:
            rows = self.coefficient_sectors()
            order = np.argsort(rows, kind="stable")
            starts = np.searchsorted(rows[order], np.arange(len(self.labels())))
            self._word_order = (order, starts)
        order, starts = self._word_order
        c = self.coefficients(A)
        sums = np.add.reduceat((c.real ** 2 + c.imag ** 2)[..., order],
                               starts, axis=-1)
        sums /= self.dim
        return sums

    def state_purities(self, psi: np.ndarray) -> np.ndarray:
        """(K, L) sector purities of each ``psi psi^H`` of a (K, d) stack of
        states by the operator route: ``sector_purities`` of the density
        matrices in stacks of at most ``_RHO_BYTES`` (one state when one is
        larger).  Named states take it for the exact zeros of product and
        GHZ states, where the qubits' alternating sums leave up to 1.3e-18
        at n = 10, which ``--s 1`` would multiply by up to 6**n."""
        psi = np.asarray(psi)
        step = max(1, _RHO_BYTES // (16 * self.dim ** 2))
        return np.concatenate([self.sector_purities(
            psi[lo:lo + step, :, None] * psi[lo:lo + step, None, :].conj())
            for lo in range(0, len(psi), step)])

    pure_state_purities = state_purities  # a spin and qubits override it

    def hw_sector_diagonals(self) -> np.ndarray:
        """(L, d) real table: row lam is the diagonal of Pi_lam(|hw><hw|).

        For qubits and fermions ``|0...0><0...0| = 2**-n sum_S Z_S`` over the
        Z-words, each diagonal with entry (-1)**|S & k| at basis index k
        (qubit 0 is the leading bit of k) and in sector ``word_sectors(0, S)``.
        """
        n = self.dim.bit_length() - 1
        k, q = np.arange(self.dim), np.arange(n)
        bits = (k[:, None] >> (n - 1 - q)) & 1
        signs = 1.0 - 2 * ((((k[:, None] >> q) & 1) @ bits.T) % 2)
        out = np.zeros((len(self.labels()), self.dim))
        np.add.at(out, self.word_sectors(np.zeros_like(k), k), signs)
        return out / self.dim

    def tau_from_hw(self, label) -> float:
        """Characteristic weight via the highest-weight purity route."""
        block, hw = self.irrep_block(label), self.hw_state()
        return float(np.sum(np.real(hw.conj() @ block.basis @ hw) ** 2)
                     / block.dim)

    def _sphere_points(self, points) -> np.ndarray:
        """Points as an (N, nspheres, 2) float array of (theta, phi) per
        sphere, or ValueError naming any other shape; a one-sphere model
        also reads bare (N, 2) pairs."""
        pts = np.asarray(points, dtype=float)
        if self.nspheres == 1 and pts.ndim == 2:
            pts = pts[:, None]
        if pts.shape[1:] != (self.nspheres, 2):
            raise ValueError(
                f"need one (theta, phi) pair per sphere of {self!r}: points "
                f"of shape (N, {self.nspheres}, 2), got {pts.shape}")
        return pts

    def coherent_state(self, point) -> np.ndarray:
        return self.point_unitary(point) @ self.hw_state()

    def point_unitaries(self, points) -> np.ndarray:
        """(N, d, d) stack of ``point_unitary`` over many points."""
        return np.array([self.point_unitary(p) for p in points])

    def coherent_states(self, points) -> np.ndarray:
        """(N, d) stack of ``coherent_state`` over many points."""
        return self.point_unitaries(points)[:, :, 0]  # hw is basis vector 0

    # The Pauli-word coefficients Tr(X^x Z^z A) of all 4**n words, of one
    # operator or a (..., d, d) stack, and their transpose sum_W b_W X^x Z^z.
    coefficients = staticmethod(pauli_transform)
    operators = staticmethod(pauli_operators)

    def coefficient_sectors(self) -> np.ndarray:
        """Row in ``labels()`` of the sector of each coefficient."""
        if self._word_rows is None:
            n = self.dim.bit_length() - 1
            self._word_rows = self.word_sectors(*word_masks(n))
        return self._word_rows

    @property
    def basis_norm(self) -> int:
        """``Tr(B_k B_k^H)`` of each basis operator: d for the words."""
        return self.dim

    def weights(self, A: np.ndarray) -> np.ndarray:
        """The b with ``operators(b) = A``: the basis is orthogonal, so
        ``b = conj(coefficients(A^H)) / basis_norm``."""
        AH = np.conj(np.swapaxes(A, -1, -2))
        return np.conj(self.coefficients(AH)) / self.basis_norm

    @functools.cached_property
    def _harmonic_words(self) -> tuple[np.ndarray, np.ndarray]:
        """(index, scale) of the rows of ``harmonics``, the basis words
        ``i**p X^x Z^z / sqrt(d)`` of ``sector_words`` of the tau > 0
        sectors in ``labels()`` order: ``_word_index`` and ``(-i)**p
        sqrt(d / tau_lam)``."""
        labels, taus = self.labels(), self.taus
        kept = [labels[i] for i in np.flatnonzero(taus)]
        x, z, p = map(np.concatenate, zip(*map(self.sector_words, kept)))
        index = _word_index(x, z, self.dim.bit_length() - 1)
        scale = np.array([1, -1j, -1, 1j])[p % 4] * np.repeat(
            np.sqrt(self.dim / taus[taus > 0]),
            [self.irrep_dim(lam) for lam in kept])
        return index, scale

    def harmonics(self, points) -> np.ndarray:
        """(sum d_lam, N) harmonics ``Re(i**p <Omega|X^x Z^z|Omega>) /
        sqrt(tau_lam d)`` of the basis words (``_harmonic_words``), tau > 0
        sectors only: columns of the expectation table, whose chunks hold
        ``E = conj(<W>) / d``, and ``Re(i**p <W>) = Re((-i)**p E) d``."""
        index, scale = self._harmonic_words
        out = np.empty((len(index), len(points)))
        for rows, E in self._word_chunks(points):
            out[:, rows] = (E[:, index] * scale).real.T
        return out

    def _factor_nodes(self, points, factor) -> np.ndarray:
        """(m, 2) nodes of the one-sphere rule ``factor`` (a
        ``phase_space.Quadrature``) whose n-fold product, in
        ``phase_space.product_quadrature`` order, the (m**n, n, 2)
        ``points`` are; ValueError for points of another shape."""
        pts = self._sphere_points(points)
        nodes = np.asarray(factor.points, dtype=float).reshape(-1, 2)
        if len(pts) != len(nodes) ** self.nspheres:
            raise ValueError(f"{len(pts)} points are no product of "
                             f"{self.nspheres} rules of {len(nodes)} nodes")
        return nodes

    def _expectations(self, points) -> np.ndarray:
        """(N, 4**n) table ``<Omega_n| X^x Z^z |Omega_n>``: the Pauli
        transform of the coherent projectors."""
        psi = self.coherent_states(points)
        return pauli_transform(psi[:, :, None] * psi.conj()[:, None, :])

    def _word_step(self) -> int:  # points of a chunk: two 4**n rows each
        return max(1, TABLE_BYTES // (32 * self.dim ** 2))

    def _word_chunks(self, points):
        """(rows, E) per chunk of points: ``E = conj(_expectations) / d``."""
        step = self._word_step()
        for lo in range(0, len(points), step):
            E = self._expectations(points[lo:lo + step])
            yield slice(lo, lo + step), E.conj() / self.dim

    def synthesis(self, c: np.ndarray, points, factor=None) -> np.ndarray:
        """(N, K) fields ``sum_W conj(<Omega_n|W|Omega_n>) c[k, W] / d`` of
        (K, 4**n) word coefficients.  On a product grid (``factor``) n
        contractions of the (K, 4, ..., 4) coefficients with one sphere's
        (m, 4) table ``_factor_words``, one qubit at a time; else row
        chunks of the expectation table."""
        if factor is not None:
            T = self._factor_words(self._factor_nodes(points, factor))
            X = np.reshape(c, (len(c),) + (4,) * self.nspheres)
            for _ in range(self.nspheres):  # last word digit -> first node
                X = np.tensordot(T, X, (1, -1))
            return X.reshape(-1, len(c))
        out = np.empty((len(points), len(c)), dtype=complex)
        for rows, E in self._word_chunks(points):
            out[rows] = E @ np.transpose(c)
        return out

    def synthesis_adjoint(self, w: np.ndarray, points,
                          factor=None) -> np.ndarray:
        """(K, 4**n) word sums ``sum_n w[n, k] conj(<Omega_n|W|Omega_n>) /
        d`` of (N, K) node weights: the transpose of ``synthesis``, on a
        product grid its contractions in reverse order."""
        if factor is not None:
            T = self._factor_words(self._factor_nodes(points, factor))
            X = np.reshape(w, (len(T),) * self.nspheres + (-1,))
            for _ in range(self.nspheres):  # first node -> last word digit
                X = np.tensordot(X, T, (0, 0))
            return X.reshape(len(X), -1)
        out = np.zeros((w.shape[1], self.dim ** 2), dtype=complex)
        for rows, E in self._word_chunks(points):
            out += np.transpose(w[rows]) @ E
        return out

    def coefficient_bytes(self, nops: int) -> int:
        return 16 * self.dim ** 2 * nops  # complex 4**n words per operator

    def synthesis_bytes(self, ncols: int, ntheta: int, nphi: int) -> int:
        step = min(ntheta * nphi, self._word_step())  # points of a chunk
        return step * 16 * (4 * self.dim ** 2 + ncols)

    def purity_work(self, nops: int) -> int:
        return 4 * nops * self.dim ** 2 * (self.dim.bit_length() - 1)

    def harmonic_check_bytes(self, nodes: int) -> int:
        return nodes * (16 * self.nspheres + 648)

    def point_work(self) -> int:
        return self.dim ** 3

    def word_sectors(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Row in ``labels()`` of the sector of each word X^x Z^z, for
        integer mask arrays (qubit models only)."""
        raise ValueError(f"{self!r} has no Pauli-word sectors")

    def sector_words(self, lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, z, phase) arrays of the Hermitian basis words of one sector,
        ``i**phase X^x Z^z`` (qubit models only)."""
        raise ValueError(f"{self!r} has no Pauli-word sectors")

    def _word_block(self, lam) -> IrrepBlock:
        """Dense block of the sector's words ``w / sqrt(d)``."""
        basis = words_dense(self.dim.bit_length() - 1, *self.sector_words(lam))
        basis /= math.sqrt(self.dim)
        return IrrepBlock(lam, len(basis), basis)

    def hw_state(self) -> np.ndarray:
        """The highest-weight reference state: the first basis vector."""
        return QrtModel.basis_state(self, 0)

    def basis_state(self, index) -> np.ndarray:
        k = int(index)
        if not 0 <= k < self.dim:
            raise ValueError(f"basis index {k} out of range")
        psi = np.zeros(self.dim, dtype=complex)
        psi[k] = 1.0
        return psi

    def ghz_state(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = psi[-1] = 1 / math.sqrt(2)
        return psi

    def haar_state(self, rng) -> np.ndarray:
        rng = np.random.default_rng(rng)
        vec = rng.normal(size=self.dim) + 1j * rng.normal(size=self.dim)
        return vec / np.linalg.norm(vec)

    def named_state(self, which: str, seed=None) -> np.ndarray:
        """Resolve a state selector: hw | ghz | haar | m=<value>, with no
        whitespace (``int`` strips it, but the raw text names the outputs)."""
        if any(ch.isspace() for ch in which):
            raise ValueError(f"state selector {which!r} contains whitespace")
        if which == "hw":
            return self.hw_state()
        if which == "ghz":
            return self.ghz_state()
        if which == "haar":
            return self.haar_state(seed)
        if which.startswith("m="):
            return self.basis_state(which[2:])
        raise ValueError(f"unknown state selector {which!r}")


# -- spin model --------------------------------------------------------------

def _cg_diagonals(tS: int) -> list[np.ndarray]:
    """CG-diagonal table of spin S = tS/2 in floats, without Racah sums.

    Entry q is a (tS+1-q, ceil((d-q)/2)) array; row lam - q holds the
    first half, through the centre, of the q-th superdiagonal
    x_k = (-1)**(k+q) <S m_k; S -m_{k+q} | lam q> of T^lam_q, with
    m_k = S - k.  The other half is the mirror image times the parity:
    x_{d-q-1-k} = (-1)**(lam+q) x_k.  On diagonal q the adjoint Casimir
    sum_a [J_a, [J_a, A]] = 2 S(S+1) A - 2 Jz A Jz - J+ A J- - J- A J+
    (both J+ J- and J- J+ orderings contribute) is the symmetric
    tridiagonal matrix with diagonal 2 S(S+1) - 2 m_k m_{k+q} and
    off-diagonal -b_{k+1} b_{k+q+1}, b_k = <k-1|J+|k> = sqrt(k (d-k)), and
    T^lam_q is its eigenvector of eigenvalue lam(lam+1).  Each row comes
    from the three-term recursion of that equation (Schulten & Gordon,
    J. Math. Phys. 16, 1961 (1975)), run in from both ends (Luscombe &
    Luban, Phys. Rev. E 57, 7274 (1998)): a run from an end is stable
    through the classically forbidden region beside it, where the wanted
    solution grows inward, and neutral in the allowed region, which for
    every 2S <= 200 is one interval around the row's centre, or empty (then
    the two forbidden regions meet at the centre).  The matrix is
    persymmetric, so the run from the far end is the mirror image of the
    run from k = 0 times the parity (-1)**(lam+q) of the CG symmetry in
    its two spins; the runs meet at the centre.  Rows are then normalized
    and signed by Condon-Shortley: x_0 has sign (-1)**q.  One
    recursion step serves every (q, lam) row at once, so the table costs
    O(d) numpy calls and O(d**3) flops, with entries exact to ~1e-14
    relative (the tests compare them with the Racah route).
    """
    d = tS + 1
    S = tS / 2
    q = np.repeat(np.arange(d), np.arange(d, 0, -1))  # lanes, q ascending
    lam = np.concatenate([np.arange(p, d) for p in range(d)])
    eig = lam * (lam + 1.0)
    centre = (d - 1 - q) // 2  # non-increasing along the lanes

    x = np.zeros((len(q), centre[0] + 1))
    x[:, 0] = 1.0
    lives = np.searchsorted(-centre, -np.arange(1, centre[0] + 1), "right")
    for k, live in enumerate(lives):
        ql = q[:live]
        diag = 2 * S * (S + 1) - 2 * (S - k) * (S - k - ql) - eig[:live]
        nxt = diag * x[:live, k]
        if k:  # the previous step's b_k b_{k+q}
            nxt -= off[:live] * x[:live, k - 1]
        # b_{k+1} b_{k+q+1} = -(off-diagonal at k)
        off = np.sqrt((k + 1) * (d - k - 1) * (k + ql + 1.0)
                      * (d - k - ql - 1))
        x[:live, k + 1] = nxt / off
    table = []
    first = 0
    for p in range(d):
        n = d - p
        half = x[first:first + n, :(n + 1) // 2].copy()
        first += n
        weight = np.full(half.shape[1], 2.0)
        if n % 2:
            weight[-1] = 1.0  # the centre is its own mirror,
            half[1::2, -1] = 0.0  # so it vanishes on odd-parity rows
        half *= (-1) ** p / np.sqrt(half ** 2 @ weight)[:, None]
        table.append(half)
    return table


def _legendre_rows(theta: np.ndarray, d: int):
    """Yield, for lam = 0 ... d - 1, the (lam + 1, k) orthonormal
    ``Ybar_lam q(theta) = Y_lam q(theta, 0)`` (Condon-Shortley phase), q <=
    lam, from the rows lam - 1 and lam - 2 alone.  The sectoral seeds
    ``Ybar_00 = 1/sqrt(4 pi)``, ``Ybar_qq = -sqrt((2q+1)/(2q)) sin(theta)
    Ybar_(q-1)(q-1)`` and ``Ybar_(q+1)q = sqrt(2q+3) cos(theta) Ybar_qq``
    start ``Ybar_lam q = a (cos(theta) Ybar_(lam-1)q - b Ybar_(lam-2)q)``,
    ``a = sqrt((4 lam**2 - 1) / (lam**2 - q**2))``, ``b = sqrt(((lam-1)**2
    - q**2) / (4 (lam-1)**2 - 1))``: stable far past 2S = 200 (Holmes &
    Featherstone, J. Geodesy 76, 279 (2002)), one step for every q at once."""
    x, y = np.cos(theta), np.sin(theta)
    prev = row = np.full((1, len(x)), 1 / math.sqrt(4 * math.pi))
    yield row
    for lam in range(1, d):
        new = np.empty((lam + 1, len(x)))
        p = np.arange(lam - 1)
        a = np.sqrt((4 * lam * lam - 1) / (lam * lam - p * p))[:, None]
        b = np.sqrt(((lam - 1) ** 2 - p * p) / (4 * (lam - 1) ** 2 - 1))
        new[:lam - 1] = a * (x * row[:lam - 1] - b[:, None] * prev[:lam - 1])
        new[lam - 1] = math.sqrt(2 * lam + 1) * x * row[lam - 1]
        new[lam] = -math.sqrt((2 * lam + 1) / (2 * lam)) * y * row[lam - 1]
        prev, row = row, new
        yield row


class SpinModel(QrtModel):
    """Single spin S under global SU(2) rotations.

    Phase points are (theta, phi) on the sphere, a bare pair or a
    one-sphere row; group elements are z-y-z Euler triples (alpha, beta,
    gamma).
    """

    kind = "spin"
    nspheres = 1

    def __init__(self, S):
        super().__init__()
        self.S = HalfInt.of(S)
        if self.S.twice < 1:
            raise ValueError("need S >= 1/2")
        self.dim = self.S.twice + 1
        self.band = self.S.twice / 2
        self._ops = None
        self._jy_eig = None
        self._cg_table = self._cg_idx = None

    def __repr__(self):
        return f"SpinModel(S={self.S})"

    def labels(self):
        return list(range(self.S.twice + 1))

    @property
    def trivial_label(self):
        return 0

    def irrep_dim(self, lam: int) -> int:
        return 2 * lam + 1

    @functools.cached_property
    def taus(self) -> np.ndarray:
        """Weights <S S; S -S | lam 0>**2 / (2 lam + 1) from the closed-form
        square (2 lam + 1) (2S)!**2 / ((2S - lam)! (2S + lam + 1)!), exact
        in integers and rounded as ``clebsch_gordan(...)**2 / (2 lam + 1)``."""
        f, tS = math.factorial, self.S.twice
        return np.array([math.sqrt((2 * lam + 1) * f(tS) ** 2
                                   / (f(tS - lam) * f(tS + lam + 1))) ** 2
                         / (2 * lam + 1) for lam in self.labels()])

    def spin_operators(self):
        """(Jx, Jy, Jz) dense, with the m-descending basis convention."""
        if self._ops is None:
            S = self.S.twice / 2
            m = S - np.arange(self.dim)  # J+ raises m[i] at row i - 1
            Jz = np.diag(m).astype(complex)
            Jp = np.diag(np.sqrt(S * (S + 1) - m[1:] * (m[1:] + 1)), 1) + 0j
            Jm = Jp.conj().T
            Jx = (Jp + Jm) / 2
            Jy = (Jp - Jm) / (2j)
            self._ops = (Jx, Jy, Jz)
        return self._ops

    def check_sector_size(self) -> None:
        if self.S.twice > _TABLE_SPIN_CAP:
            raise ValueError(
                f"banded spin sectors capped at 2S <= {_TABLE_SPIN_CAP}, "
                f"got S={self.S}")

    def cg_diagonals(self) -> list[np.ndarray]:
        """Float CG table: entry q is a (2S+1-q, ceil((d-q)/2)) array whose
        row lam - q is the first half of the q-th superdiagonal of T^lam_q;
        the rest is its mirror image times (-1)**(lam+q) (built once)."""
        if self._cg_table is None:
            self.check_sector_size()
            self._cg_table = _cg_diagonals(self.S.twice)
        return self._cg_table

    def _cg_rows(self, q: int, buf=None) -> np.ndarray:
        """(d - q, d - q) rows of ``cg_diagonals()[q]``, half and mirror: row
        lam - q is diagonal q of T^lam_q (in the head of ``buf`` if given)."""
        half, n = self.cg_diagonals()[q], self.dim - q
        rows = (np.empty(n * n) if buf is None else buf[:n * n]).reshape(n, n)
        rows[:, :half.shape[1]] = half
        np.multiply((-1.0) ** np.arange(n)[:, None], half[:, :n // 2][:, ::-1],
                    out=rows[:, half.shape[1]:])
        return rows

    def tensor_operator(self, lam: int, j: int) -> np.ndarray:
        """Irreducible tensor operator T^lam_j (not Hermitian for j != 0).

        Real, on diagonal j: entry (k, k + j) is
        (-1)**(k + j) <S m_k; S -m_{k+j} | lam j>, read from the CG table;
        T^lam_{-j} = (-1)**j (T^lam_j)^T.
        """
        if not 0 <= lam <= self.S.twice or abs(j) > lam:
            raise ValueError(f"no T^{lam}_{j} for S={self.S}")
        q, k = abs(j), np.arange(self.dim - abs(j))
        T = np.zeros((self.dim, self.dim), dtype=complex)
        T[k, k + q] = self._cg_rows(q)[lam - q]
        if j < 0:
            T = (-1) ** q * T.T.copy()
        return T

    def hw_sector_diagonals(self) -> np.ndarray:
        """(d, d) table: row lam is the diagonal x_0 x of Pi_lam(|S><S|) =
        x_0 T^lam_0, x = diag T^lam_0 (CG row q = 0 and its mirror)."""
        x = self._cg_rows(0)
        return x[:, :1] * x

    def _cg_products(self, A: np.ndarray):
        """Blocks (q0, P) of the CG rows of diagonal q = q0 + i times the
        diagonals q and -q of A, ``T_q diag_(+-q)(A)``: P[i, ..., lam] holds
        row lam - q as (re, im) pairs of diagonal q, then -q (zero for lam <
        q, and in the first pair for q = 0).  Rows of even parity (lam - q
        even) are symmetric, so they pair their half of the table with the
        diagonal folded as v_k + v_(n-1-k); odd rows use v_k - v_(n-1-k),
        which vanishes exactly on mirror-symmetric input.  One gather of
        cached flat indices per block of q reads both folds of a stack, then
        each q costs two real matmuls with the stack as batch axis.  A block
        holds about ``TABLE_BYTES / 8``, so it stays in cache: O(1) numpy
        calls per block, two per q, O(d**3) flops per operator."""
        A, d, table = np.asarray(A), self.dim, self.cg_diagonals()
        if self._cg_idx is None:  # [j, q, k, s]: entry k of diagonal q (s =
            # 0) or -q (s = 1), at j = 1 its mirror entry d - q - 1 - k
            j, q, k, s = np.indices((2, d, (d + 1) // 2, 2), dtype=np.int32)
            self._cg_idx = ((k + j * (d - 1 - q - 2 * k)) * (d + 1)
                            + q * (1 + s * (d - 1)))
        flat = A.reshape(A.shape[:-2] + (d * d,))
        step = max(1, TABLE_BYTES // (640 * d * flat[..., 0].size))
        for q0 in range(0, d, step):
            qs = range(q0, min(q0 + step, d))  # rows past a fold: clipped
            V = flat.take(self._cg_idx[:, q0:qs.stop, :(d - q0 + 1) // 2],
                          axis=-1, mode="clip").astype(complex, copy=False)
            v, w = V[..., 0, :, :, :], V[..., 1, :, :, :]  # entries, mirrors
            minus = (v - w).view(float)
            c = np.arange(q0 + (d - 1 - q0) % 2, qs.stop, 2)  # odd d - q:
            w[..., c - q0, (d - 1 - c) // 2, :] = -0.0  # centre + -0.0 = centre
            plus = np.add(v, w, out=v).view(float)
            P = np.zeros((len(qs),) + A.shape[:-2] + (d, 4))
            for i, q in enumerate(qs):
                m, lo = (d - q + 1) // 2, 2 * (q == 0)
                for r, F in enumerate((plus, minus)):  # even rows, then odd
                    np.matmul(table[q][r::2], F[..., i, :m, lo:],
                              out=P[i, ..., q + r::2, lo:])
            yield q0, P

    def sector_purities(self, A: np.ndarray) -> np.ndarray:
        """Banded sector purities from the CG table:

            P_lam(A) = sum_(q>=0) |T_q diag_q(A)|^2
                       + sum_(q>0) |T_q diag_-q(A)|^2

        at row lam - q of the diagonal matrix T_q (``_cg_products``), in
        ascending q; a stack is served as in ``QrtModel.sector_purities``.
        """
        out = np.zeros(A.shape[:-2] + (self.dim,))
        for _, P in self._cg_products(A):  # pairs in np.sum's order, then q
            P = np.square(P, out=P)
            out = np.sum([out, *P[..., 0] + P[..., 1] + P[..., 2] + P[..., 3]],
                         axis=0)
        return out

    def pure_state_purities(self, psi: np.ndarray) -> np.ndarray:
        """(K, L) purities of each ``psi psi^H`` of a (K, d) stack from its
        diagonal products alone: diagonal q of ``psi psi^H`` is ``v_k =
        psi_k conj(psi_(k+q))`` up to conjugation, and the CG rows of
        ``cg_diagonals`` dotted with it give every ``|c_lam q|``.  The rows
        are folded as in ``_cg_products`` (even rows on ``v_k +
        v_(n-1-k)``, odd rows on ``v_k - v_(n-1-k)``), so each q is one real
        matmul per row parity with the whole stack as columns.  ``psi
        psi^H`` is Hermitian, so ``|c_lam -q| = |c_lam q|`` and each q > 0
        counts twice; no d x d matrix is formed."""
        cols = np.asarray(psi, dtype=complex).T.copy()  # (d, K): state columns
        d = self.dim
        out = np.zeros((d, cols.shape[1]))
        for q, half in enumerate(self.cg_diagonals()):
            n, m = d - q, half.shape[1]
            v = cols[:n] * cols[q:].conj()
            plus, minus = v[:m] + v[:-m - 1:-1], v[:m] - v[:-m - 1:-1]
            if n % 2:
                plus[-1] = v[m - 1]  # the centre is its own mirror
            for r, F in enumerate((plus, minus)):  # even rows, then odd
                R = half[r::2] @ F.view(float)  # (re, im) column pairs
                R *= R
                R = R[:, ::2] + R[:, 1::2]
                out[q + r::2] += 2 * R if q else R
        return np.ascontiguousarray(out.T)

    # The coefficient route: coefficient (q, lam) at q + d - 1, lam of a
    # (2d - 1, d) layout, zero for lam < |q|.

    def coefficients(self, A: np.ndarray) -> np.ndarray:
        """``c_lam q = Tr(T^lam_q A)``, (..., (2d - 1) d) for one operator or
        a (..., d, d) stack: the CG rows of diagonal |q| dotted with
        ``np.diagonal(A, -q)``, times ``(-1)**q`` for q < 0
        (``_cg_products``); no block."""
        A, d = np.asarray(A), self.dim
        c = np.zeros(A.shape[:-2] + (2 * d - 1, d), dtype=complex)
        for q0, P in self._cg_products(A):
            P = np.moveaxis(P.view(complex), 0, -3)  # (..., q, lam, +-q)
            q = np.arange(q0, q0 + P.shape[-3])[:, None]
            rows = slice(d - 1 + q0, d + q[-1, 0])  # rows q; flipped, rows -q
            sign = np.where(q <= np.arange(d), (-1.0) ** q, 1.0)  # 1 * +0 = +0
            np.multiply(sign, P[..., 0], out=c[..., ::-1, :][..., rows, :])
            c[..., rows, :] = P[..., 1]  # last: row q = 0 takes no sign
        return c.reshape(A.shape[:-2] + (-1,))

    def coefficient_sectors(self) -> np.ndarray:
        return np.tile(np.arange(self.dim), 2 * self.dim - 1)

    basis_norm = 1  # the T^lam_q are orthonormal

    def operators(self, b: np.ndarray) -> np.ndarray:
        """``sum b_lam q T^lam_q``: the CG rows put back on the diagonals."""
        d = self.dim
        b = np.reshape(b, np.shape(b)[:-1] + (2 * d - 1, d))
        out = np.zeros(b.shape[:-2] + (d, d), dtype=complex)
        buf = np.empty(d * d)  # one buffer serves every q's rows
        for q in range(d):
            rows, k = self._cg_rows(q, buf), np.arange(d - q)
            pairs = ((d - 1 + q, k, k + q, 1), (d - 1 - q, k + q, k, (-1) ** q))
            for r, i, j, sign in pairs[:1 + (q > 0)]:
                v = b[..., r, q:]
                out[..., i, j] = sign * (v.real @ rows + 1j * (v.imag @ rows))
        return out

    def _harmonic_weights(self) -> np.ndarray:
        """(2d - 1, d) weights ``x0_lam sqrt(4 pi / (2 lam + 1))`` of the
        synthesis, x0_lam = <S S; S -S|lam 0>, times ``(-1)**q`` for q < 0
        (``Ybar_lam(-q) = (-1)**q Ybar_lam q``)."""
        q, lam = np.arange(1 - self.dim, self.dim)[:, None], np.arange(self.dim)
        sign = np.where(q < 0, (-1.0) ** np.abs(q), 1.0)
        x0 = self.cg_diagonals()[0][:, 0]
        return sign * x0 * np.sqrt(4 * np.pi / (2 * lam + 1))

    def _ring_step(self, width: int) -> int:  # thetas of a ``_rings`` chunk
        return max(1, TABLE_BYTES // (16 * (2 * self.dim - 1) * width))

    def _rings(self, points, width: int):
        """Chunks of distinct thetas, ``TABLE_BYTES`` of Legendre sums of
        ``width`` columns each (or one theta): (thetas, per ring its point
        indices and rows of E, ``E = exp(-i q phi)`` of the distinct phis)."""
        pts = self._sphere_points(points)[:, 0]
        qs = np.arange(1 - self.dim, self.dim)
        order = np.argsort(pts[:, 0], kind="stable")
        theta = pts[order, 0]
        bounds = np.flatnonzero(np.diff(theta, prepend=-np.inf, append=np.inf))
        step = self._ring_step(width)
        for r in range(0, len(bounds) - 1, step):
            cut = bounds[r:r + step + 1]
            phi, row = np.unique(pts[order[cut[0]:cut[-1]], 1],
                                 return_inverse=True)
            rings = [(order[lo:hi], row.ravel()[lo - cut[0]:hi - cut[0]])
                     for lo, hi in zip(cut[:-1], cut[1:])]
            yield theta[cut[:-1]], rings, np.exp(-1j * np.outer(phi, qs))

    def synthesis(self, c: np.ndarray, points, factor=None) -> np.ndarray:
        """(N, K) fields ``sum_q exp(-i q phi) G_q(theta)`` of (K, (2d - 1)
        d) coefficients, ``G_q = sum_lam Ybar_lam q(theta) x0_lam sqrt(4 pi
        / (2 lam + 1)) c_lam q`` summed one recursion step at a time per
        chunk, then one product per ring with the Fourier factors of its
        points.  On one sphere a product grid's ``factor`` is the grid
        itself, so it is not read."""
        d = self.dim
        cw = (np.reshape(c, (-1, 2 * d - 1, d))
              * self._harmonic_weights()).transpose(1, 0, 2)  # (q, K, lam)
        out = np.empty((len(points), cw.shape[1]), dtype=complex)
        for theta, rings, E in self._rings(points, cw.shape[1]):
            G = np.zeros(cw.shape[:2] + theta.shape, dtype=complex)
            for lam, Y in enumerate(_legendre_rows(theta, d)):
                band = slice(d - 1 - lam, d + lam)  # q = -lam ... lam
                G[band] += cw[band, :, lam, None] * np.concatenate(
                    [Y[:0:-1], Y])[:, None]
            for r, (idx, row) in enumerate(rings):
                out[idx] = E[row] @ G[:, :, r]
        return out

    def synthesis_adjoint(self, w: np.ndarray, points,
                          factor=None) -> np.ndarray:
        """(K, (2d - 1) d) sums of (N, K) node weights against the
        synthesis: its steps in reverse, per ring the Fourier sums
        ``sum_n exp(-i q phi_n) w_n``, then the Legendre sums."""
        d = self.dim
        b = np.zeros((2 * d - 1, d, w.shape[1]), dtype=complex)
        for theta, rings, E in self._rings(points, w.shape[1]):
            W = np.stack([E[row].T @ w[idx] for idx, row in rings], axis=2)
            for lam, Y in enumerate(_legendre_rows(theta, d)):
                band = slice(d - 1 - lam, d + lam)
                b[band, lam] += (W[band] @ np.concatenate(
                    [Y[:0:-1], Y])[:, :, None])[..., 0]
        b *= self._harmonic_weights()[:, :, None]
        return b.transpose(2, 0, 1).reshape(w.shape[1], -1)

    def coefficient_bytes(self, nops: int) -> int:
        return 4 * self.dim ** 3 + 16 * (2 * self.dim - 1) * self.dim * nops

    def synthesis_bytes(self, ncols: int, ntheta: int, nphi: int) -> int:
        return 16 * (2 * self.dim - 1) * (
            4 * ncols * min(ntheta, self._ring_step(ncols)) + 2 * nphi)

    def purity_work(self, nops: int) -> int:
        d = self.dim
        return -(-nops * (d ** 3 + 64 * d ** 2 + 8192 * d + 12288) // 128)

    def harmonic_check_bytes(self, nodes: int) -> int:
        ntheta = math.isqrt(nodes // 2)  # a spin's grids: ntheta x 2 ntheta
        return (self.coefficient_bytes(35) + 8 * self.dim ** 2 * ntheta
                + self.synthesis_bytes(15, ntheta, 2 * ntheta) + 664 * nodes)

    def harmonics(self, points) -> np.ndarray:
        """(d**2, N) real spherical harmonics of ``_build_block``'s bases
        T^lam_0, (T + T^H) / sqrt(2) and i (T^H - T) / sqrt(2), T = T^lam_j,
        at rows lam**2, lam**2 + 2j - 1 and lam**2 + 2j: ``Ybar_lam 0``,
        ``sqrt(2) cos(j phi) Ybar_lam j`` and ``sqrt(2) sin(j phi) Ybar_lam
        j`` times ``sqrt(4 pi)``, the synthesis weight times ``tau_lam**(-1/2)
        = sqrt(2 lam + 1) / x0_lam`` (x0_lam > 0 by the table's sign), lam
        by lam from one Legendre recursion over the distinct thetas."""
        d = self.dim
        pts = self._sphere_points(points)[:, 0]
        theta, ring = np.unique(pts[:, 0], return_inverse=True)
        jphi = np.arange(1, d)[:, None] * pts[:, 1]
        cos, sin = np.cos(jphi), np.sin(jphi)
        out = np.empty((d * d, len(pts)))
        for lam, Y in enumerate(_legendre_rows(theta, d)):
            Y = Y * math.sqrt(4 * math.pi)
            out[lam ** 2] = Y[0][ring]
            Yj = math.sqrt(2) * Y[1:][:, ring]
            out[lam ** 2 + 1:(lam + 1) ** 2:2] = cos[:lam] * Yj
            out[lam ** 2 + 2:(lam + 1) ** 2:2] = sin[:lam] * Yj
        return out

    def harmonic_deviation(self, grid) -> float:
        """max |G - I| of the Gram matrix G of ``harmonics`` on theta rings
        of one set of phis at equal weights (theta-major), per q without the
        (d**2, N) table: rows (lam, q, c) and (lam', q', c') of G meet in
        ``L_qq'[lam, lam'] T[qc, q'c']``, L the weighted theta sums of ``4 pi
        Ybar_lam q Ybar_lam' q'`` and T the Gram matrix of one ring's trig
        rows c (1, sqrt(2) cos(q phi), sqrt(2) sin(q phi)).  The blocks q =
        q', c = c' are taken whole, ``TABLE_BYTES`` of q at a time; an entry
        of T off its diagonal only where it can pass them, as ``|L_qq'|**2
        <= max diag L_q max diag L_q'`` (Cauchy-Schwarz, weights > 0)."""
        d, pts = self.dim, self._sphere_points(grid.points)[:, 0]
        nphi = int(np.sum(pts[:, 0] == pts[0, 0]))
        pts, w = pts.reshape(-1, nphi, 2), np.reshape(grid.weights, (-1, nphi))
        if (np.any(pts[..., 0] != pts[:, :1, 0]) or np.any(w != w[:, :1])
                or np.any(pts[..., 1] != pts[0, :, 1])):
            raise ValueError("harmonic_deviation reads theta rings of one "
                             "set of phis at equal weights")
        jphi = np.arange(d)[:, None] * pts[0, :, 1]
        t = np.vstack([np.cos(jphi), np.sin(jphi[1:])]) * math.sqrt(2)
        t[0] = 1.0
        T = t @ t.T / nphi  # rows cos(q phi), q < d, then sin(q phi), q > 0
        tc = np.diag(T)[np.r_[0:d, 0, d:2 * d - 1].reshape(2, d)]  # cos, sin
        Y = np.zeros((d, d, len(w)))  # [q, lam], weighted
        for lam, row in enumerate(_legendre_rows(pts[:, 0, 0], d)):
            Y[:lam + 1, lam] = row * np.sqrt(4 * math.pi * nphi * w[:, 0])
        dev, top = 0.0, np.empty(d)  # top[q]: max diag L_q = max |L_q|
        step = max(1, TABLE_BYTES // (24 * d * d))
        for q0 in range(0, d, step):
            L = Y[q0:q0 + step, q0:] @ Y[q0:q0 + step, q0:].swapaxes(1, 2)
            q, i = np.arange(q0, q0 + len(L)), np.arange(d - q0)
            top[q] = L[:, i, i].max(axis=1)
            E = L * tc[:, q, None, None]
            E[..., i, i] -= q0 + i >= q[:, None]  # I on lam, lam' >= q
            dev = max(dev, np.max(np.abs(E)))
        q = np.r_[0:d, 1:d]  # the q of each row of T
        bound = np.abs(np.triu(T, 1)) * np.sqrt(np.outer(top[q], top[q]))
        for a, b in zip(*np.nonzero(bound > dev)):
            dev = max(dev, abs(T[a, b]) * np.max(np.abs(Y[q[a]] @ Y[q[b]].T)))
        return float(dev)

    def _build_block(self, lam: int) -> IrrepBlock:
        if self.S.twice > _DENSE_SPIN_CAP:
            raise ValueError(
                f"dense spin sector bases capped at 2S <= {_DENSE_SPIN_CAP}, "
                f"got S={self.S}")
        if not 0 <= lam <= self.S.twice:
            raise ValueError(f"sector {lam} outside 0..2S")
        ops = [self.tensor_operator(lam, 0)]
        for j in range(1, lam + 1):
            T = self.tensor_operator(lam, j)
            Td = T.conj().T
            ops.append((T + Td) / math.sqrt(2))
            ops.append(1j * (Td - T) / math.sqrt(2))
        return IrrepBlock(lam, 2 * lam + 1, np.array(ops))

    def basis_state(self, m) -> np.ndarray:
        """|S, m> for a magnetic quantum number m (not a basis index)."""
        tm = HalfInt.of(m).twice
        if abs(tm) > self.S.twice or (self.S.twice - tm) % 2:
            raise ValueError(f"m={m} invalid for S={self.S}")
        return super().basis_state((self.S.twice - tm) // 2)

    # group / phase-space geometry

    def _jy_eigh(self):
        if self._jy_eig is None:
            _, Jy, _ = self.spin_operators()
            self._jy_eig = np.linalg.eigh(Jy)
        return self._jy_eig

    def _rot_y(self, theta) -> np.ndarray:
        """exp(-i theta J_y), real (Wigner's small d); a theta array gives
        a stack."""
        w, V = self._jy_eigh()
        theta = np.asarray(theta, dtype=float)[..., None, None]
        return ((V * np.exp(-1j * theta * w)) @ V.conj().T).real.copy()

    def _rot_z_diag(self, angle) -> np.ndarray:
        """exp(-i angle m) over the basis, m = S - a."""
        return np.exp(-0.5j * angle * (self.S.twice - 2 * np.arange(self.dim)))

    def point_unitary(self, point) -> np.ndarray:
        theta, phi = np.reshape(point, 2)
        return self._rot_z_diag(phi)[:, None] * self._rot_y(theta)

    def coherent_states(self, points) -> np.ndarray:
        """(N, d) batch: column 0 of ``point_unitary`` from J_y's eigenbasis."""
        pts, (w, V) = self._sphere_points(points)[:, 0], self._jy_eigh()
        col = ((np.exp(-1j * pts[:, :1] * w) * V[0].conj()) @ V.T).real
        return self._rot_z_diag(pts[:, 1:]) * col

    def group_unitary(self, g) -> np.ndarray:
        alpha, beta, gamma = g
        U = self._rot_z_diag(alpha)[:, None] * self._rot_y(beta)
        return U * self._rot_z_diag(gamma)[None, :]

    def identity_point(self):
        return (0.0, 0.0)

    def point_as_group(self, point):
        theta, phi = np.reshape(point, 2)
        return (phi, theta, 0.0)

    def random_point(self, rng):
        rng = np.random.default_rng(rng)
        return (math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))

    def random_group(self, rng):
        rng = np.random.default_rng(rng)
        return (rng.uniform(0, 2 * math.pi),
                math.acos(rng.uniform(-1, 1)),
                rng.uniform(0, 2 * math.pi))

    def point_of_state(self, psi: np.ndarray):
        """Sphere coordinates of a coherent state via its Bloch vector."""
        Jx, Jy, Jz = self.spin_operators()
        S = self.S.twice / 2
        nx = np.real(psi.conj() @ Jx @ psi) / S
        ny = np.real(psi.conj() @ Jy @ psi) / S
        nz = np.real(psi.conj() @ Jz @ psi) / S
        theta = math.acos(min(1.0, max(-1.0, nz)))
        phi = math.atan2(ny, nx) % (2 * math.pi) if abs(nz) < 1 - 1e-14 else 0.0
        return (theta, phi)

    def act(self, g, point):
        """Image of a phase point under a group element."""
        psi = self.group_unitary(g) @ self.coherent_state(point)
        return self.point_of_state(psi)


# -- multi-qubit model --------------------------------------------------------

class MultipartiteModel(QrtModel):
    """n qubits under local SU(2) x ... x SU(2) rotations.

    Phase points are (n, 2) rows of (theta, phi), one pair per qubit;
    group elements are n-tuples of Euler triples.  Sector labels are 0/1
    support patterns.
    """

    kind = "multipartite"
    band = 0.5

    def __init__(self, n: int):
        super().__init__()
        if not 1 <= n <= _LABEL_CAP:
            raise ValueError(f"need 1 <= n <= {_LABEL_CAP}")
        self.n = n
        self.nspheres = n
        self.dim = 2 ** n
        self._qubit = SpinModel(HalfInt(1))  # single-qubit geometry helper

    def __repr__(self):
        return f"MultipartiteModel(n={self.n})"

    def labels(self):
        return list(self._labels)  # a fresh list: callers may modify it

    @functools.cached_property
    def _labels(self) -> tuple:
        return tuple(sorted(itertools.product((0, 1), repeat=self.n),
                            key=lambda t: (sum(t), t)))

    @property
    def trivial_label(self):
        return (0,) * self.n

    def irrep_dim(self, lam) -> int:
        return 3 ** sum(lam)

    @functools.cached_property
    def taus(self) -> np.ndarray:
        return np.array([1.0 / (3 ** sum(lam) * 2 ** self.n)
                         for lam in self.labels()])

    def sector_name(self, lam) -> str:
        return "".join(map(str, lam))

    def sector_words(self, lam):
        """The Pauli words with support pattern lam, by bit arithmetic: word
        w carries letter ``XYZ[digit]`` on the j-th support qubit, with the
        base-3 digits of w read from the first support qubit (the order of
        ``itertools.product("XYZ", repeat=len(support))``); phase 1 per Y."""
        support = np.flatnonzero(lam)
        w = np.arange(3 ** len(support))
        digits = w[:, None] // 3 ** np.arange(len(support))[::-1] % 3
        bits = 1 << support
        x = (digits != 2) @ bits
        z = (digits != 0) @ bits
        return x, z, np.sum(digits == 1, axis=1) % 4

    def word_sectors(self, x, z) -> np.ndarray:
        """Row of the support mask ``x | z`` (bit q is qubit q)."""
        row = np.empty(self.dim, dtype=np.intp)
        masks = [sum(bit << q for q, bit in enumerate(lam))
                 for lam in self.labels()]
        row[masks] = np.arange(len(masks))
        return row[np.asarray(x) | np.asarray(z)]

    @functools.cached_property
    def _subsystems(self) -> tuple:
        """(index, complement index, axis order) of one subsystem B of each
        complementary pair, the one of at most n/2 qubits: its qubits are
        the set bits of the index, qubit 0 leading as in the basis index,
        and the axis order of a (K, 2, ..., 2) stack puts them first."""
        n, full = self.n, self.dim - 1
        out = []
        for i in range(self.dim):
            B = [q for q in range(n) if i >> (n - 1 - q) & 1]
            if 2 * len(B) < n or 2 * len(B) == n and i < full ^ i:
                rest = [q for q in range(n) if q not in B]
                out.append((i, full ^ i, (0,) + tuple(1 + q for q in B + rest)))
        return tuple(out)

    @functools.cached_property
    def _mobius(self) -> np.ndarray:
        """(L, d) matrix from the subsystem purities ``Tr rho_B**2``, by
        index, to the sector purities in ``labels()`` order: ``P_A = 2**-n
        sum_(B <= A) (-1)**|A - B| 2**|B| Tr rho_B**2``, the Kronecker power
        of one qubit's ``[[1, 0], [-1, 2]] / 2`` (exact in floats)."""
        one = np.array([[0.5, 0.0], [-0.5, 1.0]])
        rows = [int("".join(map(str, lam)), 2) for lam in self._labels]
        return functools.reduce(np.kron, [one] * self.n)[rows]

    def purity_work(self, nops: int) -> int:
        plan = self._subsystems
        grams = sum(2 ** (self.n + i.bit_count()) for i, _, _ in plan)
        return -(-nops * (grams + 6 * (self.dim + 128) * len(plan) + 1536)
                 // 6)

    def pure_state_purities(self, psi: np.ndarray) -> np.ndarray:
        """(K, L) purities of each ``psi psi^H`` of a (K, d) stack from its
        subsystem purities, by Moebius inversion over subsets (Rains, IEEE
        Trans. Inf. Theory 44, 1388 (1998); Eltschka & Siewert, Quantum 2,
        64 (2018)).  ``Tr rho_B**2`` is ``||M M^H||_F**2`` of the (2**|B|,
        2**(n - |B|)) reshape M of psi with B's qubits first, taken on the
        smaller of B and its complement, whose purities agree for a pure
        state; then one matmul with ``_mobius``.  No d x d matrix."""
        psi = np.asarray(psi, dtype=complex)
        k = len(psi)
        T = psi.reshape((k,) + (2,) * self.n)
        purity = np.empty((k, self.dim))
        for i, j, axes in self._subsystems:
            M = T.transpose(axes).reshape(k, 2 ** i.bit_count(), -1)
            G = (M @ M.conj().transpose(0, 2, 1)).reshape(k, -1).view(float)
            purity[:, i] = purity[:, j] = np.einsum("ki,ki->k", G, G)
        return purity @ self._mobius.T

    def _build_block(self, lam) -> IrrepBlock:
        if self.n > _DENSE_QUBIT_CAP:
            raise ValueError(
                f"dense sector bases capped at n <= {_DENSE_QUBIT_CAP}")
        return self._word_block(tuple(lam))

    def point_unitary(self, point) -> np.ndarray:
        if len(point) != self.n:
            raise ValueError("need one (theta, phi) pair per qubit")
        return functools.reduce(np.kron, map(self._qubit.point_unitary, point))

    def coherent_states(self, points) -> np.ndarray:
        """(N, 2**n) products of each qubit's batched coherent states."""
        pts = self._sphere_points(points)
        return _row_kron([self._qubit.coherent_states(pts[:, k])
                          for k in range(self.n)])

    @staticmethod
    def _bloch(pts: np.ndarray) -> np.ndarray:
        """(..., 4) Bloch components ``(1, n_x, n_z, -i n_y)`` of (..., 2)
        (theta, phi) pairs: the expectations of ``(I, X, Z, XZ)``."""
        th, ph = pts[..., 0], pts[..., 1]
        return np.stack([np.ones_like(th), np.sin(th) * np.cos(ph),
                         np.cos(th), -1j * np.sin(th) * np.sin(ph)], axis=-1)

    def _factor_words(self, nodes: np.ndarray) -> np.ndarray:
        """(m, 4) factor ``conj(_bloch) / 2`` of one qubit: on a product
        grid each row of ``conj(_expectations) / d`` is the Kronecker
        product of n rows of it."""
        return self._bloch(nodes).conj() / 2

    def _factor_harmonics(self, nodes: np.ndarray) -> np.ndarray:
        """(4, m) rows ``(1, sqrt(3) n_x, sqrt(3) n_z, sqrt(3) n_y)`` of one
        qubit by word digit: ``Re(i**p <W>) / sqrt(tau_lam d)`` is their
        product over the qubits, as ``tau_lam d = 3**-|lam|`` and the i of
        each Y turns ``-i n_y`` into ``n_y``."""
        r3 = math.sqrt(3)
        return (self._bloch(nodes) * [1, r3, r3, 1j * r3]).real.T

    def harmonic_deviation(self, grid) -> float:
        """max |G - I| of the Gram matrix G of ``harmonics`` on a product
        grid (a one-sphere grid is its own ``factor``), read from the 4 x 4
        Gram matrix g of one qubit's rows ``_factor_harmonics``.  G is the
        Kronecker power of g: an entry is a product of one entry of g per
        qubit, off g's diagonal where its two words differ.  With weights
        >= 0 the factors' sizes are at most ``max |g_ij|`` (i != j) and
        ``max g_ii``, and float products of non-negative factors in one
        order are monotone; so the largest entry of each pattern of
        differing qubits, and the extremes of G's diagonal from ``max
        g_ii`` and ``min g_ii``, are chains of these in the Kronecker order
        (qubit n - 1 first, times each earlier qubit)."""
        factor = grid if grid.factor is None else grid.factor
        if np.any(factor.weights < 0):
            raise ValueError("harmonic_deviation reads rules of non-negative "
                             "weights")
        h = self._factor_harmonics(self._factor_nodes(grid.points, factor))
        g = (h * factor.weights) @ h.T
        top, low = np.diag(g).max(), np.diag(g).min()
        off = np.abs(g[~np.eye(4, dtype=bool)]).max()
        # Rows: each non-empty set of differing qubits (bit q for qubit
        # q), then G's largest and smallest diagonal entry.
        differ = np.arange(1, self.dim)[:, None] >> np.arange(self.n) & 1
        factors = np.vstack([np.where(differ, off, top),
                             [[top] * self.n, [low] * self.n]])
        chain = factors[:, -1]
        for q in reversed(range(self.n - 1)):
            chain = factors[:, q] * chain
        return float(max(chain[:-2].max(), *np.abs(chain[-2:] - 1.0)))

    def _expectations(self, points) -> np.ndarray:
        """(N, 4**n) products of each qubit's Bloch components (``_bloch``);
        qubit 0 is the leading digit of the word."""
        e = self._bloch(self._sphere_points(points))
        return _row_kron(np.moveaxis(e, 1, 0))

    def group_unitary(self, g) -> np.ndarray:
        return functools.reduce(np.kron, map(self._qubit.group_unitary, g))

    def identity_point(self):
        return ((0.0, 0.0),) * self.n

    def point_as_group(self, point):
        return tuple(self._qubit.point_as_group(p) for p in point)

    def random_point(self, rng):
        rng = np.random.default_rng(rng)
        return tuple(self._qubit.random_point(rng) for _ in range(self.n))

    def random_group(self, rng):
        rng = np.random.default_rng(rng)
        return tuple(self._qubit.random_group(rng) for _ in range(self.n))

    def act(self, g, point):
        out = []
        for gk, pk in zip(g, point):
            psi = self._qubit.group_unitary(gk) @ self._qubit.coherent_state(pk)
            out.append(self._qubit.point_of_state(psi))
        return tuple(out)


# -- fermionic model ----------------------------------------------------------

class FermionicPoint(Frozen):
    """Phase point of the fermionic model: a real antisymmetric generator
    ``h``, immutable."""

    __slots__ = ("h",)

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2:
            raise ValueError("generator must be square of even size 2n")
        if np.max(np.abs(h + h.T)) > 1e-12:
            raise ValueError("generator must be antisymmetric")
        object.__setattr__(self, "h", h)

    # The one field is an array: points compare and hash by identity.
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __array__(self, dtype=None, copy=None):
        """The generator h, so a point reads as its bare array."""
        return np.array(self.h, dtype=dtype, copy=copy)


class FermionicModel(QrtModel):
    """n fermionic modes under Gaussian (matchgate) rotations.

    Sector label lam = 0..2n counts Majorana factors.  Phase points are
    real antisymmetric 2n x 2n generators h, entering through
    ``T = exp(sum_{mu != nu} h_{mu nu} c_mu c_nu)``.  The sectors, the point
    generators and ``verify`` read the one Jordan-Wigner construction,
    ``sector_words``.
    """

    kind = "fermionic"
    band = None  # no structured quadrature: Monte-Carlo grids only
    nspheres = 0

    def __init__(self, n: int):
        super().__init__()
        if not 1 <= n <= _LABEL_CAP:
            raise ValueError(f"need 1 <= n <= {_LABEL_CAP}")
        self.n = n
        self.dim = 2 ** n
        odd = np.bitwise_count(np.arange(self.dim)) % 2
        self._parity_sectors = [np.flatnonzero(odd == k) for k in (0, 1)]

    def __repr__(self):
        return f"FermionicModel(n={self.n})"

    def labels(self):
        return list(range(2 * self.n + 1))

    @property
    def trivial_label(self):
        return 0

    def irrep_dim(self, lam: int) -> int:
        return math.comb(2 * self.n, lam)

    @functools.cached_property
    def taus(self) -> np.ndarray:
        return np.array([0.0 if lam % 2 else math.comb(self.n, lam // 2)
                         / (math.comb(2 * self.n, lam) * self.dim)
                         for lam in self.labels()])

    def sector_words(self, lam: int):
        """Hermitian basis words, the ascending Majorana products
        ``c_mu1 ... c_mulam`` times i**(lam (lam - 1) / 2), by bit
        arithmetic.  A product is a 2n-bit mask with c_mu at bit 2n - mu,
        so the masks of weight lam in descending order are the products in
        ``itertools.combinations`` order.  With a_k, b_k the bits of
        c_(2k+1) = Z..Z X and c_(2k+2) = Z..Z Y on mode k: x_k = a_k ^ b_k,
        z_k = b_k ^ (parity of x above k), and the phase counts the Y
        factors (their Z strings pass no X of a later factor)."""
        n = self.n
        masks = np.arange(4 ** n - 1, -1, -1, dtype=np.int64)
        masks = masks[np.bitwise_count(masks) == lam]
        x = np.zeros_like(masks)
        z = np.zeros_like(masks)
        ys = np.zeros_like(masks)
        above = np.zeros_like(masks)  # parity of x on the modes above k
        for k in reversed(range(n)):
            a = (masks >> (2 * n - 1 - 2 * k)) & 1
            b = (masks >> (2 * n - 2 - 2 * k)) & 1
            x |= (a ^ b) << k
            z |= (b ^ above) << k
            ys += b
            above ^= a ^ b
        return x, z, (ys + lam * (lam - 1) // 2) % 4

    def word_sectors(self, x, z) -> np.ndarray:
        """The Majorana weight, which is also the row: with t_k the parity
        of x above mode k, mode k holds the factors b_k = z_k ^ t_k and
        a_k = x_k ^ b_k, and the weight is sum_k a_k + b_k."""
        x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
        t, shift = x >> 1, 1
        while shift < self.n:  # suffix parity: t_k = xor of x_j, j > k
            t ^= t >> shift
            shift *= 2
        b = z ^ t
        return (np.bitwise_count(x ^ b).astype(np.intp)
                + np.bitwise_count(b))

    def _build_block(self, lam: int) -> IrrepBlock:
        if self.n > _DENSE_QUBIT_CAP:
            raise ValueError(
                f"dense sector bases capped at n <= {_DENSE_QUBIT_CAP}")
        if not 0 <= lam <= 2 * self.n:
            raise ValueError(f"sector {lam} outside 0..2n")
        return self._word_block(lam)

    @functools.cached_property
    def _pair_words(self) -> tuple[np.ndarray, np.ndarray]:
        """(index, -2i i**p) of the words ``i**p X^x Z^z = i c_mu c_nu`` of
        ``sector_words(2)``, listed in ``np.triu_indices(2n, 1)`` order."""
        x, z, p = self.sector_words(2)
        return (_word_index(x, z, self.n),
                -2j * np.array([1, 1j, -1, -1j])[p % 4])

    def point_unitary(self, point) -> np.ndarray:
        """``exp(sum_(mu < nu) 2 h_mu nu c_mu c_nu)``, by parity blocks."""
        h = np.asarray(point, dtype=float)
        if h.shape != (2 * self.n, 2 * self.n):
            raise ValueError("generator has wrong shape")
        index, factor = self._pair_words
        b = np.zeros(self.dim ** 2, dtype=complex)
        b[index] = factor * h[np.triu_indices(2 * self.n, 1)]
        gen = self.operators(b)
        # gen commutes with the parity (-1)**popcount(k): exponentiating
        # each parity block alone keeps the cross-parity entries exactly 0.
        U = np.zeros_like(gen)
        for idx in self._parity_sectors:
            block = np.ix_(idx, idx)
            U[block] = _exp_antihermitian(gen[block])
        return U

    group_unitary = point_unitary

    def identity_point(self):
        return FermionicPoint(np.zeros((2 * self.n, 2 * self.n)))

    def point_as_group(self, point):
        return point  # points and group elements are both generators

    def random_point(self, rng):
        rng = np.random.default_rng(rng)
        g = rng.normal(size=(2 * self.n, 2 * self.n))
        return FermionicPoint((g - g.T) / (2 * math.sqrt(2 * self.n)))

    random_group = random_point

    def act(self, g, point):
        """Compose rotations through SO(2n) and return the new generator.

        Majorana conjugation ``T c_mu T^dag = sum_nu R_{mu nu} c_nu`` sends
        products to reversed rotation products, so the composed rotation of
        ``T(g) T(point)`` is ``R(point) R(g)``.  The recovered generator
        reproduces the composed unitary up to a scalar phase, which cancels
        in every covariant quantity (kernels, overlaps, purities).
        """
        hg, hp = np.asarray(g, dtype=float), np.asarray(point, dtype=float)
        R = np.real(_exp_antihermitian(-4 * hp) @ _exp_antihermitian(-4 * hg))
        return self.point_of_rotation(R)

    def point_of_rotation(self, R: np.ndarray) -> FermionicPoint:
        """Phase point whose Majorana rotation exp(-4 h) is R in SO(2n)."""
        h = -_log_rotation(R) / 4
        return FermionicPoint((h - h.T) / 2)
