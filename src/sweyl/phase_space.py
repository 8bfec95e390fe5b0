"""Phase-space kernels, symbols, quadrature and the twisted product.

The kernel family interpolates between the coherent-state projector
(s = -1), the Wigner-type self-dual kernel (s = 0) and its inverse
(s = +1).  In terms of the sector bases and harmonics,

    Delta(Omega, s) = sum_lam tau_lam**(-s/2) sum_j Y^lam_j(Omega) D^lam_j,

with harmonics ``Y^lam_j(Omega) = tau_lam**(-1/2) <Omega| D^lam_j |Omega>``
orthonormal under the normalized invariant measure.  All integrals here
use that normalized measure, so the harmonics are an orthonormal family
and reconstruction/tracing identities hold without extra volume factors;
the price is a ``d**((s-1)/2)`` factor in the standardization integral.

Nothing here tests a model's class: grids and band checks read the
geometry each model declares (``band``, ``nspheres``, ``sphere_tuples``,
``point_as_group``; see ``models``).

Fields and reconstruction are ring transforms, without (N, d, d) kernel
stacks or per-node unitaries.  The center kernel ``Delta_0(s) =
sum_lam tau_lam**(-(s+1)/2) Pi_lam(|hw><hw|)`` is diagonal, and
``center_diagonal`` reads it from the model's ``hw_sector_diagonals``
without a sector block.  The field at node n is ``F_n(s) = sum_b c_b(s)
(U_n^H A U_n)_bb`` with c that diagonal.  Each model declares its point
unitaries factored on rings (``point_rings``): ``U_n = diag(exp(-i
charge . phi_n)) R_r``, for a spin ``diag(exp(-i phi m)) R_y(theta)``
with one ring per theta, as in the equiangular separation of variables
of McEwen & Wiaux (IEEE TSP 59, 5876 (2011)).  On a ring the rotated
diagonals are a finite Fourier series in phi, whose coefficients, sums
of ``conj(R_ab) A_ac R_cb`` over the pairs of one charge difference,
take one O(d**3) pass per ring (``rotated_diagonals``); evaluating the
series costs O(N d**2).  ``kernel_sums`` is the adjoint transform at
the same cost, O(n_rings d**3 + N d**2) against O(N d**3) per node.
The rotations, pair products and Fourier factors depend only on the
model and the points, so both transforms take a stack of operators (or
of fields) and build them once for all; ``symbol_field``,
``reconstruct``, ``convert_field`` and ``star_product`` are one-operator
callers, and the CLI makes one forward and one adjoint pass per grid.
Models with no phase (fermions) are the case of one ring per point and
one charge difference, which is the plain ``diag(U^H A U)``.
``kernel_stack`` (``U D0 U^H``) is the tests' reference route;
``harmonic_matrix`` serves the quadrature checks.  Its high-sector
harmonics are cancelling sums ``<Omega| D_j |Omega> = O(sqrt(tau))`` that
lose about ``tau**(-1/2)`` (1.4e5 at S = 8) in relative accuracy; the
rotated diagonals do not.  At s > 0 any route keeps an error of about
``eps kappa**s`` of the field's maximum (``kappa``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gfd import PuritySpectrum
from .models import FermionicModel, QrtModel


# -- kernel specification -----------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Which member of the kernel family to use.

    Either an ordering parameter ``s`` (the standard family) or a tuple of
    per-sector filter coefficients ``k_lam`` (generalized filters, where
    the symbol of A is ``sum_lam k_lam sum_j Y_j <D_j, A>``).
    """

    s: float | None = None
    coeffs: tuple | None = None

    @classmethod
    def cahill_glauber(cls, s: float) -> "KernelSpec":
        return cls(s=float(s), coeffs=None)

    @classmethod
    def generalized(cls, coeffs: dict) -> "KernelSpec":
        items = tuple(sorted(coeffs.items()))
        return cls(s=None, coeffs=items)

    @property
    def is_generalized(self) -> bool:
        return self.coeffs is not None

    def coeff_map(self) -> dict:
        return dict(self.coeffs)

    def center_factor(self, model: QrtModel, lam) -> float:
        """Factor multiplying ``sum_j <D_j> D_j`` in the center kernel."""
        tau = model.tau(lam)
        if tau == 0:
            return 0.0
        if self.is_generalized:
            return self.coeff_map().get(lam, 0.0) * tau ** (-0.5)
        return tau ** (-(self.s + 1) / 2)

    def dual(self) -> "KernelSpec":
        """The spec pairing with this one in the tracing identity."""
        if not self.is_generalized:
            return KernelSpec.cahill_glauber(-self.s)
        zero = [lam for lam, k in self.coeffs if k == 0]
        if zero:
            raise ValueError(
                f"filter not invertible: zero coefficient on sectors {zero}")
        return KernelSpec.generalized({lam: 1 / k for lam, k in self.coeffs})

    def validate(self, model: QrtModel) -> None:
        if self.is_generalized:
            k0 = self.coeff_map().get(model.trivial_label, 0.0)
            if k0 <= 0:
                raise ValueError(
                    "generalized filter needs a positive coefficient "
                    "on the trivial sector")


# -- quadrature grids ---------------------------------------------------------

@dataclass
class SphereQuadrature:
    """Tensor Gauss-Legendre x uniform-phi grid on one sphere.

    Nodes integrate the normalized measure exactly for integrands that are
    products of two functions band-limited at ``2 * band`` (polynomial
    degree ``4 * band`` in cos(theta), azimuthal order ``4 * band``).
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    band: float
    shape: tuple[int, int]

    @property
    def points(self):
        return list(zip(self.theta, self.phi))


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence (n >= 1)."""
    p0, p1 = np.ones_like(x), x
    d0, d1 = np.zeros_like(x), np.ones_like(x)
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        d0, d1 = d1, d0 + (2 * k + 1) * p0
    return p1, d1


def gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule.

    Golub & Welsch (Math. Comp. 23, 221 (1969)): the nodes are the
    eigenvalues of the symmetric Jacobi matrix of the Legendre recurrence.
    Three Newton steps on P_n polish them to about an ulp, and the weights
    are 2 / ((1 - x**2) P_n'(x)**2); both are symmetrized about 0.
    """
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k * k - 1)
    x = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    for _ in range(3):
        p, dp = _legendre(n, x)
        x = x - p / dp
    x = (x - x[::-1]) / 2
    _, dp = _legendre(n, x)
    w = 2 / ((1 - x) * (1 + x) * dp ** 2)
    return x, (w + w[::-1]) / 2


def sphere_quadrature(band, oversample: float = 1.0) -> SphereQuadrature:
    """Build a sphere grid resolving harmonic content up to ``2 * band``."""
    band = float(band)
    if band < 0:
        raise ValueError("band must be non-negative")
    ntheta = max(1, math.ceil(oversample * (2 * band + 1)))
    nphi = max(1, math.ceil(oversample * (4 * band + 2)))
    x, wx = gauss_legendre(ntheta)
    theta1 = np.arccos(x)
    phi1 = 2 * math.pi * np.arange(nphi) / nphi
    th, ph = np.meshgrid(theta1, phi1, indexing="ij")
    w = np.repeat(wx / (2 * nphi), nphi)
    return SphereQuadrature(th.ravel(), ph.ravel(), w, band, (ntheta, nphi))


@dataclass
class ProductQuadrature:
    """Product grid over several spheres (multi-qubit phase space)."""

    factors: tuple[SphereQuadrature, ...]
    points: list
    weights: np.ndarray

    @property
    def band(self) -> float:
        return min(f.band for f in self.factors)


def product_quadrature(nspheres: int, band=0.5) -> ProductQuadrature:
    base = sphere_quadrature(band)
    pts1 = base.points
    points = []
    weights = []

    def rec(prefix, wacc):
        if len(prefix) == nspheres:
            points.append(tuple(prefix))
            weights.append(wacc)
            return
        for p, w in zip(pts1, base.weights):
            rec(prefix + [p], wacc * w)

    rec([], 1.0)
    return ProductQuadrature((base,) * nspheres, points, np.array(weights))


@dataclass
class McQuadrature:
    """Monte-Carlo 'grid': Haar-distributed points with equal weights."""

    points: list
    weights: np.ndarray
    band = None


def mc_group_quadrature(model: FermionicModel, nnodes: int,
                        seed: int) -> McQuadrature:
    """Haar-random rotation points for Monte-Carlo fermionic integrals."""
    rng = np.random.default_rng(seed)
    points = [model.point_of_rotation(_haar_rotation(2 * model.n, rng))
              for _ in range(nnodes)]
    return McQuadrature(points, np.full(nnodes, 1.0 / nnodes))


def _haar_rotation(dim: int, rng) -> np.ndarray:
    """Haar-random rotation in SO(dim): QR of a Gaussian matrix.

    Scaling each column of Q by the sign of R's diagonal makes Q Haar on
    O(dim) (Mezzadri, Notices AMS 54, 592 (2007)); flipping one column
    when det Q = -1 carries that measure onto SO(dim).
    """
    Q, R = np.linalg.qr(rng.normal(size=(dim, dim)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def default_grid_size(model: QrtModel) -> int:
    """Node count of ``default_grid(model)``, without building it."""
    if model.band is None:
        return 0
    ntheta = max(1, math.ceil(2 * model.band + 1))
    nphi = max(1, math.ceil(4 * model.band + 2))
    return (ntheta * nphi) ** model.nspheres


def default_grid(model: QrtModel):
    """Structured quadrature adapted to the model's band limit."""
    if model.band is None:
        raise ValueError(
            "no structured quadrature for this model; use mc_group_quadrature")
    if model.sphere_tuples:
        return product_quadrature(model.nspheres, model.band)
    return sphere_quadrature(model.band)


def _check_band(model: QrtModel, grid, factor: int = 1) -> None:
    """Refuse a structured grid that under-resolves ``factor`` times the
    model's band limit (1 for fields, 2 for products of two fields)."""
    if grid.band is None or model.band is None:
        return  # Monte-Carlo grid or model: identities hold in expectation
    if grid.band < factor * model.band - 1e-9:
        raise ValueError(
            f"grid band {grid.band} under-resolves {factor} x the band "
            f"limit {model.band} of {model!r}")


# -- kernels and symbols ------------------------------------------------------

STACK_BUDGET = 768 * 2**20  # bytes: three live (N, d, d) complex stacks


def sw_kernel(model: QrtModel, point, spec: KernelSpec) -> np.ndarray:
    """Kernel at a phase point: the conjugated center kernel U c U^H."""
    U = model.point_unitary(point)
    return (U * center_diagonal(model, spec)) @ U.conj().T


def kernel_stack(model: QrtModel, points, spec: KernelSpec) -> np.ndarray:
    """(N, d, d) stack of kernels at the given points: U_n D0 U_n^H.

    The tests' reference for the streamed routes, with which it shares
    only ``center_diagonal``.  Three complex (N, d, d) stacks are live at
    once; a request over ``STACK_BUDGET`` bytes raises ValueError first.
    """
    need = 3 * len(points) * model.dim ** 2 * 16
    if need > STACK_BUDGET:
        raise ValueError(
            f"kernel stack of {len(points)} nodes at d={model.dim} needs "
            f"{need / 2**20:.0f} MiB, over the {STACK_BUDGET >> 20} MiB "
            "budget; use fewer nodes")
    c = center_diagonal(model, spec)
    U = model.point_unitaries(points)
    UD = U * c
    np.conjugate(U, out=U)  # U^H without a fourth stack
    return UD @ U.transpose(0, 2, 1)


def symbol(model: QrtModel, A: np.ndarray, point, spec: KernelSpec) -> complex:
    """Phase-space symbol F_A(point) = Tr[Delta(point) A]."""
    return complex(np.einsum("ab,ba->", sw_kernel(model, point, spec),
                             np.asarray(A)))


def center_diagonal(model: QrtModel, spec: KernelSpec) -> np.ndarray:
    """Diagonal c of the center kernel ``sum_lam f_lam Pi_lam(|hw><hw|)``,
    with f the spec's ``center_factor``: one real d-vector."""
    spec.validate(model)
    f = [spec.center_factor(model, lam) for lam in model.labels()]
    return np.asarray(f) @ model.hw_sector_diagonals()


def kappa(model: QrtModel) -> float:
    """``tau_min**(-1/2)`` over tau > 0: a field at s > 0 keeps an error of
    about ``eps kappa**s`` of its maximum."""
    return min(t for t in map(model.tau, model.labels()) if t > 0) ** -0.5


RING_BYTES = 4 * 2**20  # live bytes of one chunk of rings in the transforms


def _run(idx: np.ndarray):
    """A run of consecutive indices as a slice (a view, not a copy)."""
    if (idx[1:] - idx[:-1] == 1).all():
        return slice(idx[0], idx[-1] + 1)
    return idx


def _offsets(charge: np.ndarray):
    """Charge differences of the basis pairs, grouped for the transforms.

    Returns the distinct differences ``q = charge_a - charge_b`` as a
    (nq, p) array in lexicographic order, so that ``-q_g = q_(nq-1-g)``,
    and one ``(g, a, b, ra, rb)`` per g <= nq - 1 - g: the index pairs
    (a, b) of ``q_g``, and a and b again as slices where they run
    consecutively (a spin's diagonals) to gather columns without a copy.
    Those of ``-q_g`` are the same pairs swapped, so one product of
    columns serves both; the middle group, q = 0, is its own mirror.
    """
    d = len(charge)
    diff = (charge[:, None, :] - charge[None, :, :]).reshape(d * d, -1)
    q, group = np.unique(diff, axis=0, return_inverse=True)
    group = group.ravel()
    order = np.argsort(group, kind="stable")
    members = np.split(order, np.cumsum(np.bincount(group))[:-1])
    half = []
    for g in range((len(q) + 1) // 2):
        a, b = divmod(members[g], d)
        half.append((g, a, b, _run(a), _run(b)))
    return q, half


def ring_bytes(dim: int, noffsets: int, npairs: int, size: int,
               nops: int) -> int:
    """Bytes one ring of ``size`` points holds in the transforms of
    ``nops`` operators (or fields), counted as complex: R and conj(R), a
    pair product of at most ``npairs`` pairs and its gathers, the pair
    weights' product and its combination (2 nops d), the offset sums and a
    gathered copy (2 noffsets nops d), the Fourier factors with the
    temporaries of their exp, and one bucket product (size nops d)."""
    return 16 * (2 * dim * dim + 3 * npairs * dim + 2 * nops * dim
                 + 2 * noffsets * nops * dim + 3 * size * noffsets
                 + size * nops * dim)


def _ring_chunks(rings, q: np.ndarray, half, dim: int, nops: int):
    """Chunks of rings whose transform arrays for ``nops`` operators fit
    in ``RING_BYTES``, or one ring where a single one does not.

    Yields ``(Rt, buckets)``: Rt the chunk's ring rotations in the layout
    (a, ring, b), and per point count s among its rings a bucket
    ``(rows, idx, E)``: the rings' rows in the chunk, their (len, s) point
    indices and the (len, s, nq) Fourier factors ``exp(1j * phi_n . q)``,
    a product over the phase angles, each evaluated once per distinct
    value (a grid's rings share their phis).
    """
    order = np.argsort(rings.ring, kind="stable")
    sizes = np.bincount(rings.ring, minlength=rings.count)
    starts = np.cumsum(sizes) - sizes
    npairs = max(len(h[1]) for h in half)
    size = sizes.max(initial=0)
    step = max(1, RING_BYTES // ring_bytes(dim, len(q), npairs, size, nops))
    for lo in range(0, rings.count, step):
        hi = min(lo + step, rings.count)
        buckets = []
        # The distinct sizes, ascending; a plain np.unique would import
        # numpy.ma (np.ma.is_masked) on first use.
        for s in np.flatnonzero(np.bincount(sizes[lo:hi])):
            rows = np.flatnonzero(sizes[lo:hi] == s)
            idx = order[starts[lo + rows][:, None] + np.arange(s)]
            E = np.ones(idx.shape + (len(q),), dtype=complex)
            for phi, qk in zip(rings.phi[idx].reshape(idx.size, -1).T, q.T):
                phi, inv = np.unique(phi, return_inverse=True)
                E *= np.exp(1j * np.outer(phi, qk))[inv].reshape(E.shape)
            buckets.append((_run(rows), idx, E))
        yield rings.rotations(lo, hi).transpose(1, 0, 2).copy(), buckets


def rotated_diagonals(model: QrtModel, A: np.ndarray, points,
                      centers: np.ndarray | None = None) -> np.ndarray:
    """Diagonals ``(U_n^H A U_n)_bb`` at the points, of one (d, d)
    operator, (N, d), or of each operator of a (K, d, d) stack, (N, K, d).

    The ring transform of the model's ``point_rings`` factorization
    ``U_n = diag(exp(-i charge . phi_n)) R_r`` (r the ring of n): with
    ``q = charge_a - charge_b``,

        (U_n^H A U_n)_bb = sum_q exp(i phi_n . q) M_(r,q,b),
        M_(r,q,b) = sum_(charge_a - charge_c = q) conj(R_ab) A_ac R_cb.

    The offset sums M cost one O(d**3) pass per ring: for a spin, column
    products of R times ``np.diagonal(A, q)`` for each of the 2d - 1
    offsets.  The sum over q is one small product per ring, O(N d**2) in
    all, against O(N d**3) for one ``U^H A U`` per node.  Rings are taken
    in chunks under ``RING_BYTES``.  The rotations, their pair products
    and the Fourier factors depend only on the model and the points, so
    one pass serves every operator of a stack: the pair weights of all K
    operators are one (4K, P) matrix per offset group.  ``points`` is any
    sequence ``point_rings`` accepts.  The symbol at s is the table times
    ``center_diagonal(model, spec)``; given a (d, w) matrix of such
    diagonals as ``centers``, the last axis is the width-w product, formed
    ring by ring (``M @ centers`` first) without the d-wide table.
    """
    A = np.asarray(A)
    ops = A.reshape((-1,) + A.shape[-2:])
    nops, d = len(ops), model.dim
    rings = model.point_rings(points)
    q, half = _offsets(rings.charge)
    # q_g from A_ab; -q_g from the swapped pairs, as conj(conj(A_ba) X).
    weights = [np.concatenate([ops[:, a, b].real, ops[:, a, b].imag,
                               ops[:, b, a].real, -ops[:, b, a].imag])
               for _, a, b, _, _ in half]
    width = d if centers is None else np.shape(centers)[1]
    table = np.empty((len(rings.ring), nops, width), dtype=complex)
    flat = table.reshape(len(table), -1)
    for Rt, buckets in _ring_chunks(rings, q, half, d, nops):
        # In the layout (a, ring, b) a pair's products are one
        # (P, k d) matrix; conj is free on real rotations (a spin's).
        k, Rc = Rt.shape[1], Rt.conj()
        M = np.empty((k, len(q), nops, d), dtype=complex)
        for (g, a, b, ra, rb), V in zip(half, weights):
            X = (Rc[ra] * Rt[rb]).reshape(len(a), -1)
            Y = (V @ X).reshape(4, nops, k, d).transpose(0, 2, 1, 3)
            M[:, g] = Y[0] + 1j * Y[1]
            if 2 * g + 1 < len(q):
                M[:, -1 - g] = np.conj(Y[2] + 1j * Y[3])
        if centers is not None:
            M = M @ centers
        M = M.reshape(k, len(q), -1)
        for rows, idx, E in buckets:
            flat[idx] = E @ M[rows]
    return table if A.ndim == 3 else table[:, 0]


def kernel_sums(model: QrtModel, points, weights: np.ndarray,
                centers: np.ndarray) -> np.ndarray:
    """(K, d, d) sums ``sum_n weights[n, k] U_n diag(centers[:, k]) U_n^H``
    for (N, K) node weights and (d, K) center diagonals: the adjoint of
    ``rotated_diagonals``, one pass for all K columns.  With
    ``q = charge_a - charge_c``,

        out_ac = sum_r sum_b R_ab conj(R_cb) W_(r,q) c_b,
        W_(r,q) = sum_(n in r) w_n exp(-i phi_n . q),

    O(n_rings d**3 K + N d**2 K), with the rotations, their pair products
    and the Fourier factors built once for all columns.
    """
    wn = np.asarray(weights)
    nops, d = wn.shape[1], model.dim
    rings = model.point_rings(points)
    q, half = _offsets(rings.charge)
    out = np.zeros((d, d, nops), dtype=complex)
    for Rt, buckets in _ring_chunks(rings, q, half, d, nops):
        k, Rc = Rt.shape[1], Rt.conj()
        W = np.empty((k, len(q), nops), dtype=complex)
        for rows, idx, E in buckets:
            W[rows] = E.conj().transpose(0, 2, 1) @ wn[idx]
        W = W[:, :, None, :] * centers  # (k, nq, d, K)
        for g, a, b, ra, rb in half:
            # out_ab from W_q; out_ba = conj(sum X conj(W_-q)).
            X = (Rt[ra] * Rc[rb]).reshape(len(a), -1)
            G = np.stack([W[:, g].real, W[:, g].imag,
                          W[:, -1 - g].real, -W[:, -1 - g].imag], axis=-1)
            Y = (X @ G.reshape(k * d, -1)).reshape(len(a), nops, 4)
            out[a, b] += Y[..., 0] + 1j * Y[..., 1]
            if 2 * g + 1 < len(q):
                out[b, a] += np.conj(Y[..., 2] + 1j * Y[..., 3])
    return np.ascontiguousarray(out.transpose(2, 0, 1))


@dataclass
class SymbolField:
    """A symbol sampled on a quadrature grid."""

    model: QrtModel
    grid: object
    spec: KernelSpec
    values: np.ndarray


def symbol_field(model: QrtModel, A: np.ndarray, grid,
                 spec: KernelSpec) -> SymbolField:
    """Evaluate the symbol of A on every grid node (no kernel stack)."""
    c = center_diagonal(model, spec)[:, None]
    values = rotated_diagonals(model, A, grid.points, c)[:, 0]
    return SymbolField(model, grid, spec, values)


# -- harmonics ----------------------------------------------------------------

def harmonic_matrix(model: QrtModel, points) -> dict:
    """Sector harmonics at many points: label -> (d_lam, N) real array.

    Row j of sector lam holds ``Y^lam_j = tau_lam**(-1/2) <Omega| D_j
    |Omega>`` at each point.  Sectors without phase-space image (tau = 0)
    are omitted.
    """
    psi = model.coherent_states(points)
    # <psi_n| D_j |psi_n> = vec(D_j) . vec(conj(psi_n) psi_n^T)
    outer = (psi.conj()[:, :, None] * psi[:, None, :]).reshape(len(psi), -1).T
    out = {}
    for block in model.blocks():
        tau = model.tau(block.label)
        if tau == 0:
            continue
        vals = block.basis.reshape(block.dim, -1) @ outer
        out[block.label] = np.real(vals) / math.sqrt(tau)
    return out


# -- quadrature functionals ---------------------------------------------------

def phase_purity_quadrature(field: SymbolField,
                            harmonics: dict | None = None) -> PuritySpectrum:
    """Sector purities of a sampled field via quadrature inner products."""
    model, grid = field.model, field.grid
    _check_band(model, grid)
    if harmonics is None:
        harmonics = harmonic_matrix(model, grid.points)
    w = np.asarray(grid.weights)
    entries = {}
    for lam in model.labels():
        if lam in harmonics:
            comps = harmonics[lam] @ (w * field.values)
            entries[lam] = float(np.sum(np.abs(comps) ** 2))
        else:
            entries[lam] = 0.0
    return PuritySpectrum(entries)


def reconstruct(field: SymbolField) -> np.ndarray:
    """Integrate the field against the dual kernel to recover the operator.

    Exact for structured grids resolving the model band limit; sectors with
    no phase-space image (fermionic odd sectors) are irrecoverably absent.
    The quadrature sum ``sum_n weight_n F_n Delta_n(-s)`` is one column of
    ``kernel_sums``: O(n_rings d**3 + N d**2).
    """
    model, grid = field.model, field.grid
    _check_band(model, grid)
    wn = np.asarray(grid.weights) * field.values
    c = center_diagonal(model, field.spec.dual())
    return kernel_sums(model, grid.points, wn[:, None], c[:, None])[0]


def convert_field(field: SymbolField, s_target: float, out_grid) -> SymbolField:
    """Resample a field at a new ordering parameter via the two-point kernel.

    The two-point kernel is ``Tr[Delta(m, s_target) Delta(n, -s_source)]``,
    so the quadrature sum over n factors through the reconstructed
    operator: the result is its symbol at ``s_target`` on ``out_grid``.
    """
    spec_t = KernelSpec.cahill_glauber(s_target)
    return symbol_field(field.model, reconstruct(field), out_grid, spec_t)


# -- twisted product ----------------------------------------------------------

def star_product(field_a: SymbolField, field_b: SymbolField,
                 s_out: float, out_points) -> np.ndarray:
    """Twisted product of two fields, evaluated at the requested points.

    Double quadrature of the three-point kernel against both fields; the
    fields' grids must resolve twice the model band limit (products of two
    band-limited operators reach twice the band).  The kernel is a trace of
    three kernels, so the double sum factors as
    ``Tr[Delta_m (sum_i wa_i Delta_i)(sum_j wb_j Delta_j)]``: O((N + m) d**3)
    instead of O(m N**2 d**3).  Each inner sum is ``reconstruct``.
    """
    model = field_a.model
    if field_b.model is not model:
        raise ValueError("fields belong to different models")
    for f in (field_a, field_b):
        _check_band(model, f.grid, factor=2)
    if field_a.spec.is_generalized or field_b.spec.is_generalized:
        raise ValueError("twisted product needs standard-family fields")
    product = reconstruct(field_a) @ reconstruct(field_b)
    c = center_diagonal(model, KernelSpec.cahill_glauber(s_out))[:, None]
    return rotated_diagonals(model, product, out_points, c)[:, 0]
