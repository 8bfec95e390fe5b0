"""Reference routes kept for the tests: slow, direct and independent of
the fast paths they check.

None of these is called by the package.  They are the symbolic Pauli
algebra the package leaves to the tests: strings from labels
(``from_label``), a term-dict ``PauliSum`` that merges its terms through
``add_string`` and its purities from the models' ``word_sectors``
(``word_sector_purities``), beside the per-word sector of a Pauli word
(``sector_of``) and the word-by-word purities and Majorana algebra behind
it; then the dense Majorana matrices and the fermionic point unitaries built
from their pairwise products (``fermionic_generators``), the
row-layout Pauli transforms (``pauli_transform_rows``,
``pauli_operators_rows``), the exact signed CG square as a Fraction, the
highest-weight coefficient ``cg_hw_zero`` and the spin taus from its
Racah sums (``spin_taus_racah``), the CG-diagonal table
recursion with per-step factors (``cg_diagonals_stepwise``), the
node-by-node product grid
(``tuple_product_grid``), the three-kernel and factored twisted-product
couplings, the adjoint-representation harmonics, the symbol factor of a
kernel spec, dense-block sector purities, the per-diagonal spin
coefficients and operators, the label-by-label sector filters of
``{label: purity}`` dicts (phase purities, the ``purities`` factors, the
duality rows, the kernel purities and the center factors), the point-by-point coherent
fidelity, the argparse parser the CLI read before its option table
(``_parser``), the per-state ``purities`` command, the ``%``-template
writers that format every cell, the CSV reader that reads ``render.write_csv`` output
back, the harmonic Gram deviation from the whole weighted point table
(``harmonic_deviation_by_point_table``) and, for qubits, from the whole
Kronecker Gram matrix (``harmonic_deviation_by_kronecker_gram``), and the admission estimates the
commands computed before the models declared their own costs (the
admission ladder's oracle).
"""

import argparse
import functools
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np

from sweyl import __version__, cli, gfd, render
from sweyl.clebsch import (HalfInt, _cg_signed_square, _checked_labels,
                           clebsch_gordan)
from sweyl.models import (TABLE_BYTES, FermionicModel, MultipartiteModel,
                          _exp_antihermitian)
from sweyl.paulis import (_FORWARD, _INVERSE, PauliString, majorana,
                          words_dense)
from sweyl.phase_space import (KernelSpec, gauss_legendre, harmonic_matrix,
                               sw_kernel)


# -- Pauli words and sectors ---------------------------------------------------

def from_label(label: str) -> PauliString:
    """The string of a label like ``"XIZ"``, ``"-YZ"`` or ``"iXX"``."""
    body = label
    phase = 0
    if body.startswith("-i"):
        phase, body = 3, body[2:]
    elif body.startswith("-"):
        phase, body = 2, body[1:]
    elif body.startswith("i"):
        phase, body = 1, body[1:]
    x = z = 0
    for q, ch in enumerate(body):
        if ch == "X":
            x |= 1 << q
        elif ch == "Y":
            x |= 1 << q
            z |= 1 << q
            phase += 1  # Y = i XZ
        elif ch == "Z":
            z |= 1 << q
        elif ch != "I":
            raise ValueError(f"bad Pauli letter {ch!r}")
    return PauliString(len(body), x, z, phase)


class PauliSum:
    """Complex linear combination of Pauli strings, keyed by the (x, z)
    masks of the canonical (Hermitian) string, so that Hermitian operators
    have real weights.  Every term merges through ``add_string``, which
    drops a term that cancels."""

    def __init__(self, n: int):
        self.n = n
        self.terms: dict[tuple[int, int], complex] = {}

    @classmethod
    def from_string(cls, ps: PauliString, coeff: complex = 1.0) -> "PauliSum":
        out = cls(ps.n)
        out.add_string(ps, coeff)
        return out

    def add_string(self, ps: PauliString, coeff: complex = 1.0) -> None:
        key = (ps.x, ps.z)
        residual = (1, 1j, -1, -1j)[(ps.phase - ps.canonical_phase) % 4]
        val = self.terms.get(key, 0j) + coeff * residual
        if val == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = val

    def strings(self):
        """Iterate (canonical PauliString, coefficient) pairs."""
        for (x, z), coeff in self.terms.items():
            yield PauliString(self.n, x, z, (x & z).bit_count()), coeff

    def to_dense(self) -> np.ndarray:
        out = np.zeros((2 ** self.n, 2 ** self.n), dtype=complex)
        for ps, coeff in self.strings():
            out += coeff * ps.to_dense()
        return out


def word_sector_purities(op: PauliSum, model) -> gfd.PuritySpectrum:
    """Purity spectrum of a ``PauliSum`` from the sectors of all its words
    in one ``model.word_sectors`` call (a spin refuses): ``|c|**2 2**n``
    summed per sector."""
    masks = np.array(list(op.terms), dtype=np.int64).reshape(-1, 2)
    rows = model.word_sectors(masks[:, 0], masks[:, 1])
    weights = np.abs(np.array(list(op.terms.values()), dtype=complex)) ** 2
    labels = model.labels()
    return gfd.PuritySpectrum(labels, np.bincount(
        rows, weights * 2 ** op.n, minlength=len(labels)))


def majorana_product(mus, n: int) -> PauliString:
    """Ordered product of Majorana operators with exact phase tracking."""
    out = PauliString(n, 0, 0)
    for mu in mus:
        out = out * majorana(mu, n)
    return out


def majorana_weight(ps: PauliString) -> int:
    """Number of Majorana factors in the unique expansion of a string."""
    lam = 0
    t = 0  # parity of Majorana count on higher modes
    for q in reversed(range(ps.n)):
        xq = (ps.x >> q) & 1
        zq = (ps.z >> q) & 1
        m2 = zq ^ t
        m1 = xq ^ m2
        lam += m1 + m2
        t ^= xq
    return lam


def multipartite_label(ps: PauliString) -> tuple[int, ...]:
    """Support pattern of a string as a 0/1 tuple over qubits."""
    m = ps.x | ps.z
    return tuple((m >> q) & 1 for q in range(ps.n))


def sector_of(model, word: PauliString):
    """Sector label of one Pauli word: the support pattern for qubits, the
    Majorana weight for fermions; a spin has no Pauli-word sectors."""
    if isinstance(model, MultipartiteModel):
        return multipartite_label(word)
    if isinstance(model, FermionicModel):
        return majorana_weight(word)
    raise ValueError(f"{model!r} has no Pauli-word sectors")


def pauli_sum_purities(model, op) -> dict:
    """Label -> P_lam of a ``PauliSum``, one word at a time:
    ``|c|**2 2**n`` summed into each word's ``sector_of``."""
    out = {lam: 0.0 for lam in model.labels()}
    for word, coeff in op.strings():
        out[sector_of(model, word)] += abs(coeff) ** 2 * 2 ** op.n
    return out


def sector_strings(model, lam) -> list[PauliString]:
    """The basis words of one sector, as ``PauliString``s."""
    n = model.dim.bit_length() - 1
    return [PauliString(n, int(x), int(z), int(p))
            for x, z, p in zip(*model.sector_words(lam))]


def product_sector_words(model, lam) -> list[tuple[int, int, int]]:
    """(x, z, phase) of one qubit or fermion sector's basis words, built
    one word at a time: Pauli labels over the support in
    ``itertools.product`` order, or phased ascending Majorana products."""
    if isinstance(model, MultipartiteModel):
        support = [q for q, bit in enumerate(lam) if bit]
        words = []
        for letters in itertools.product("XYZ", repeat=len(support)):
            label = ["I"] * model.n
            for q, ch in zip(support, letters):
                label[q] = ch
            words.append(from_label("".join(label)))
    else:
        extra = lam * (lam - 1) // 2
        words = []
        for combo in itertools.combinations(range(1, 2 * model.n + 1), lam):
            w = majorana_product(combo, model.n)
            words.append(PauliString(w.n, w.x, w.z, w.phase + extra))
    return [(w.x, w.z, w.phase) for w in words]


def majorana_dense(n: int) -> list[np.ndarray]:
    """The 2n dense Majorana matrices c_1 ... c_2n on n modes."""
    cs = [majorana(mu, n) for mu in range(1, 2 * n + 1)]
    return list(words_dense(n, [c.x for c in cs], [c.z for c in cs],
                            [c.phase for c in cs]))


def fermionic_generators(model, hs) -> np.ndarray:
    """(K, d, d) generators ``sum_(mu < nu) 2 h_mu nu c_mu c_nu`` of K
    real antisymmetric h, each summed pair by pair over dense Majorana
    products (a pair with h_mu nu = 0 skipped); each product is formed
    once for all K."""
    cs = majorana_dense(model.n)
    hs = np.asarray(hs, dtype=float).reshape((-1,) + (2 * model.n,) * 2)
    gens = np.zeros((len(hs), model.dim, model.dim), dtype=complex)
    for mu in range(2 * model.n):
        for nu in range(mu + 1, 2 * model.n):
            P = cs[mu] @ cs[nu]
            for k in np.flatnonzero(hs[:, mu, nu]):
                gens[k] += 2 * hs[k, mu, nu] * P
    return gens


def fermionic_point_unitary(model, gen) -> np.ndarray:
    """``FermionicModel.point_unitary`` of one of ``fermionic_generators``:
    the exponential taken on each fermion-parity block alone."""
    odd = np.array([bin(k).count("1") % 2 for k in range(model.dim)])
    U = np.zeros_like(gen)
    for idx in (np.flatnonzero(odd == 0), np.flatnonzero(odd == 1)):
        block = np.ix_(idx, idx)
        U[block] = _exp_antihermitian(gen[block])
    return U


def _row_axes(n: int) -> list[int]:
    """Axes of a (m, 2, ..., 2) operator stack in the order (m, r_0, c_0,
    r_1, c_1, ...): the stack first, then each qubit's row and column bit."""
    return [0] + [1 + a for q in range(n) for a in (q, n + q)]


def _digit_passes_rows(T: np.ndarray, n: int, mix) -> np.ndarray:
    """``paulis._digit_passes`` on the (m, 4**n) row layout: every pass
    maps the leading digit of each row and writes it as the trailing one."""
    out, rest = np.empty_like(T), T.shape[1] // 4
    for _ in range(n):
        q = T.reshape(len(T), 4, rest).transpose(1, 0, 2)
        dst = out.reshape(len(T), rest, 4)
        for k, (i, j, sign) in enumerate(mix):
            (np.add if sign > 0 else np.subtract)(q[i], q[j], out=dst[:, :, k])
        T, out = out, T
    return T


def pauli_transform_rows(A: np.ndarray) -> np.ndarray:
    """``paulis.pauli_transform`` with each operator's 4**n entries as one
    contiguous row."""
    A = np.asarray(A)
    n = A.shape[-1].bit_length() - 1
    lead = A.shape[:-2]
    m = math.prod(lead)
    T = np.empty((m, 4 ** n), dtype=np.result_type(A, 1.0))
    T.reshape((m,) + (2,) * (2 * n))[...] = \
        A.reshape((m,) + (2,) * (2 * n)).transpose(_row_axes(n))
    return _digit_passes_rows(T, n, _FORWARD).reshape(lead + (4 ** n,))


def pauli_operators_rows(b: np.ndarray) -> np.ndarray:
    """``paulis.pauli_operators`` with each operator's 4**n weights as one
    contiguous row."""
    b = np.asarray(b)
    n = (b.shape[-1].bit_length() - 1) // 2
    lead = b.shape[:-1]
    m = math.prod(lead)
    T = _digit_passes_rows(b.reshape(m, 4 ** n).astype(complex), n, _INVERSE)
    axes = np.argsort(_row_axes(n))
    return T.reshape((m,) + (2,) * (2 * n)).transpose(axes).reshape(
        lead + (2 ** n, 2 ** n))


def dense_block_purities(model, A) -> dict:
    """Label -> P_lam(A) = sum_j |<D_j, A>|^2 over the model's dense sector
    blocks, for one (d, d) operator or a (..., d, d) stack."""
    out = {}
    for block in model.blocks():
        coeffs = np.einsum("jab,...ab->...j", block.basis.conj(), A)
        out[block.label] = np.sum(np.abs(coeffs) ** 2, axis=-1)
    return out


# -- spin coefficients, one diagonal at a time --------------------------------

def cg_products_per_q(model, A):
    """Per diagonal q, (q, even, odd): the CG rows of diagonal q times
    the diagonals q and -q of A, ``T_q diag_(+-q)(A)``, as real (...,
    rows, 2 or 4) arrays of (re, im) pairs of diagonal q, then -q.

    Rows of even parity (lam - q even, rows lam = q, q + 2, ...) are
    symmetric, so they pair their half of the table with the diagonal
    folded as v_k + v_(n-1-k); odd rows use v_k - v_(n-1-k), which
    vanishes exactly on mirror-symmetric input.  O(d) numpy calls,
    O(d**3) flops and memory per operator.
    """
    for q, half in enumerate(model.cg_diagonals()):
        n, h = model.dim - q, (model.dim - q) // 2
        diags = [np.diagonal(A, q, -2, -1)]
        diags += [np.diagonal(A, -q, -2, -1)] if q else []
        V = np.stack(diags, axis=-1).astype(complex)  # (..., n, 1 or 2)
        plus, minus = V[..., :n - h, :].copy(), V[..., :n - h, :].copy()
        plus[..., :h, :] += V[..., ::-1, :][..., :h, :]
        minus[..., :h, :] -= V[..., ::-1, :][..., :h, :]
        minus[..., h:, :] = 0.0
        # Complex columns viewed as (re, im) pairs: real matmuls.
        yield (q, half[0::2] @ plus.view(float),
               half[1::2] @ minus.view(float))


def cg_sector_purities(model, A) -> np.ndarray:
    """``SpinModel.sector_purities`` from ``cg_products_per_q``."""
    out = np.zeros(A.shape[:-2] + (model.dim,))
    for q, even, odd in cg_products_per_q(model, A):
        out[..., q::2] += np.sum(even ** 2, axis=-1)
        out[..., q + 1::2] += np.sum(odd ** 2, axis=-1)
    return out


def cg_coefficients(model, A) -> np.ndarray:
    """``SpinModel.coefficients`` from ``cg_products_per_q``."""
    A, d = np.asarray(A), model.dim
    c = np.zeros(A.shape[:-2] + (2 * d - 1, d), dtype=complex)
    for q, even, odd in cg_products_per_q(model, A):
        for lam, x in ((q, even.view(complex)), (q + 1, odd.view(complex))):
            c[..., d - 1 + q, lam::2] = x[..., -1]
            if q:
                c[..., d - 1 - q, lam::2] = (-1) ** q * x[..., 0]
    return c.reshape(A.shape[:-2] + (-1,))


def cg_operators(model, b) -> np.ndarray:
    """``SpinModel.operators`` with each q's full rows built afresh by
    ``np.hstack`` of the half table and its signed mirror."""
    d = model.dim
    b = np.reshape(b, np.shape(b)[:-1] + (2 * d - 1, d))
    out = np.zeros(b.shape[:-2] + (d, d), dtype=complex)
    for q, half in enumerate(model.cg_diagonals()):
        n, k = d - q, np.arange(d - q)
        parity = (-1.0) ** np.arange(n)[:, None]
        rows = np.hstack([half, parity * half[:, :n // 2][:, ::-1]])
        pairs = ((d - 1 + q, k, k + q, 1), (d - 1 - q, k + q, k, (-1) ** q))
        for r, i, j, sign in pairs[:1 + (q > 0)]:
            v = b[..., r, q:]
            out[..., i, j] = sign * (v.real @ rows + 1j * (v.imag @ rows))
    return out


# -- sector filters, label by label --------------------------------------------

def phase_purity_entries(entries: dict, s, model) -> dict:
    """``gfd.phase_purity`` of a ``{label: purity}`` dict, one Python
    float power per sector."""
    out = {}
    for lam in model.labels():
        tau = model.tau(lam)
        out[lam] = entries[lam] * tau ** (-s) if tau > 0 else 0.0
    return out


def purities_factors(model, svals) -> np.ndarray:
    """(svals, sectors) filter factors of the ``purities`` command."""
    taus = [model.tau(lam) for lam in model.labels()]
    return np.array([[tau ** (-s) if tau > 0 else 0.0 for tau in taus]
                     for s in svals])


def kernel_purity_per_label(model, lam, s) -> float:
    """``gfd.kernel_purity`` of one sector, tau**(-s) d_lam."""
    tau = model.tau(lam)
    if tau == 0:
        return 0.0
    return tau ** (-s) * model.irrep_dim(lam)


def center_factor_per_label(spec: KernelSpec, model, lam) -> float:
    """``phase_space.sector_factors`` entry of one sector, the coefficient
    map rebuilt per call."""
    tau = model.tau(lam)
    if tau == 0:
        return 0.0
    if spec.is_generalized:
        return spec.coeff_map().get(lam, 0.0) * tau ** (-0.5)
    return tau ** (-(spec.s + 1) / 2)


def duality_rows_per_label(model, svals, nsamples: int, seed: int) -> list:
    """``gfd.duality_check`` with the rows of each s built sector by sector
    from dict spectra, one Python float filter factor per sector.  The
    samples' purities come from the route ``duality_check`` reads,
    ``model.pure_state_purities`` of each Haar chunk, whose agreement with
    the operator route ``tests/test_pure_state_purities.py`` checks."""
    labels, d = model.labels(), model.dim
    shift, sums, sqsums = None, 0.0, 0.0
    for chunk in gfd.haar_chunks(d, nsamples, seed):
        vals = model.pure_state_purities(chunk)
        shift = vals[0].copy() if shift is None else shift
        vals -= shift
        sums += np.sum(vals, axis=0)
        sqsums += np.sum(vals * vals, axis=0)
    offset = sums / nsamples
    mean = shift + offset
    se = np.sqrt(np.maximum(0.0, sqsums / nsamples - offset ** 2)
                 / (nsamples - 1))

    hw = model.hw_state()
    hw_spectrum = dict(zip(labels, model.sector_purities(
        np.outer(hw, hw.conj())).tolist()))

    def sector_rows(s):
        dual = phase_purity_entries(hw_spectrum, s + 1, model)
        for i, lam in enumerate(labels):
            tau, trivial = model.tau(lam), lam == model.trivial_label
            f = tau ** (-s) if tau > 0 else 0.0
            rhs = float(d) ** (s - 1) if trivial else dual[lam] / (d * (d + 1))
            yield lam, f * float(mean[i]), f * float(se[i]), rhs, trivial

    zs = [(m - r) / e if e > 0 else 0.0 if abs(m - r) < 1e-12 else math.inf
          for _, m, e, r, _ in sector_rows(0.0)]
    return [gfd.DualityRow(s, lam, m, e, r, z, trivial)
            for s in svals
            for (lam, m, e, r, trivial), z in zip(sector_rows(s), zs)]


# -- Clebsch-Gordan ------------------------------------------------------------

def clebsch_gordan_signed_square(j1, m1, j2, m2, J, M):
    """Exact signed square (sign, Fraction) of a CG coefficient."""
    sign, num, den = _cg_signed_square(*_checked_labels(j1, m1, j2, m2, J, M))
    return sign, Fraction(num, den)


def cg_hw_zero(S, lam) -> float:
    """The coefficient <S S; S -S | lam 0> entering highest-weight purities.

    Positive for every valid ``0 <= lam <= 2S``.
    """
    S = HalfInt.of(S)
    lam = int(lam)
    if not 0 <= lam <= S.twice:
        raise ValueError(f"need 0 <= lam <= 2S, got lam={lam}, 2S={S.twice}")
    return clebsch_gordan(S, S, S, -S, HalfInt(2 * lam), 0)


def spin_taus_racah(model) -> np.ndarray:
    """(L,) spin weights <S S; S -S | lam 0>**2 / (2 lam + 1) from the exact
    Racah sum of each coefficient, rounded through ``clebsch_gordan``."""
    return np.array([cg_hw_zero(model.S, lam) ** 2 / (2 * lam + 1)
                     for lam in model.labels()])


def cg_diagonals_stepwise(tS: int) -> list[np.ndarray]:
    """The CG-diagonal table of ``models._cg_diagonals`` with one
    ``searchsorted`` and both off-diagonal factors recomputed at every
    step of the recursion."""
    d = tS + 1
    S = tS / 2
    q = np.repeat(np.arange(d), np.arange(d, 0, -1))
    lam = np.concatenate([np.arange(p, d) for p in range(d)])
    eig = lam * (lam + 1.0)
    centre = (d - 1 - q) // 2

    def off(k, ql):
        return np.sqrt((k + 1) * (d - k - 1)
                       * (k + ql + 1.0) * (d - k - ql - 1))

    x = np.zeros((len(q), centre[0] + 1))
    x[:, 0] = 1.0
    for k in range(centre[0]):
        live = np.searchsorted(-centre, -(k + 1), side="right")
        ql = q[:live]
        diag = 2 * S * (S + 1) - 2 * (S - k) * (S - k - ql) - eig[:live]
        nxt = diag * x[:live, k]
        if k:
            nxt -= off(k - 1, ql) * x[:live, k - 1]
        x[:live, k + 1] = nxt / off(k, ql)
    table = []
    first = 0
    for p in range(d):
        n = d - p
        half = x[first:first + n, :(n + 1) // 2].copy()
        first += n
        weight = np.full(half.shape[1], 2.0)
        if n % 2:
            weight[-1] = 1.0
            half[1::2, -1] = 0.0
        half *= (-1) ** p / np.sqrt(half ** 2 @ weight)[:, None]
        table.append(half)
    return table


# -- kernels and harmonics -----------------------------------------------------

def symbol_factor(spec: KernelSpec, model, lam) -> float:
    """Factor multiplying ``Y_j <D_j, A>`` in the symbol expansion."""
    tau = model.tau(lam)
    if tau == 0:
        return 0.0
    if spec.is_generalized:
        return spec.coeff_map().get(lam, 0.0)
    return tau ** (-spec.s / 2)


def legendre_table(theta: np.ndarray, d: int) -> np.ndarray:
    """(d, d, k) table of the orthonormal ``Ybar_lam q(theta)`` at entry
    (q, lam, t), zero for lam < q: the Holmes-Featherstone recursion with
    every row kept, all sectoral seeds first, then one step in lam for
    every q at once."""
    x, y = np.cos(theta), np.sin(theta)
    q = np.arange(d - 1)
    T = np.zeros((d, d, len(x)))
    T[0, 0] = 1 / math.sqrt(4 * math.pi)
    for p in range(1, d):
        T[p, p] = -math.sqrt((2 * p + 1) / (2 * p)) * y * T[p - 1, p - 1]
    T[q, q + 1] = np.sqrt(2 * q + 3)[:, None] * x * T[q, q]
    for lam in range(2, d):
        p = q[:lam - 1]
        a = np.sqrt((4 * lam * lam - 1) / (lam * lam - p * p))[:, None]
        b = np.sqrt(((lam - 1) ** 2 - p * p) / (4 * (lam - 1) ** 2 - 1))
        T[:lam - 1, lam] = a * (x * T[:lam - 1, lam - 1]
                                - b[:, None] * T[:lam - 1, lam - 2])
    return T


def harmonic_deviation_by_point_table(model, grid) -> float:
    """max |G - I| of the Gram matrix ``sum_n w_n Y_n Y_n^T`` of the whole
    (sum d_lam, N) table ``model.harmonics(grid.points)`` (the row route
    for qubits): the dense route ``verify`` took before the models
    declared ``harmonic_deviation``."""
    ally = model.harmonics(grid.points)
    ally *= np.sqrt(grid.weights)  # quadrature weights are > 0
    gram = ally @ ally.T
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.max(np.abs(gram)))


def _kron_rows(table: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """(R, m**n) rows ``table[digits[r, 0]] (x) ... (x) table[digits[r,
    n - 1]]``, Kronecker products of rows of one (4, m) table."""
    rows = np.ones((len(digits), 1))
    for q in reversed(range(digits.shape[1])):  # the long axis innermost
        rows = (table[digits[:, q], :, None] * rows[:, None]).reshape(
            len(rows), -1)
    return rows


def harmonic_deviation_by_kronecker_gram(model, grid) -> float:
    """max |G - I| of a qubit model's whole Gram matrix G on a product grid
    (a one-sphere grid is its own ``factor``): the Kronecker power of the
    4 x 4 Gram matrix of one qubit's rows ``_factor_harmonics``, built
    ``TABLE_BYTES`` of rows at a time, rows and columns in the order of
    ``harmonics``."""
    factor = grid if grid.factor is None else grid.factor
    h = model._factor_harmonics(model._factor_nodes(grid.points, factor))
    g = (h * factor.weights) @ h.T
    x, z, _ = map(np.concatenate,
                  zip(*map(model.sector_words, model.labels())))
    q = np.arange(model.n)
    digits = (x[:, None] >> q & 1) + 2 * (z[:, None] >> q & 1)
    index = digits @ 4 ** q[::-1]
    out = np.empty((len(digits), len(digits)))
    step = max(1, TABLE_BYTES // (8 * model.dim ** 2))
    for lo in range(0, len(digits), step):
        # Columns come out in word-index order; ``index`` sorts them
        # into the label order of the rows.
        np.take(_kron_rows(g, digits[lo:lo + step]), index, axis=1,
                out=out[lo:lo + step], mode="clip")
    out[np.diag_indices_from(out)] -= 1.0
    return float(np.max(np.abs(out, out=out)))


def tuple_product_grid(nspheres: int, band: float):
    """The product grid built node by node: the Gauss-Legendre x
    uniform-phi rule's (theta, phi) pairs zipped from a ravelled meshgrid,
    ``itertools.product`` of them over the spheres, and each node's weight
    ``math.prod(start=1.0)`` of its spheres' weights; read back as an (N,
    nspheres, 2) points array and an (N,) weights array."""
    ntheta, nphi = math.ceil(2 * band + 1), math.ceil(4 * band + 2)
    x, wx = gauss_legendre(ntheta)
    th, ph = np.meshgrid(np.arccos(x), 2 * math.pi * np.arange(nphi) / nphi,
                         indexing="ij")
    pairs = list(zip(th.ravel(), ph.ravel()))
    w = np.repeat(wx / (2 * nphi), nphi)
    chain = itertools.chain.from_iterable
    nodes = itertools.product(pairs, repeat=nspheres)
    points = np.fromiter(chain(chain(nodes)), float)
    weights = np.fromiter((math.prod(ws, start=1.0) for ws in
                           itertools.product(w, repeat=nspheres)), float)
    return points.reshape(-1, nspheres, 2), weights


def adjoint_matrix(model, lam, g) -> np.ndarray:
    """Conjugation action of a group element on one sector basis."""
    U = model.group_unitary(g)
    block = model.irrep_block(lam)
    rotated = np.einsum("ab,jbc,dc->jad", U, block.basis, U.conj())
    return np.real(np.einsum("kab,jab->jk", block.basis.conj(), rotated))


def harmonic_via_adjoint(model, lam, point) -> np.ndarray:
    """All Y^lam_j at a point through the adjoint-representation route."""
    tau = model.tau(lam)
    if tau == 0:
        raise ValueError(f"sector {lam} has no harmonics (tau = 0)")
    hw = model.hw_state()
    hw_overlap = np.real(hw.conj() @ model.irrep_block(lam).basis @ hw)
    phi = adjoint_matrix(model, lam, model.point_as_group(point))
    return (hw_overlap @ phi) / math.sqrt(tau)


def star_kernel(model, s_triple, p1, p2, p3) -> complex:
    """Integral kernel of the twisted product, a three-kernel trace."""
    s1, s2, s3 = s_triple
    a = sw_kernel(model, p1, KernelSpec.cahill_glauber(s1))
    b = sw_kernel(model, p2, KernelSpec.cahill_glauber(-s2))
    c = sw_kernel(model, p3, KernelSpec.cahill_glauber(-s3))
    return complex(np.trace(a @ b @ c))


def star_kernel_factored(model, s_triple, p1, p2, p3) -> complex:
    """Same kernel assembled from sector factors and basis triple traces.

    The kernel separates into tau powers ``tau1**(-s1/2) tau2**(s2/2)
    tau3**(s3/2)`` times structure constants Tr[D_j1 D_j2 D_j3] times a
    product of harmonics at the three points.
    """
    s1, s2, s3 = s_triple
    harm = harmonic_matrix(model, [p1, p2, p3])
    labels = list(harm)
    y1, y2, y3 = ({lam: H[:, k] for lam, H in harm.items()} for k in range(3))
    acc = 0j
    for l1 in labels:
        b1 = model.irrep_block(l1).basis
        t1 = model.tau(l1) ** (-s1 / 2)
        for l2 in labels:
            b2 = model.irrep_block(l2).basis
            t2 = model.tau(l2) ** (s2 / 2)
            for l3 in labels:
                b3 = model.irrep_block(l3).basis
                t3 = model.tau(l3) ** (s3 / 2)
                C = np.einsum("iab,jbc,kca->ijk", b1, b2, b3)
                acc += t1 * t2 * t3 * np.einsum(
                    "ijk,i,j,k->", C, y1[l1], y2[l2], y3[l3])
    return complex(acc)


# -- rendering -----------------------------------------------------------------
def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qrt", choices=("spin", "multipartite", "fermionic"),
                   default="spin")
    p.add_argument("--spin-S", default="2", help="spin label, e.g. 2 or 5/2")
    p.add_argument("--n", type=int, default=2, help="qubit/mode count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")


@functools.cache  # parse_args leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sweyl",
        description="Sector purities and phase-space filters for "
                    "spin, multi-qubit and fermionic resource theories.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("purities", help="sector purity tables for states")
    _add_common(pp)
    pp.add_argument("--state", action="append", default=None,
                    help="hw | ghz | haar | m=<value> (repeatable)")
    pp.add_argument("--s", action="append", type=float, default=None,
                    help="ordering parameter (repeatable)")
    pp.add_argument("--format", choices=("csv", "json"), default="csv")

    pf = sub.add_parser("phasespace", help="field heatmaps and tables")
    _add_common(pf)
    pf.add_argument("--state", action="append", default=None)
    pf.add_argument("--s", action="append", type=float, default=None)
    pf.add_argument("--grid", default="64x128", help="NthetaxNphi")
    pf.add_argument("--projection", choices=("equirect", "robinson"),
                    default="equirect")

    pd = sub.add_parser("duality", help="Haar-average duality Monte Carlo")
    _add_common(pd)
    pd.add_argument("--s", action="append", type=float, default=None)
    pd.add_argument("--samples", type=int, default=2000)

    pstar = sub.add_parser("star", help="twisted-product consistency check")
    _add_common(pstar)
    pstar.add_argument("--s", action="append", type=float, default=None)
    pstar.add_argument("--points", type=int, default=20)

    pv = sub.add_parser("verify", help="run the invariant check suite")
    _add_common(pv)
    pv.add_argument("--quad-tol", type=float, default=1e-8,
                    help="tolerance for quadrature-mediated checks")
    return p



def purities_by_state(argv) -> None:
    """The ``purities`` command one state at a time: one ``purity_spectrum``
    and one ``phase_purity`` per state and s, a list per row, and the
    whole document through ``json.dump``."""
    args = _parser().parse_args(argv)
    model = cli._model(args)
    model.check_sector_size()
    states = args.state or ["hw"]
    svals = args.s if args.s else [-1.0, 0.0, 1.0]
    rows = []
    for sel in states:
        psi = model.named_state(sel, seed=args.seed)
        spectrum = gfd.purity_spectrum(np.outer(psi, psi.conj()), model)
        for s in svals:
            filtered = gfd.phase_purity(spectrum, s, model)
            for lam in model.labels():
                rows.append([
                    model.kind, cli._state_label(sel), s,
                    model.sector_name(lam), float(model.irrep_dim(lam)),
                    model.tau(lam), spectrum[lam], filtered[lam],
                ])
    os.makedirs(args.out, exist_ok=True)
    header = ["model", "state", "s", "sector", "dim", "tau",
              "purity", "phase_purity"]
    if args.format == "json":
        doc = {
            "config": cli._config(args, states=states, s=svals),
            "rows": [dict(zip(header, r)) for r in rows],
            "seed": args.seed,
        }
        with open(os.path.join(args.out, "purities.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        render.write_csv(os.path.join(args.out, "purities.csv"),
                         header, comments=[f"seed={args.seed}"],
                         columns=list(zip(*rows)))


def template_write_csv(path, header, comments=(), *, columns):
    """``render.write_csv`` with every float cell formatted by one ``%``
    template over the whole table."""
    text = [len(c) > 0 and isinstance(c[0], str) for c in columns]
    cols = [c if t else np.asarray(c, dtype=float).tolist()
            for c, t in zip(columns, text)]
    template = ",".join("%s" if t else "%.17g" for t in text) + "\n"
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header) + "\n")
    body = template * len(cols[0]) % tuple(itertools.chain.from_iterable(
        zip(*cols)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write(body)


def template_grid_cells(theta, phi):
    """``render.grid_cells`` as str cells, each ``"%.17g,%.17g"``."""
    return ["%.17g,%.17g" % (t, p) for t in theta for p in phi]


def template_write_ppm(path, rgb, comments=()):
    """``render.write_ppm`` through one ``%d`` template over all pixels."""
    rgb = np.asarray(rgb)
    h, w, _ = rgb.shape
    lines = ["P3"] + [f"# {c}" for c in comments] + [f"{w} {h}", "255\n"]
    body = "%d %d %d\n" * (h * w) % tuple(rgb.reshape(-1).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write(body)


def template_write_json(path, doc, key=None, header=(), columns=()):
    """``render.write_json`` with every float cell through
    ``float.__repr__`` (``json.dumps`` when not finite) and the rows
    through one ``%`` template."""
    text = json.dumps(doc if key is None else {**doc, key: []}, indent=2,
                      sort_keys=True)
    if key is not None and columns and len(columns[0]):
        cells = []
        for c in columns:
            if isinstance(c[0], str):
                cells.append(map(json.encoder.encode_basestring_ascii, c))
                continue
            vals = np.asarray(c, dtype=float)
            text_vals = list(map(float.__repr__, vals.tolist()))
            for i in np.flatnonzero(~np.isfinite(vals)):
                text_vals[i] = json.dumps(float(vals[i]))
            cells.append(text_vals)
        order = sorted(range(len(header)), key=header.__getitem__)
        row = ",\n".join("      " + json.dumps(header[i]).replace("%", "%%")
                          + ": %s" for i in order)
        body = ",\n".join(["    {\n" + row + "\n    }"] * len(columns[0]))
        table = body % tuple(itertools.chain.from_iterable(
            zip(*(cells[i] for i in order))))
        start = f"\n  {json.dumps(key)}: ["
        text = text.replace(start + "]", f"{start}\n{table}\n  ]", 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def read_csv(path):
    """Read back a CSV written by write_csv: (header, list of row lists)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    lines = [ln for ln in lines if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# -- coherent-state fidelity ---------------------------------------------------

def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def coherent_fidelity_pointwise(model, psi) -> float:
    """Coherent fidelity from one ``coherent_state`` at a time: the coarse
    scan of ``gfd.coherent_fidelity``, then coordinate-wise golden-section
    refinement down to 1e-6 radians, the route ``gfd`` took before its
    compass search over batches."""
    psi = np.asarray(psi, dtype=complex)
    nspheres = model.nspheres
    if not nspheres:
        raise ValueError("coherent fidelity needs a spherical phase space")
    angle_tol = 1e-6  # radians

    def overlap(coords) -> float:
        point = tuple((coords[2 * k], coords[2 * k + 1]) for k in range(nspheres))
        amp = np.vdot(model.coherent_state(point), psi)
        return float(np.abs(amp) ** 2)

    ntheta, nphi = 64, 128  # coarse scan per sphere
    thetas = (np.arange(ntheta) + 0.5) * math.pi / ntheta
    phis = np.arange(nphi) * 2 * math.pi / nphi

    best, best_coords = -1.0, None
    if nspheres == 1:
        for th in thetas:
            for ph in phis:
                val = overlap((th, ph))
                if val > best:
                    best, best_coords = val, [th, ph]
    else:
        # Coordinate-wise coarse sweeps from a few deterministic starts.
        starts = [[math.pi / 2, 0.0] * nspheres]
        rng = np.random.default_rng(7)
        for _ in range(4):
            starts.append(list(np.concatenate(
                [[math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)]
                 for _ in range(nspheres)])))
        for coords in starts:
            coords = list(coords)
            for _ in range(6):
                for k in range(2 * nspheres):
                    grid = thetas if k % 2 == 0 else phis
                    vals = []
                    for gval in grid:
                        coords[k] = gval
                        vals.append(overlap(coords))
                    coords[k] = grid[int(np.argmax(vals))]
            val = overlap(coords)
            if val > best:
                best, best_coords = val, list(coords)

    # Golden-section refinement, coordinate by coordinate.
    spans = []
    for k in range(2 * nspheres):
        step = (math.pi / ntheta) if k % 2 == 0 else (2 * math.pi / nphi)
        spans.append(2 * step)
    coords = list(best_coords)
    for _ in range(30):
        moved = 0.0
        for k in range(2 * nspheres):
            lo = coords[k] - spans[k]
            hi = coords[k] + spans[k]

            def slice_f(x, k=k):
                trial = list(coords)
                trial[k] = x
                return overlap(trial)

            x, _ = _golden_max(slice_f, lo, hi, angle_tol / 4)
            moved = max(moved, abs(x - coords[k]))
            coords[k] = x
            spans[k] = max(spans[k] / 2, 8 * angle_tol)
        if moved < angle_tol:
            break
    return overlap(coords)


# -- admission estimates: the formulas each command held before the models
# declared their costs -------------------------------------------------------

_TABLE_BYTES = 4 * 2**20  # models.TABLE_BYTES when these were written


def phasespace_bytes_by_spin_formula(ntheta, nphi, dim, nsvals, model_dim,
                                     nstates) -> int:
    """``phasespace`` bytes, the spin's CG table and ring chunks priced at
    the dimension of whatever target draws the fields."""
    sums = 16 * (2 * dim - 1) * nstates * nsvals  # per theta
    return (4 * dim ** 3 + 3 * sums * dim + 32 * nphi * (2 * dim - 1)
            + 4 * sums * min(ntheta, max(1, _TABLE_BYTES // sums))
            + ntheta * nphi * (16 * nstates * nsvals + 184)
            + nstates * model_dim * model_dim * 16)


def verify_bytes_by_geometry(model) -> int:
    """``verify.dense_bytes``, branching on the declared geometry."""
    from sweyl.phase_space import default_grid_size
    d, nodes, first = model.dim, default_grid_size(model), 2 ** 19
    if model.band is None:
        return first + 16 * d * d * 16
    if model.nspheres > 1:
        gram = 8 * d ** 4
        return (first + gram + 2 * min(gram, _TABLE_BYTES)
                + nodes * (16 * model.nspheres + 8 + 40 * 16))
    return first + 16 * d ** 4 + 40 * d * d * nodes


def star_work_by_d_cubed(model, points: int, nsvals: int) -> int:
    """``star`` work: d**3 + 2 10**4 units per point and ``--s``."""
    return points * nsvals * (model.dim ** 3 + 2 * 10 ** 4)


def duality_work_by_pauli_formula(model, nsamples: int) -> int:
    """``duality`` work: 4 d**2 log2(d) units per sample for every model,
    rounded up once from log2(d)'s exact ratio."""
    num, den = math.log2(model.dim).as_integer_ratio()
    return -(-4 * nsamples * model.dim ** 2 * num // den)
