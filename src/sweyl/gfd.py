"""Group-Fourier purity spectra of operators and their phase-space images.

The purity spectrum of an operator A collects, per irreducible sector, the
squared lengths of its components: ``P_lam(A) = sum_j |<D_j, A>|^2``.  The
spectrum is invariant under symmetry-group conjugation and sums to the
Hilbert-Schmidt norm of A.  Phase-space filters scale each sector by
``tau_lam**(-s)``; several exact and statistical identities tested here
follow from that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clebsch import HalfInt, clebsch_gordan
from .models import QrtModel
from .paulis import PauliString, PauliSum


@dataclass
class PuritySpectrum:
    """Sector-indexed purities of an operator."""

    entries: dict

    def __getitem__(self, label) -> float:
        return self.entries[label]

    @property
    def total(self) -> float:
        return float(sum(self.entries.values()))

    def as_array(self, labels) -> np.ndarray:
        return np.array([self.entries[lam] for lam in labels])


def purity_spectrum(A, model: QrtModel) -> PuritySpectrum:
    """Purity spectrum of an operator, dense or Pauli-sum represented.

    Dense input goes through the model's ``sector_purities`` (banded CG
    diagonals for spin, dense sector bases otherwise).  PauliSum input
    (qubit models only) reduces to coefficient reads through the model's
    ``sector_of``, valid at any supported n.
    """
    if isinstance(A, PauliSum):
        return _purity_spectrum_pauli(A, model)
    return PuritySpectrum(model.sector_purities(np.asarray(A)))


def _purity_spectrum_pauli(A: PauliSum, model: QrtModel) -> PuritySpectrum:
    if model.dim != 2 ** A.n:
        raise ValueError("qubit counts differ")
    model.sector_of(PauliString.identity(A.n))  # a spin refuses every word
    entries = {lam: 0.0 for lam in model.labels()}
    scale = 2 ** A.n  # |<P/sqrt(2^n), A>|^2 = |a_P|^2 2^n
    for ps, coeff in A.strings():
        entries[model.sector_of(ps)] += abs(coeff) ** 2 * scale
    return PuritySpectrum(entries)


def gfd_project(A: np.ndarray, model: QrtModel, label) -> np.ndarray:
    """Component of A in one sector."""
    return model.irrep_block(label).project(np.asarray(A))


def closed_form_spin_purity(S, m, lam: int) -> float:
    """P_lam(|S,m><S,m|) for the spin model: a squared CG coefficient."""
    S = HalfInt.of(S)
    m = HalfInt.of(m)
    return clebsch_gordan(S, m, S, -m, HalfInt(2 * lam), 0) ** 2


def phase_purity(spectrum: PuritySpectrum, s: float, model: QrtModel) -> PuritySpectrum:
    """Purity spectrum of the s-filtered phase-space image.

    Sectors with tau = 0 (fermionic odd sectors) do not map to phase space
    and come out exactly zero.
    """
    entries = {}
    for lam in model.labels():
        tau = model.tau(lam)
        entries[lam] = spectrum.entries[lam] * tau ** (-s) if tau > 0 else 0.0
    return PuritySpectrum(entries)


def kernel_purity(model: QrtModel, lam, s: float) -> float:
    """Sector purity of the s-kernel: tau**(-s) * d_lam, point-independent."""
    tau = model.tau(lam)
    if tau == 0:
        return 0.0
    return tau ** (-s) * model.irrep_dim(lam)


def haar_mean_purity(model: QrtModel, lam) -> float:
    """Mean sector purity of a Haar-random pure state.

    Exactly 1/d on the trivial sector (deterministically, for every pure
    state) and d_lam / (d (d+1)) on non-trivial sectors.
    """
    if lam == model.trivial_label:
        return 1.0 / model.dim
    return model.irrep_dim(lam) / (model.dim * (model.dim + 1))


def markov_bound(model: QrtModel, lam, a: float) -> float:
    """Markov tail bound Pr[P_lam(psi) >= a] <= d_lam / (a d (d+1)).

    Valid on non-trivial sectors, where the Haar mean purity is
    d_lam / (d (d+1)); the trivial-sector purity of a pure state is the
    constant 1/d and admits no non-trivial tail bound.
    """
    if a <= 0:
        raise ValueError("threshold must be positive")
    if lam == model.trivial_label:
        raise ValueError("Markov bound applies to non-trivial sectors only")
    return model.irrep_dim(lam) / (a * model.dim * (model.dim + 1))


def s_flow_generator(model: QrtModel, lam) -> float:
    """d/ds log of the filtered sector purity: -ln(tau_lam)."""
    tau = model.tau(lam)
    if tau == 0:
        raise ValueError(f"sector {lam} has tau = 0 and no phase-space image")
    return -math.log(tau)


def norm_bounds(model: QrtModel, s: float, rho: np.ndarray | None = None):
    """Bounds on the squared field norm ||F_rho(., s)||^2.

    Returns ``(lo, hi) = (min, max over tau > 0 sectors of tau**(-s))``
    times Tr[rho^2] (1.0 when rho is omitted, i.e. any pure state).
    """
    taus = [model.tau(lam) for lam in model.labels()]
    taus = [t for t in taus if t > 0]
    factors = [t ** (-s) for t in taus]
    purity = 1.0 if rho is None else float(np.real(np.trace(rho @ rho)))
    return min(factors) * purity, max(factors) * purity


# -- statistical duality ------------------------------------------------------

_DUALITY_CHUNK = 256  # Haar samples per generator and batched contraction


def haar_chunks(dim: int, nsamples: int, seed: int):
    """Haar-random pure states, ``_DUALITY_CHUNK`` at a time.

    Chunk c of k states comes from one draw
    ``default_rng([seed, c]).normal(size=(k, 2, dim))``: real and
    imaginary parts of each Gaussian vector, normalized.  Yields complex
    (k, dim) arrays.
    """
    for c, lo in enumerate(range(0, nsamples, _DUALITY_CHUNK)):
        k = min(_DUALITY_CHUNK, nsamples - lo)
        g = np.random.default_rng([seed, c]).normal(size=(k, 2, dim))
        psi = g[:, 0] + 1j * g[:, 1]
        yield psi / np.linalg.norm(psi, axis=1, keepdims=True)


@dataclass
class DualityRow:
    """Per-sector comparison of Haar-averaged filtered purity with its dual."""

    label: object
    lhs_mean: float
    lhs_se: float
    rhs: float
    zscore: float
    trivial: bool


def duality_check(model: QrtModel, s: float, nsamples: int, seed: int,
                  grid=None) -> list[DualityRow]:
    """Monte-Carlo check of the Haar-average duality between s and s+1.

    For non-trivial sectors the Haar mean of the filtered purity at s of a
    random pure state equals the filtered purity of the highest-weight
    state at s+1 divided by d(d+1).  The trivial sector is deterministic
    (every pure state gives exactly d**(s-1)); its row reports that exact
    value as rhs.  Both sides are evaluated through phase-space quadrature,
    with the samples drawn by ``haar_chunks``.
    """
    if nsamples < 2:
        raise ValueError("need at least two samples")
    from . import phase_space as _ps

    if grid is None:
        grid = _ps.default_grid(model)
    labels = model.labels()
    stack = _ps.kernel_stack(model, grid.points, _ps.KernelSpec.cahill_glauber(s))
    harm = _ps.harmonic_matrix(model, grid.points)
    w = np.asarray(grid.weights)

    # The field of rho is F_n = Tr[K_n rho] = vec(K_n) . vec(rho^T), so the
    # sector components H_lam (w * F) are vec(rho^T) @ coeff[lam]; no
    # per-node field is ever formed.
    flat = stack.reshape(len(w), -1).T
    coeff = {lam: flat @ (w[:, None] * H.T) for lam, H in harm.items()}

    # Moments of the samples shifted by each sector's first sample, so a
    # (near-)constant sector, such as the trivial one, has a variance at
    # the rounding level of its spread, not of its mean squared.
    shift = {lam: 0.0 for lam in labels}
    sums = {lam: 0.0 for lam in labels}
    sqsums = {lam: 0.0 for lam in labels}
    for chunk, psi in enumerate(haar_chunks(model.dim, nsamples, seed)):
        rho_t = (psi.conj()[:, :, None] * psi[:, None, :]).reshape(len(psi), -1)
        for lam, C in coeff.items():
            vals = np.sum(np.abs(rho_t @ C) ** 2, axis=1)
            if chunk == 0:
                shift[lam] = float(vals[0])
            vals -= shift[lam]
            sums[lam] += float(np.sum(vals))
            sqsums[lam] += float(vals @ vals)

    hw = model.hw_state()
    hw_field = _ps.symbol_field(model, np.outer(hw, hw.conj()), grid,
                                _ps.KernelSpec.cahill_glauber(s + 1)).values

    rows = []
    d = model.dim
    for lam in labels:
        offset = sums[lam] / nsamples
        mean = shift[lam] + offset
        var = max(0.0, sqsums[lam] / nsamples - offset ** 2)
        se = math.sqrt(var / (nsamples - 1))
        trivial = lam == model.trivial_label
        if trivial:
            rhs = float(d) ** (s - 1)
        elif lam in harm:
            comps = harm[lam] @ (w * hw_field)
            rhs = float(np.sum(np.abs(comps) ** 2)) / (d * (d + 1))
        else:
            rhs = 0.0
        if se > 0:
            z = (mean - rhs) / se
        else:
            z = 0.0 if abs(mean - rhs) < 1e-12 else math.inf
        rows.append(DualityRow(lam, mean, se, rhs, z, trivial))
    return rows


# -- coherent-state fidelity --------------------------------------------------

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


def coherent_fidelity(model: QrtModel, psi: np.ndarray) -> float:
    """Largest squared overlap of psi with the coherent-state family.

    Scans a coarse (theta, phi) grid (per sphere), then refines by
    coordinate-wise golden-section search down to 1e-6 radians.
    """
    psi = np.asarray(psi, dtype=complex)
    nspheres = model.nspheres
    if not nspheres:
        raise ValueError("coherent fidelity needs a spherical phase space")
    angle_tol = 1e-6  # radians

    def overlap(coords) -> float:
        point = tuple((coords[2 * k], coords[2 * k + 1]) for k in range(nspheres))
        if not model.sphere_tuples:
            point = point[0]
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
