"""Group-Fourier purity spectra of operators and their phase-space images.

The purity spectrum of an operator A collects, per irreducible sector, the
squared lengths of its components: ``P_lam(A) = sum_j |<D_j, A>|^2``.  The
spectrum is invariant under symmetry-group conjugation and sums to the
Hilbert-Schmidt norm of A.  ``purity_spectrum`` takes dense operators, one
or a stack, and reads them through the model's ``sector_purities``.
Phase-space filters scale each sector by ``tau_lam**(-s)``; several exact
and statistical identities tested here follow from that structure.  The
Haar duality Monte Carlo (``duality_check``) stays in that coefficient
space: one pass of samples, whose sector purities serve every s, and no
phase-space grid.  A sample is rank one, so its purities come from the model's
``pure_state_purities``: for a spin the CG rows against the diagonal
products of psi, for qubits subsystem purities by Moebius inversion,
neither forming psi psi^H; fermions keep the operator route
(``QrtModel.state_purities``), which ``purities`` of named states also takes.
``coherent_fidelity``, the peak of the s = -1 field, reads every value
from batches of ``coherent_states``: a grid scan, then a compass search.
"""

from __future__ import annotations

import math

import numpy as np

from .clebsch import HalfInt, clebsch_gordan
from .models import QrtModel, admit


class PuritySpectrum:
    """Sector purities of an operator or of a stack: ``values[..., i]`` is
    sector ``labels[i]``, ``spec[label]`` a float or an array."""

    __slots__ = ("labels", "values")

    def __init__(self, labels: list, values: np.ndarray):
        self.labels = labels
        self.values = values

    def __getitem__(self, label):
        v = self.values[..., self.labels.index(label)]
        return v if v.ndim else float(v)

    @property
    def total(self) -> float:
        return float(sum(self.values.tolist()))  # in label order


def purity_spectrum(A, model: QrtModel) -> PuritySpectrum:
    """Purity spectrum of a dense operator, one (d, d) operator or a (K,
    d, d) stack, through the model's ``sector_purities`` (banded CG
    diagonals for a spin, the fast Pauli transform for qubits and
    fermions), giving (L,) or (K, L) values."""
    return PuritySpectrum(model.labels(), model.sector_purities(np.asarray(A)))


def gfd_project(A: np.ndarray, model: QrtModel, label) -> np.ndarray:
    """Component of A in one sector: ``operators(weights(A))`` with the
    weights kept on that sector's coefficients only; no dense block."""
    b = model.weights(np.asarray(A))
    b[..., model.coefficient_sectors() != model.labels().index(label)] = 0.0
    return model.operators(b)


def closed_form_spin_purity(S, m, lam: int) -> float:
    """P_lam(|S,m><S,m|) for the spin model: a squared CG coefficient."""
    S = HalfInt.of(S)
    m = HalfInt.of(m)
    return clebsch_gordan(S, m, S, -m, HalfInt(2 * lam), 0) ** 2


def filter_factors(model: QrtModel, s: float) -> np.ndarray:
    """(L,) phase-space filter ``tau_lam**(-s)`` in ``labels()`` order, 0
    where tau = 0 (no phase-space image).  Each factor is a Python float
    power, which may round apart from ``np.power`` in the last bit, and a
    factor past the float range raises OverflowError."""
    return np.array([t ** -s if t > 0 else 0.0 for t in model.taus.tolist()])


def phase_purity(spectrum: PuritySpectrum, s: float, model: QrtModel) -> PuritySpectrum:
    """Purity spectrum of the s-filtered phase-space image.

    Sectors with tau = 0 (fermionic odd sectors) do not map to phase space
    and come out exactly zero.
    """
    return PuritySpectrum(spectrum.labels,
                          spectrum.values * filter_factors(model, s))


def kernel_spectrum(model: QrtModel, s: float) -> PuritySpectrum:
    """Purity spectrum of the s-kernel at every point: tau**(-s) d_lam."""
    dims = np.array([model.irrep_dim(lam) for lam in model.labels()])
    return PuritySpectrum(model.labels(), filter_factors(model, s) * dims)


def kernel_purity(model: QrtModel, lam, s: float) -> float:
    """Sector purity of the s-kernel: tau**(-s) * d_lam, point-independent."""
    return kernel_spectrum(model, s)[lam]


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
    factors = filter_factors(model, s)[model.taus > 0].tolist()
    purity = 1.0 if rho is None else float(np.real(np.trace(rho @ rho)))
    return min(factors) * purity, max(factors) * purity


# -- statistical duality ------------------------------------------------------

_DUALITY_CHUNK = 256  # Haar samples per generator


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


class DualityRow:
    """Per-sector comparison of Haar-averaged filtered purity with its dual."""

    __slots__ = ("s", "label", "lhs_mean", "lhs_se", "rhs", "zscore",
                 "trivial")

    def __init__(self, s: float, label, lhs_mean: float, lhs_se: float,
                 rhs: float, zscore: float, trivial: bool):
        self.s = s
        self.label = label
        self.lhs_mean = lhs_mean
        self.lhs_se = lhs_se
        self.rhs = rhs
        self.zscore = zscore
        self.trivial = trivial


def duality_check(model: QrtModel, svals, nsamples: int,
                  seed: int) -> list[DualityRow]:
    """Monte-Carlo check of the Haar-average duality between s and s+1.

    For non-trivial sectors the Haar mean of the filtered purity at s of a
    random pure state equals the filtered purity of the highest-weight
    state at s+1 divided by d(d+1).  The trivial sector is deterministic
    (every pure state gives exactly d**(s-1)); its row reports that exact
    value as rhs.  One pass of ``haar_chunks`` serves every s in
    ``svals``: the filtered purity at s is ``filter_factors`` times the
    sample's sector purity, read chunk by chunk through the model's
    rank-one route ``pure_state_purities`` and priced by its
    ``purity_work``.
    The filter scales mean, standard error and rhs alike, so z is taken
    once per sector (at s = 0) and is the same in every s row.  Rows are
    ordered by s, then sector.  ``models.admit`` weighs the run before
    any sample is drawn.
    """
    if nsamples < 2:
        raise ValueError("need at least two samples")
    labels, d = model.labels(), model.dim
    admit(f"duality of {nsamples} samples at d={d}",
          work=model.purity_work(nsamples))
    # Moments of the samples shifted by each sector's first sample, so a
    # (near-)constant sector, such as the trivial one, has a variance at
    # the rounding level of its spread, not of its mean squared.
    shift, sums, sqsums = None, 0.0, 0.0
    for chunk in haar_chunks(d, nsamples, seed):
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
    hw_spectrum = purity_spectrum(np.outer(hw, hw.conj()), model)
    trivial = [lam == model.trivial_label for lam in labels]

    def sector_rows(s):  # (label, mean, se, rhs, trivial) per sector
        f = filter_factors(model, s)
        rhs = phase_purity(hw_spectrum, s + 1, model).values / (d * (d + 1))
        rhs[trivial] = float(d) ** (s - 1)
        return zip(labels, (f * mean).tolist(), (f * se).tolist(),
                   rhs.tolist(), trivial)

    zs = [(m - r) / e if e > 0 else 0.0 if abs(m - r) < 1e-12 else math.inf
          for _, m, e, r, _ in sector_rows(0.0)]
    return [DualityRow(s, lam, m, e, r, z, trivial)
            for s in svals
            for (lam, m, e, r, trivial), z in zip(sector_rows(s), zs)]


# -- coherent-state fidelity --------------------------------------------------

def coherent_fidelity(model: QrtModel, psi: np.ndarray) -> float:
    """Largest squared overlap of psi with the coherent-state family.

    Every value is the best row of one batch of ``coherent_states``.  A
    coarse scan of a 64 x 128 (theta, phi) grid per sphere (on several
    spheres, six coordinate sweeps from each of five fixed starts) finds
    the start of a compass search (Kolda, Lewis & Torczon, SIAM Rev. 45,
    385 (2003)): per coordinate, 9 points across +-span, the best kept, and
    the span halved only when the sweep did not improve the value, until
    every span is under 1e-7 radians, or for at most 100 rounds.
    """
    psi = np.asarray(psi, dtype=complex)
    nspheres = model.nspheres
    if not nspheres:
        raise ValueError("coherent fidelity needs a spherical phase space")
    ntheta, nphi = 64, 128  # coarse scan per sphere
    thetas = (np.arange(ntheta) + 0.5) * math.pi / ntheta
    phis = np.arange(nphi) * 2 * math.pi / nphi

    def best_of(trial):  # (value, coordinates) of a batch's first best row
        amps = model.coherent_states(trial.reshape(len(trial), nspheres, 2))
        vals = np.abs(amps.conj() @ psi) ** 2
        i = int(np.argmax(vals))
        return float(vals[i]), trial[i]

    def sweep(coords, k, values):  # coordinate k over values, one batch
        trial = np.tile(coords, (len(values), 1))
        trial[:, k] = values
        return best_of(trial)

    if nspheres == 1:
        best, coords = best_of(np.stack(
            [np.repeat(thetas, nphi), np.tile(phis, ntheta)], axis=1))
    else:
        rng = np.random.default_rng(7)
        starts = [[math.pi / 2, 0.0] * nspheres] + [
            [x for _ in range(nspheres) for x in (
                math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))]
            for _ in range(4)]
        best = -1.0
        for start in starts:
            trial = np.array(start)
            for _ in range(6):
                for k in range(2 * nspheres):
                    val, trial = sweep(trial, k, phis if k % 2 else thetas)
            if val > best:
                best, coords = val, trial

    spans = np.array([2 * math.pi / ntheta, 4 * math.pi / nphi] * nspheres)
    offsets = np.linspace(-1.0, 1.0, 9)
    for _ in range(100):  # rounds of one sweep per coordinate
        if spans.max() < 1e-7:
            break
        for k in range(2 * nspheres):
            val, row = sweep(coords, k, coords[k] + spans[k] * offsets)
            if val > best:
                best, coords = val, row
            else:
                spans[k] /= 2
    return best
