"""Self-check suite behind the ``verify`` CLI command.

Each check evaluates one library invariant at a configurable size and
reports the observed deviation against its bound.  Linear-algebra
identities use a tight fixed tolerance; quadrature-mediated identities
use a configurable one so the suite can demonstrate failure reporting.
"""

from __future__ import annotations

import math

import numpy as np

from . import gfd, phase_space as ps
from .clebsch import HalfInt, _cg_signed_square
from .models import (FermionicModel, MultipartiteModel, QrtModel, SpinModel,
                     admit)
from .paulis import majorana, words_dense


class CheckResult:
    """One check's verdict; ``__slots__`` lists the report fields in order."""

    __slots__ = ("name", "passed", "value", "bound", "tolerance")

    def __init__(self, name: str, passed: bool, value: float, bound: float,
                 tolerance: float):
        self.name = name
        self.passed = passed
        self.value = value
        self.bound = bound
        self.tolerance = tolerance


def check(name: str, value: float, bound: float) -> CheckResult:
    """A check that passes when ``value <= bound``."""
    return CheckResult(name, bool(value <= bound), float(value), float(bound),
                       float(bound))


def make_model(qrt: str, spin_S="2", n: int = 2) -> QrtModel:
    if qrt == "spin":
        return SpinModel(HalfInt.of(spin_S))
    if qrt == "multipartite":
        return MultipartiteModel(n)
    if qrt == "fermionic":
        return FermionicModel(n)
    raise ValueError(f"unknown model kind {qrt!r}")


def _random_hermitian(dim: int, rng) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


_LIN_TOL = 1e-10  # bound of the linear-algebra identities


def duality_identity_deviation(model: QrtModel, spectrum=None) -> float:
    """Largest relative deviation of the closed-form Haar duality.

    On every non-trivial sector the Haar mean of the s-filtered purity,
    ``tau**(-s) d_lam / (d (d+1))``, equals the highest-weight purity
    filtered at s + 1, ``tau**(-s-1) P_lam(hw) / (d (d+1))``; the common
    factor 1/(d (d+1)) is dropped.  Checked at s = -1, 0, 1 with ``tau``
    from its closed form and ``P_lam(hw)`` from ``spectrum``, by default
    ``gfd.purity_spectrum`` of the highest-weight projector.
    """
    if spectrum is None:
        hw = model.hw_state()
        spectrum = gfd.purity_spectrum(np.outer(hw, hw.conj()), model)
    dev = 0.0
    for s in (-1.0, 0.0, 1.0):
        kernel = gfd.kernel_spectrum(model, s).values.tolist()
        dual = gfd.phase_purity(spectrum, s + 1, model).values.tolist()
        for lam, lhs, rhs in zip(model.labels(), kernel, dual):
            if lam == model.trivial_label:
                continue
            if lhs or rhs:
                dev = max(dev, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return dev


def dense_bytes(model: QrtModel) -> int:
    """Bytes ``run_checks`` holds at its peak: 512 KiB for a first call
    (the CG caches ``cg_normalization`` fills, about 120 KiB, and the
    report) and the larger of the model's ``harmonic_check_bytes`` on its
    default grid and 16 d x d arrays."""
    grid = model.harmonic_check_bytes(ps.default_grid_size(model))
    return 2 ** 19 + max(grid, 16 * model.dim ** 2 * 16)


def field_margin(model: QrtModel) -> float:
    """100, times (b / 53)**3 for a harmonic degree b = 2 band + 1 past 53
    (b = d for a spin): the field checks' error grows with it (over 40
    seeds at most 47 ``eps kappa**s`` at 2S = 52 and 189 at 2S = 76)."""
    return 100 * max(1.0, ((2 * (model.band or 0) + 1) / 53) ** 3)


def field_s_limit(model: QrtModel, quad_tol: float) -> float:
    """s* = ``phase_space.s_limit(model, quad_tol / field_margin(model))``
    clipped to [0, 1]: the largest |s| up to 1 at which a field's rounding
    error, about ``eps kappa**|s|`` of its maximum (``phase_space.kappa``),
    stays ``field_margin`` times under ``quad_tol``.  At the default
    ``quad_tol`` it is 1 for spins up to 2S = 17 and for every qubit and
    fermion model ``verify`` admits."""
    margin = field_margin(model)
    return max(0.0, min(1.0, ps.s_limit(model, quad_tol / margin)))


def run_checks(qrt: str = "spin", spin_S="2", n: int = 2, seed: int = 0,
               quad_tol: float = 1e-8) -> list[CheckResult]:
    """Run the invariant suite for one model; returns per-check results.

    ``models.admit`` weighs the checks first (``dense_bytes``) and
    refuses before anything is built.  The field checks (``tracing``,
    ``reconstruction``, ``standardization``, ``filter_identity``) and
    ``kernel_purity_flat`` run at s = 0 and +-s* (``field_s_limit``).
    The seeded ``tracing`` check has a thin margin at 2S = 52: over seeds
    0-199 its largest value is 6.9e-9 (seed 78) against ``quad_tol`` =
    1e-8, and no seed fails.
    """
    model = make_model(qrt, spin_S, n)
    admit(f"verify of {model!r}", dense_bytes(model))
    field_s = field_s_limit(model, quad_tol)
    rng = np.random.default_rng(seed)
    results = []

    # CG orthogonality over a small exhaustive range, on the exact
    # signed squares of twice the labels (no HalfInt per call).
    dev = 0.0
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tM in range(-tJ, tJ + 1, 2):
                    acc = 0.0
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = tM - tm1
                        if abs(tm2) > tj2:
                            continue
                        sign, num, den = _cg_signed_square(
                            tj1, tm1, tj2, tm2, tJ, tM)
                        acc += (sign * math.sqrt(num / den)) ** 2
                    dev = max(dev, abs(acc - 1.0))
    results.append(check("cg_normalization", dev, _LIN_TOL))

    # Majorana anticommutation on n modes (the model's own n for qubit
    # models, --n for a spin), clamped to 1..3.
    reg = max(1, min(n, 3))
    cs = [majorana(mu, reg) for mu in range(1, 2 * reg + 1)]
    prods = [a * b for a in cs for b in cs]  # c_mu c_nu, mu-major
    dense = words_dense(reg, [p.x for p in prods], [p.z for p in prods],
                        [p.phase for p in prods])
    dense = dense.reshape(len(cs), len(cs), 2 ** reg, 2 ** reg)
    anti = dense + dense.transpose(1, 0, 2, 3)
    anti -= 2 * np.eye(len(cs))[:, :, None, None] * np.eye(2 ** reg)
    results.append(check("majorana_anticommutation",
                         float(np.max(np.abs(anti))), _LIN_TOL))

    # Sector weights: closed form against the highest-weight purities
    # P_lam(hw) = tau d_lam, and normalization.
    hw = model.hw_state()
    spectrum = gfd.purity_spectrum(np.outer(hw, hw.conj()), model)
    dims = np.array([model.irrep_dim(lam) for lam in model.labels()])
    dev = np.max(np.abs(model.taus - spectrum.values / dims))
    results.append(check("tau_two_route", dev, _LIN_TOL))
    total = sum((dims * model.taus).tolist())
    results.append(check("tau_normalization", abs(total - 1.0), _LIN_TOL))
    results.append(check("duality_identity",
                         duality_identity_deviation(model, spectrum), _LIN_TOL))

    # Coefficient basis: weights invert operators on the weights of a
    # complex Gaussian operator (orthonormal) and on A (complete).  The
    # operator has its own generator, so rng's draws keep their order.
    G = np.random.default_rng([seed, 1]).normal(size=(2,) + (model.dim,) * 2)
    b = model.weights(G[0] + 1j * G[1])
    dev = float(np.max(np.abs(model.weights(model.operators(b)) - b)))
    results.append(check("sector_orthonormality", dev, _LIN_TOL))
    A = _random_hermitian(model.dim, rng)
    dev = float(np.max(np.abs(model.operators(model.weights(A)) - A)))
    results.append(check("sector_completeness", dev, _LIN_TOL))

    # The kernels at one random point and its coherent state, from one
    # unitary: the s = -1 kernel is the coherent projector.
    pt = model.random_point(rng)
    U = model.point_unitary(pt)
    svals = (-field_s, 0.0, field_s)
    kernel_s = tuple(dict.fromkeys((-1.0,) + svals))  # distinct s
    kernels = dict(zip(kernel_s, ps.sw_kernel(model, pt, tuple(
        ps.KernelSpec.cahill_glauber(s) for s in kernel_s), unitary=U)))
    psi = U @ model.hw_state()  # ``coherent_state(pt)``
    del U  # d x d, not held through the checks below
    dev = float(np.max(np.abs(kernels[-1.0] - np.outer(psi, psi.conj()))))
    results.append(check("husimi_projector", dev, _LIN_TOL))

    # Kernel sector purities are point-independent (scale-aware deviation).
    dev = 0.0
    for s in svals:
        got = gfd.purity_spectrum(kernels[s], model).values
        ref = gfd.kernel_spectrum(model, s).values
        dev = max(dev, np.max(np.abs(got - ref) / (1 + np.abs(ref))))
    results.append(check("kernel_purity_flat", dev, 100 * _LIN_TOL))

    # Conjugation covariance of symbols, Tr[Delta(pt) A] = ``ps.symbol``.
    g = model.random_group(rng)
    Ug = model.group_unitary(g)
    lhs = complex(np.einsum("ab,ba->", kernels[0.0], Ug.conj().T @ A @ Ug))
    rhs = ps.symbol(model, A, model.act(g, pt),
                    ps.KernelSpec.cahill_glauber(0.0))
    results.append(check("symbol_covariance", abs(lhs - rhs), 100 * _LIN_TOL))

    if model.band is None:
        # No structured quadrature (fermions): check that the odd sectors
        # have no phase-space image and stop.
        spec = gfd.purity_spectrum(kernels[0.0], model)
        dev = max(model.taus[1::2].max(), spec.values[1::2].max())
        results.append(check("odd_sector_zero", dev, 1e-20))
        return results

    # Quadrature-mediated identities (structured grids only).
    grid = ps.default_grid(model)
    w = np.asarray(grid.weights)
    # Every sector of a gridded model has tau > 0, so the Gram matrix is
    # that of all of the harmonics.
    results.append(check("harmonic_orthonormality",
                         model.harmonic_deviation(grid), quad_tol))

    # One forward pass (``symbol_field``) for [A, B, rho_-1, rho_0, rho_1]
    # at every s, and one adjoint pass (``reconstruct``) for A at each s and
    # for the rho_s fields read at s = 0, whose reconstructions' sector
    # purities are the quadrature purities of
    # ``phase_space.phase_purity_quadrature``.
    B = _random_hermitian(model.dim, rng)
    psis = [model.haar_state(rng) for _ in range(3)]
    rhos = [np.outer(psi, psi.conj()) for psi in psis]
    specs = tuple(ps.KernelSpec.cahill_glauber(s) for s in svals)
    field = ps.symbol_field(model, np.stack([A, B, *rhos]), grid, specs)
    fields = field.values.reshape(len(w), 5, 3)
    fa, fb = fields[:, 0], fields[:, 1, ::-1]  # A at s, B at -s
    fr = np.stack([fields[:, 2 + k, k] for k in range(3)], axis=1)
    back = ps.reconstruct(ps.SymbolField(model, grid, specs + specs[1:2] * 3,
                                         np.hstack([fa, fr])))
    recon, quad = back[:3], model.sector_purities(back[3:])
    dev = dev_tr = dev_rec = dev_std = 0.0
    for k, s in enumerate(svals):
        lhs = complex(np.sum(w * np.conj(fa[:, k]) * fb[:, k]))
        rhs = complex(np.trace(A.conj().T @ B))
        dev_tr = max(dev_tr, abs(lhs - rhs) / (1 + abs(rhs)))
        dev_rec = max(dev_rec, float(np.max(np.abs(recon[k] - A))))
        std = complex(np.sum(w * fa[:, k]))
        dev_std = max(dev_std, abs(std - model.dim ** ((s - 1) / 2)
                                   * np.trace(A)))
        ref = gfd.phase_purity(gfd.purity_spectrum(rhos[k], model), s,
                               model).values
        dev = max(dev, np.max(np.abs(quad[k] - ref) / (1 + np.abs(ref))))
    results.append(check("filter_identity", dev, quad_tol))
    results.append(check("tracing", dev_tr, quad_tol))
    results.append(check("reconstruction", dev_rec, quad_tol))
    results.append(check("standardization", dev_std, quad_tol))
    return results
