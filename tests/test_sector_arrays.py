"""Sector data as (..., L) arrays in ``labels()`` order, bit for bit
against the label-by-label dict routes of ``tests/oracles.py``.

Every ``tau**(-s)`` comes from ``gfd.filter_factors``, a Python float
power per sector: ``np.power`` rounds apart from it in the last bit on
some (tau, s) pairs, which would move the bytes of ``purities`` tables.
"""

import numpy as np
import pytest

from sweyl import gfd, phase_space as ps
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel

from oracles import (center_factor_per_label, duality_rows_per_label,
                     kernel_purity_per_label, phase_purity_entries,
                     purities_factors)

MODELS = ([SpinModel(HalfInt(t)) for t in (1, 8, 45, 200)]
          + [MultipartiteModel(n) for n in (1, 3, 5)]
          + [FermionicModel(n) for n in (2, 4)])  # fermions: tau = 0 sectors
SVALS = [-1.0, -0.37, 0.5, 1.0]


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _spectra(model):
    """Spectra of hw, ghz and two Haar states, one (4, L) stack."""
    psi = np.stack([model.hw_state(), model.ghz_state(),
                    model.haar_state(1), model.haar_state(2)])
    return gfd.purity_spectrum(psi[:, :, None] * psi.conj()[:, None, :], model)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_phase_purity_matches_the_dict_loop(model):
    spec = _spectra(model)
    assert spec.values.shape == (4, len(model.labels()))
    for k in range(4):
        one = gfd.PuritySpectrum(spec.labels, spec.values[k])
        entries = {lam: one[lam] for lam in model.labels()}
        for s in SVALS:
            want = phase_purity_entries(entries, s, model)
            got = gfd.phase_purity(one, s, model)
            assert np.array_equal(_bits(got.values), _bits(list(want.values())))
            assert got.total == sum(want.values())  # in label order
    stacked = gfd.phase_purity(spec, 0.5, model).values
    for k in range(4):
        one = gfd.PuritySpectrum(spec.labels, spec.values[k])
        assert np.array_equal(_bits(stacked[k]),
                              _bits(gfd.phase_purity(one, 0.5, model).values))


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_filter_factors_match_the_per_label_routes(model):
    got = np.stack([gfd.filter_factors(model, s) for s in SVALS])
    assert np.array_equal(_bits(got), _bits(purities_factors(model, SVALS)))
    for s in SVALS:
        want = [kernel_purity_per_label(model, lam, s)
                for lam in model.labels()]
        assert np.array_equal(_bits(gfd.kernel_spectrum(model, s).values),
                              _bits(want))


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_duality_rows_match_the_per_label_rows(model):
    svals = [0.0] + SVALS
    got = gfd.duality_check(model, svals, 40, seed=5)
    want = duality_rows_per_label(model, svals, 40, seed=5)
    assert len(got) == len(want) == len(svals) * len(model.labels())
    for a, b in zip(got, want):
        assert (a.s, a.label, a.trivial) == (b.s, b.label, b.trivial)
        assert np.array_equal(_bits([a.lhs_mean, a.lhs_se, a.rhs, a.zscore]),
                              _bits([b.lhs_mean, b.lhs_se, b.rhs, b.zscore]))


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_sector_factors_match_the_per_label_center_factors(model):
    labels = model.labels()
    specs = [ps.KernelSpec.cahill_glauber(s) for s in SVALS]
    specs.append(ps.KernelSpec.generalized(
        {lam: (-1.0) ** i * (i + 0.3) for i, lam in enumerate(labels)}))
    for spec in specs:
        want = [center_factor_per_label(spec, model, lam) for lam in labels]
        assert np.array_equal(_bits(ps.sector_factors(model, spec)),
                              _bits(want))


@pytest.mark.parametrize("tS", [24, 33, 40, 45, 200])
@pytest.mark.parametrize("s", [-1.0, -0.37, 0.0, 0.5, 1.0])
def test_filter_factors_are_python_float_powers(tS, s):
    model = SpinModel(HalfInt(tS))
    want = [t ** -s for t in model.taus.tolist()]
    assert np.array_equal(_bits(gfd.filter_factors(model, s)), _bits(want))


def test_spectrum_view_reads_labels():
    model = MultipartiteModel(2)
    spec = gfd.purity_spectrum(np.eye(4) / 4, model)
    assert spec.labels == model.labels()
    assert spec[(0, 0)] == 0.25 and isinstance(spec[(0, 0)], float)
    assert spec[(1, 1)] == 0.0
    assert spec.total == 0.25
    stack = gfd.purity_spectrum(np.stack([np.eye(4) / 4] * 3), model)
    assert stack[(0, 0)].shape == (3,)
