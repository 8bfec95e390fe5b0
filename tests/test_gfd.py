"""Sector decomposition functionals: purities, filters, bounds, duality."""

import math

import numpy as np
import pytest

from sweyl import gfd
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel

from oracles import PauliSum, from_label, majorana, word_sector_purities

H = HalfInt.of


def test_spectrum_known_values_spin1_hw():
    model = SpinModel(1)
    rho = np.outer(model.hw_state(), model.hw_state().conj())
    spec = gfd.purity_spectrum(rho, model)
    assert spec[0] == pytest.approx(1 / 3)
    assert spec[1] == pytest.approx(1 / 2)
    assert spec[2] == pytest.approx(1 / 6)
    assert spec.total == pytest.approx(1.0)


def test_spectrum_closed_form_basis_states():
    model = SpinModel(2)
    for m in range(-2, 3):
        psi = model.basis_state(m)
        spec = gfd.purity_spectrum(np.outer(psi, psi.conj()), model)
        for lam in model.labels():
            assert spec[lam] == pytest.approx(
                gfd.closed_form_spin_purity(2, m, lam), abs=1e-13)


def test_spectrum_parseval_and_invariances():
    model = SpinModel(H("3/2"))
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    spec = gfd.purity_spectrum(A, model)
    assert spec.total == pytest.approx(float(np.sum(np.abs(A) ** 2)))
    # Conjugation by a group element permutes nothing: sector purities fixed.
    U = model.group_unitary(model.random_group(rng))
    spec_rot = gfd.purity_spectrum(U @ A @ U.conj().T, model)
    for lam in model.labels():
        assert spec_rot[lam] == pytest.approx(spec[lam], abs=1e-12)
    # The dagger has the same spectrum (sector bases are Hermitian).
    spec_dag = gfd.purity_spectrum(A.conj().T, model)
    for lam in model.labels():
        assert spec_dag[lam] == pytest.approx(spec[lam], abs=1e-12)


def test_pauli_route_matches_dense():
    for model in (MultipartiteModel(2), FermionicModel(2)):
        rng = np.random.default_rng(1)
        op = PauliSum(2)
        labels = ["XI", "YZ", "ZZ", "IY", "XX"]
        for lab in labels:
            op.add_string(from_label(lab), complex(*rng.normal(size=2)))
        dense_spec = gfd.purity_spectrum(op.to_dense(), model)
        pauli_spec = word_sector_purities(op, model)
        for lam in model.labels():
            assert pauli_spec[lam] == pytest.approx(dense_spec[lam], abs=1e-12)


def test_gfd_project_resolves_identity():
    model = SpinModel(1)
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    total = sum(gfd.gfd_project(A, model, lam) for lam in model.labels())
    assert np.allclose(total, A)
    # Components are orthogonal.
    p1 = gfd.gfd_project(A, model, 1)
    p2 = gfd.gfd_project(A, model, 2)
    assert abs(np.sum(p1.conj() * p2)) < 1e-12


def test_phase_purity_scaling():
    model = SpinModel(1)
    rho = np.outer(model.hw_state(), model.hw_state().conj())
    spec = gfd.purity_spectrum(rho, model)
    # s = 1 divides by tau once: lam = 2 gives (1/6) * 30 = 5.
    out = gfd.phase_purity(spec, 1.0, model)
    assert out[2] == pytest.approx(5.0)
    assert out[0] == pytest.approx(1.0)
    # s = -1 multiplies by tau: lam = 2 gives 1/180.
    out = gfd.phase_purity(spec, -1.0, model)
    assert out[2] == pytest.approx(1 / 180)
    # s = 0 is the identity filter.
    out = gfd.phase_purity(spec, 0.0, model)
    for lam in model.labels():
        assert out[lam] == spec[lam]


def test_phase_purity_kills_tauless_sectors():
    model = FermionicModel(2)
    spec = gfd.purity_spectrum(majorana(1, 2).to_dense(), model)
    assert spec[1] == pytest.approx(4.0)  # norm^2 of 2 * D_j
    out = gfd.phase_purity(spec, 1.0, model)
    assert out[1] == 0.0


def test_kernel_purity_values():
    model = SpinModel(1)
    # tau**(-s) d_lam: lam = 2, s = 1 -> 30 * 5 = 150.
    assert gfd.kernel_purity(model, 2, 1.0) == pytest.approx(150.0)
    assert gfd.kernel_purity(model, 0, 0.5) == pytest.approx(3 ** 0.5)
    assert gfd.kernel_purity(FermionicModel(2), 1, 1.0) == 0.0


def test_haar_mean_purity():
    model = SpinModel(2)
    assert gfd.haar_mean_purity(model, 0) == pytest.approx(1 / 5)
    assert gfd.haar_mean_purity(model, 3) == pytest.approx(7 / 30)
    # Non-trivial means sum to 1 - 1/d = (d - 1)/d: pure-state normalization.
    nontrivial = sum(gfd.haar_mean_purity(model, lam)
                     for lam in model.labels() if lam != 0)
    assert nontrivial + gfd.haar_mean_purity(model, 0) == pytest.approx(
        1 / 5 + 24 / 30)


def test_haar_mean_matches_monte_carlo():
    model = SpinModel(1)
    rng = np.random.default_rng(3)
    acc = {lam: 0.0 for lam in model.labels()}
    nsamp = 600
    for _ in range(nsamp):
        psi = model.haar_state(rng)
        spec = gfd.purity_spectrum(np.outer(psi, psi.conj()), model)
        for lam in model.labels():
            acc[lam] += spec[lam] / nsamp
    assert acc[0] == pytest.approx(1 / 3, abs=1e-12)  # deterministic
    for lam in (1, 2):
        want = gfd.haar_mean_purity(model, lam)
        assert acc[lam] == pytest.approx(want, abs=0.05)


def test_markov_bound():
    # d_lam / (a d (d + 1)): S = 1/2, lam = 1, a = 1/4 -> 3 / (0.25 * 6) = 2
    model = SpinModel(H("1/2"))
    assert gfd.markov_bound(model, 1, 0.25) == pytest.approx(2.0)
    # S = 2, lam = 1, a = 0.1 -> 3 / (0.1 * 30) = 1.
    assert gfd.markov_bound(SpinModel(2), 1, 0.1) == pytest.approx(1.0)
    assert gfd.markov_bound(SpinModel(2), 3, 0.39) == pytest.approx(
        7 / (0.39 * 30))
    with pytest.raises(ValueError):
        gfd.markov_bound(model, 0, 0.5)  # trivial sector excluded
    with pytest.raises(ValueError):
        gfd.markov_bound(model, 1, 0.0)


def test_markov_bound_empirically():
    model = SpinModel(2)
    rng = np.random.default_rng(9)
    nsamp = 800
    hits = {a: 0 for a in (0.05, 0.1, 0.5)}
    for _ in range(nsamp):
        psi = model.haar_state(rng)
        p1 = gfd.purity_spectrum(np.outer(psi, psi.conj()), model)[1]
        for a in hits:
            hits[a] += p1 >= a
    for a, count in hits.items():
        bound = gfd.markov_bound(model, 1, a)
        frac = count / nsamp
        se = math.sqrt(frac * (1 - frac) / nsamp + 1e-12)
        assert frac <= min(1.0, bound) + 4 * se


def test_s_flow_generator():
    model = MultipartiteModel(2)
    assert gfd.s_flow_generator(model, (1, 1)) == pytest.approx(math.log(36))
    assert gfd.s_flow_generator(SpinModel(1), 2) == pytest.approx(math.log(30))
    with pytest.raises(ValueError):
        gfd.s_flow_generator(FermionicModel(2), 1)


def test_s_flow_matches_finite_difference():
    model = SpinModel(1)
    rho = np.outer(model.ghz_state(), model.ghz_state().conj())
    spec = gfd.purity_spectrum(rho, model)
    ds = 1e-5
    for lam in model.labels():
        up = gfd.phase_purity(spec, 0.5 + ds, model)[lam]
        dn = gfd.phase_purity(spec, 0.5 - ds, model)[lam]
        if up == 0.0:
            continue
        deriv = (math.log(up) - math.log(dn)) / (2 * ds)
        assert deriv == pytest.approx(gfd.s_flow_generator(model, lam),
                                      rel=1e-6)


def test_norm_bounds():
    model = SpinModel(1)
    lo, hi = gfd.norm_bounds(model, 1.0)
    assert lo == pytest.approx(3.0)   # min tau**-1 = 1 / (1/3)
    assert hi == pytest.approx(30.0)  # max tau**-1 = 1 / (1/30)
    # Mixed states scale both ends by the purity.
    rho = np.eye(3) / 3
    lo_m, hi_m = gfd.norm_bounds(model, 1.0, rho)
    assert (lo_m, hi_m) == (pytest.approx(1.0), pytest.approx(10.0))
    # The actual filtered norm of any state sits inside the bounds.
    rng = np.random.default_rng(5)
    for _ in range(20):
        psi = model.haar_state(rng)
        spec = gfd.purity_spectrum(np.outer(psi, psi.conj()), model)
        norm2 = gfd.phase_purity(spec, 1.0, model).total
        lo, hi = gfd.norm_bounds(model, 1.0)
        assert lo - 1e-12 <= norm2 <= hi + 1e-12


def test_duality_check_trivial_sector_exact():
    model = SpinModel(1)
    rows = gfd.duality_check(model, [0.0], 50, seed=11)
    by_label = {row.label: row for row in rows}
    triv = by_label[0]
    assert triv.trivial
    # Deterministic at d**(s-1): SE collapses and the mean hits exactly.
    assert triv.lhs_se < 1e-14
    assert triv.lhs_mean == pytest.approx(triv.rhs, abs=1e-12)
    assert triv.rhs == pytest.approx(1 / 3)


@pytest.mark.parametrize("s", [-1.0, 0.0])
def test_duality_check_nontrivial_within_errorbars(s):
    model = SpinModel(2)
    rows = gfd.duality_check(model, [s], 1000, seed=42)
    for row in rows:
        if row.trivial:
            assert row.lhs_mean == pytest.approx(5.0 ** (s - 1), abs=1e-12)
        else:
            assert abs(row.zscore) <= 5.0
            assert row.lhs_se > 0


def test_duality_check_multipartite():
    model = MultipartiteModel(2)
    rows = gfd.duality_check(model, [0.0], 400, seed=17)
    assert {row.label for row in rows} == set(model.labels())
    for row in rows:
        if not row.trivial:
            assert abs(row.zscore) <= 5.0


def test_coherent_fidelity_spin():
    model = SpinModel(2)
    # Coherent states score exactly 1.
    point = (0.9, 2.0)
    assert gfd.coherent_fidelity(model, model.coherent_state(point)) == \
        pytest.approx(1.0, abs=1e-8)
    # GHZ-type superposition of poles: best overlap is 1/2.
    assert gfd.coherent_fidelity(model, model.ghz_state()) == \
        pytest.approx(0.5, abs=1e-4)
    # |S, 0> at S = 1: max |<Omega|1,0>|^2 = C(2,1) / 4 = 1/2 at the equator.
    assert gfd.coherent_fidelity(SpinModel(1), SpinModel(1).basis_state(0)) == \
        pytest.approx(0.5, abs=1e-6)


def test_coherent_fidelity_multipartite():
    model = MultipartiteModel(2)
    pts = ((0.3, 1.0), (1.8, 4.4))
    assert gfd.coherent_fidelity(model, model.coherent_state(pts)) == \
        pytest.approx(1.0, abs=1e-6)
    assert gfd.coherent_fidelity(model, model.ghz_state()) == \
        pytest.approx(0.5, abs=1e-4)
    with pytest.raises(ValueError):
        gfd.coherent_fidelity(FermionicModel(2), FermionicModel(2).hw_state())


def test_coherent_fidelity_one_qubit():
    # One qubit has one sphere, as spin 1/2 has: one batch scans its grid.
    model = MultipartiteModel(1)
    psi = model.coherent_state(((0.4, 2.0),))
    assert gfd.coherent_fidelity(model, psi) == pytest.approx(1.0, abs=1e-8)
