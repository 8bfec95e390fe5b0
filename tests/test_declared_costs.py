"""Models price their own routes.

Every admission estimate of ``phasespace``, ``verify``, ``star`` and
``duality`` is a sum of terms the models declare (``coefficient_bytes``,
``synthesis_bytes``, ``purity_work``, ``harmonic_check_bytes``,
``point_work``) and of the command's own terms.  The ladder compares them
with the formulas the commands held before (``oracles``): the admit/refuse
decision matches at every rung, and the value matches wherever the old
formula priced the model's own route, or differs by exactly the terms of
a route the model no longer takes.
"""

import contextlib
import io
import tracemalloc

import pytest

from oracles import (duality_work_by_pauli_formula,
                     phasespace_bytes_by_spin_formula, star_work_by_d_cubed,
                     verify_bytes_by_geometry)
from sweyl import cli, models, verify
from sweyl.cli import main
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel

SPINS = [SpinModel(HalfInt(k)) for k in range(1, 201)]
QUBITS = [MultipartiteModel(n) for n in range(1, 11)]
FERMIONS = [FermionicModel(n) for n in range(1, 11)]
GRIDS = [(16, 32), (64, 128), (4000, 8000)]
K_SPLITS = [(1, 1), (2, 2), (5, 3)]  # (states, --s values): K = 1, 4, 15


def admitted(need, budget=None):
    return need <= (models.BYTES_BUDGET if budget is None else budget)


def test_verify_ladder():
    # A spin's harmonic check no longer forms the (d**2, d**2) Gram matrix
    # the old one-sphere formula priced, which refused 2S >= 53: every
    # spin the CG table serves is admitted.  Nor does a qubit's form the
    # (4**n, 4**n) Kronecker Gram matrix: from n = 2 to 9 its estimate
    # drops that matrix and the two row chunks the old formula priced, and
    # no decision changes.
    for model in SPINS:
        assert admitted(verify.dense_bytes(model)), model
        assert admitted(verify_bytes_by_geometry(model)) == (model.dim <= 53)
    for model in QUBITS + FERMIONS:
        new, old = verify.dense_bytes(model), verify_bytes_by_geometry(model)
        assert admitted(new) == admitted(old), model
        if model.kind == "fermionic":
            assert new == old, model
        elif model not in (QUBITS[0], QUBITS[-1]):
            gram = 8 * model.dim ** 4
            assert old - new == gram + 2 * min(gram, models.TABLE_BYTES), model


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g)))
def test_phasespace_ladder(grid):
    for nstates, nsvals in K_SPLITS:
        for model in SPINS:
            new = cli._phasespace_bytes(*grid, model, nsvals, model.dim,
                                        nstates)
            assert new == phasespace_bytes_by_spin_formula(
                *grid, model.dim, nsvals, model.dim, nstates)
        # Qubit fields are drawn on the one-qubit marginal, whose word
        # route the old formula priced as a spin of d = 2.
        for n in range(1, 11):
            new = cli._phasespace_bytes(*grid, MultipartiteModel(1), nsvals,
                                        2 ** n, nstates)
            old = phasespace_bytes_by_spin_formula(*grid, 2, nsvals, 2 ** n,
                                                   nstates)
            assert admitted(new) == admitted(old), (n, nstates, nsvals)


def test_star_ladder():
    for model in SPINS:
        for points in (1, 491):
            new = points * (model.point_work() + 2 * 10 ** 4)
            assert new == star_work_by_d_cubed(model, points, 1)


def test_duality_ladder():
    # Fermions keep the operator route the Pauli formula priced.  A spin's
    # and qubits' samples take the rank-one routes, priced from their
    # measured times: no size the formula admitted is refused, and qubits
    # at n = 10 admit 500 samples where the formula admitted 95.
    budget = models.WORK_BUDGET
    for model in SPINS + QUBITS + FERMIONS:
        for samples in (2, 3000, 10 ** 400):
            new = model.purity_work(samples)
            old = duality_work_by_pauli_formula(model, samples)
            assert admitted(new, budget) or not admitted(old, budget), model
            if model.kind == "fermionic":  # the Pauli transform is its route
                assert new == old, (model, samples)
    assert admitted(QUBITS[-1].purity_work(500), budget)
    assert not admitted(duality_work_by_pauli_formula(QUBITS[-1], 500),
                        budget)


def test_spin_purity_work_rounds_up_once():
    # d = 5: d**3 + 64 d**2 + 8192 d + 12288 = 54973 128ths of a unit per
    # state.
    model = SpinModel(HalfInt(4))
    assert model.purity_work(1) == 430
    assert model.purity_work(128) == 54973
    assert model.purity_work(10 ** 400) == 54973 * 10 ** 400 // 128


def command_peak(tmp_path, argv):
    """Exit code and ``tracemalloc`` peak of one CLI run."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


# One small size per model and command, with the window of peak / estimate
# measured with tracemalloc: a spin's verify peak is 0.5-0.7 of its
# estimate from 2S = 10 to 200, qubits on their product grid peak at
# 0.79-0.89 of theirs (n = 4 ... 6; the field passes, as the harmonic
# check holds one 4 x 4 Gram matrix) and fermions at 0.57-0.76 (n = 6 ...
# 10).  On 120 000 nodes of all-distinct values phasespace peaks at 0.86
# of its estimate, most of it the 184 B per node of text, node arrays and
# CSV cells.
PEAK_CASES = {
    "verify-spin-20": (["verify", "--spin-S", "10"],
                       lambda: verify.dense_bytes(SpinModel(HalfInt(20))),
                       0.25, 1.0),
    "verify-multipartite-5": (["verify", "--qrt", "multipartite", "--n", "5"],
                              lambda: verify.dense_bytes(MultipartiteModel(5)),
                              0.82, 0.92),
    "verify-fermionic-8": (["verify", "--qrt", "fermionic", "--n", "8"],
                           lambda: verify.dense_bytes(FermionicModel(8)),
                           0.57, 0.8),
    "phasespace-spin-6": (["phasespace", "--spin-S", "6", "--grid", "64x128",
                           "--state", "hw", "--state", "haar", "--s", "-1",
                           "--s", "0"],
                          lambda: cli._phasespace_bytes(
                              64, 128, SpinModel(6), 2, 13, 2),
                          0.25, 1.0),
    "phasespace-marginal-4": (["phasespace", "--qrt", "multipartite", "--n",
                               "4", "--grid", "64x128", "--state", "ghz",
                               "--state", "haar", "--s", "-1", "--s", "0"],
                              lambda: cli._phasespace_bytes(
                                  64, 128, MultipartiteModel(1), 2, 16, 2),
                              0.25, 1.0),
    "phasespace-120000-nodes": (["phasespace", "--grid", "300x400", "--state",
                                 "haar"],
                                lambda: cli._phasespace_bytes(
                                    300, 400, SpinModel(2), 1, 5, 1),
                                0.75, 1.0),
}


@pytest.mark.parametrize("case", list(PEAK_CASES))
def test_estimate_covers_the_measured_peak(tmp_path, case):
    argv, estimate, low, high = PEAK_CASES[case]
    code, peak = command_peak(tmp_path, argv)
    assert code == 0
    assert low * estimate() <= peak <= high * estimate()
