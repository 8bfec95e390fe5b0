"""Sector checks, projections and harmonics on the coefficient route.

``gfd_project`` (through ``weights``) and the harmonics against the
dense sector blocks of ``irrep_block``, the tests' reference; the
projection at sizes where no block can be built; mutations of the basis
that the ``verify`` sector checks must report; and a guard that no
runtime path, from the benchmark's CLI jobs to ``verify --spin-S 26``,
builds a dense block.
"""

import contextlib
import importlib
import io
import math
import os
import sys

import numpy as np
import pytest

from sweyl import gfd, phase_space as ps, verify
from sweyl.cli import main
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

SMALL = ([SpinModel(HalfInt(t)) for t in range(1, 13)]
         + [MultipartiteModel(n) for n in (1, 2, 3)]
         + [FermionicModel(n) for n in (1, 2, 3)])


def _operator(model, seed):
    rng = np.random.default_rng(seed)
    shape = (model.dim, model.dim)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("model", SMALL, ids=repr)
def test_coefficient_route_matches_dense_blocks(model):
    A = _operator(model, model.dim)
    for lam in model.labels():
        block = model.irrep_block(lam)
        assert np.max(np.abs(gfd.gfd_project(A, model, lam)
                             - block.project(A))) <= 1e-13


@pytest.mark.parametrize("model", [SpinModel(100), MultipartiteModel(8)],
                         ids=repr)
def test_gfd_project_past_the_block_caps(model):
    with pytest.raises(ValueError):
        model.irrep_block(model.trivial_label)
    A = _operator(model, 5)
    labels = model.labels()
    parts = [gfd.gfd_project(A, model, lam) for lam in labels]
    assert np.max(np.abs(sum(parts) - A)) <= 1e-12
    for lam, P in list(zip(labels, parts))[::len(labels) // 6]:
        assert np.max(np.abs(gfd.gfd_project(P, model, lam) - P)) <= 1e-12


def _scaled_cg_row(model):
    model.cg_diagonals()[1][0] *= 1 + 1e-6  # T^1_1 and its mirror
    return model


def _flipped_word(model):
    operators = model.operators

    def flipped(b):
        b = np.array(b, dtype=complex)
        b[..., 5] *= -1  # the word X X of two qubits or modes
        return operators(b)

    model.operators = flipped
    return model


@pytest.mark.parametrize("qrt, mutate", [("spin", _scaled_cg_row),
                                         ("multipartite", _flipped_word),
                                         ("fermionic", _flipped_word)])
def test_sector_checks_report_a_broken_basis(monkeypatch, qrt, mutate):
    model = mutate(verify.make_model(qrt, "2", 2))
    monkeypatch.setattr(verify, "make_model", lambda *args: model)
    failed = {r.name for r in verify.run_checks(qrt, "2", 2) if not r.passed}
    assert {"sector_orthonormality", "sector_completeness"} <= failed


def _refuse_blocks(monkeypatch):
    def refuse(self, lam):
        raise AssertionError(f"dense block {lam!r} of {self!r} at run time")

    for cls in (SpinModel, MultipartiteModel, FermionicModel):
        monkeypatch.setattr(cls, "_build_block", refuse)


def test_cli_runs_build_no_dense_block(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    _refuse_blocks(monkeypatch)
    runs = [job["argv"] for name in workloads.WORKLOADS
            for job in workloads.jobs(name, 0)]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv + ["--out", str(tmp_path / str(i))])
                 for i, argv in enumerate(runs)]
        # Past 2S = 17 the field checks run at s = 0, +-s*, and pass.
        big = main(["verify", "--spin-S", "26", "--out", str(tmp_path)])
    assert codes == [0] * len(runs)
    assert big == 0


@pytest.mark.parametrize("qrt, spin_S", [("spin", "5/2"),
                                         ("multipartite", "2"),
                                         ("fermionic", "2")])
def test_harmonics_and_projections_build_no_dense_block(monkeypatch, qrt,
                                                        spin_S):
    model = verify.make_model(qrt, spin_S, 2)
    rng = np.random.default_rng(8)
    points = [model.random_point(rng) for _ in range(5)]
    A = _operator(model, 9)
    psi = model.coherent_states(points)
    harm, proj = {}, {}
    for lam in model.labels():
        basis = model.irrep_block(lam).basis
        proj[lam] = model.irrep_block(lam).project(A)
        if model.tau(lam):
            harm[lam] = np.real(np.einsum("na,jab,nb->jn", psi.conj(), basis,
                                          psi)) / math.sqrt(model.tau(lam))
    _refuse_blocks(monkeypatch)
    model = verify.make_model(qrt, spin_S, 2)
    got = ps.harmonic_matrix(model, points)
    assert list(got) == list(harm)
    for lam, Y in harm.items():
        assert np.max(np.abs(got[lam] - Y)) <= 1e-12
    for lam, P in proj.items():
        assert np.max(np.abs(gfd.gfd_project(A, model, lam) - P)) <= 1e-13
