"""Gates at their edges.  ``verify``: a deviation just under a gate
passes it and one a few times over fails it, in ``run_checks`` and
through the CLI, at the default tolerances.  The work budget: the
largest admitted ``duality`` runs and one more sample is refused."""

import pytest

from sweyl import gfd, verify
from sweyl.cli import main
from sweyl.models import SpinModel


@pytest.mark.parametrize("dev, passed", [(5e-11, True), (1e-9, False)])
def test_linear_algebra_gate_is_1e_10(monkeypatch, tmp_path, capsys, dev,
                                       passed):
    monkeypatch.setattr(verify, "duality_identity_deviation",
                        lambda *args: dev)
    rows = {r.name: r for r in verify.run_checks("spin", "1")}
    assert rows.pop("duality_identity").passed is passed
    assert all(r.passed for r in rows.values())
    code = main(["verify", "--spin-S", "1", "--out", str(tmp_path)])
    assert code == (0 if passed else 1)
    assert ("FAIL duality_identity" in capsys.readouterr().out) is not passed


@pytest.mark.parametrize("dev, passed", [(5e-9, True), (1e-7, False)])
def test_default_quadrature_tolerance_is_1e_8(monkeypatch, tmp_path, capsys,
                                              dev, passed):
    model = SpinModel(1)
    model.harmonic_deviation = lambda grid: dev
    monkeypatch.setattr(verify, "make_model", lambda *args: model)
    rows = {r.name: r for r in verify.run_checks("spin", "1")}
    assert rows.pop("harmonic_orthonormality").passed is passed
    assert all(r.passed for r in rows.values())
    code = main(["verify", "--spin-S", "1", "--out", str(tmp_path)])
    assert code == (0 if passed else 1)
    out = capsys.readouterr().out
    assert ("FAIL harmonic_orthonormality" in out) is not passed


def test_work_budget_is_4e9_units(monkeypatch, tmp_path):
    model, lo, hi = SpinModel(2), 1, 10 ** 12
    while hi - lo > 1:  # the largest sample count within 4e9 units
        mid = (lo + hi) // 2
        if model.purity_work(mid) <= 4 * 10 ** 9:
            lo = mid
        else:
            hi = mid

    def drawn(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(gfd, "haar_chunks", drawn)
    argv = ["duality", "--spin-S", "2", "--out", str(tmp_path), "--samples"]
    assert main(argv + [str(lo + 1)]) == 2
    with pytest.raises(AssertionError, match="sampled"):
        main(argv + [str(lo)])
