"""The phase-space functionals on stacks of fields, column by column against
their one-field calls, and the CLI route through them: ``star`` and
``verify`` call ``symbol_field``, ``reconstruct`` and ``star_product``
with the pass counts of one forward and one adjoint pass per grid."""

import contextlib
import io
import sys

import numpy as np
import pytest

from sweyl import models
from sweyl import phase_space as ps
from sweyl.cli import main
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel

SVALS = (-1.0, 0.0, 0.5)


def rand_operator(dim, rng):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def assert_column_close(got, want):
    """``got`` within 1e-14 of the maximum of the one-field ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def case(name):
    """(model, grid, out points, specs) of one stack case."""
    rng = np.random.default_rng(400)
    if name == "spin":
        model = SpinModel(HalfInt(5))
        grid = ps.sphere_quadrature(2 * model.band)
    elif name == "qubits":
        model = MultipartiteModel(3)
        grid = ps.product_quadrature(3, 2 * model.band)
    else:
        model = FermionicModel(2)
        grid = ps.mc_group_quadrature(model, 40, seed=3)
    specs = [ps.KernelSpec.cahill_glauber(s) for s in SVALS]
    if name == "generalized":
        model = SpinModel(2)
        grid = ps.default_grid(model)
        specs.append(ps.KernelSpec.generalized(
            {lam: 1.0 + 0.5 * lam for lam in model.labels()}))
    points = [model.random_point(rng) for _ in range(4)]
    return model, grid, points, specs


CASES = ["spin", "qubits", "fermions", "generalized"]


@pytest.mark.parametrize("name", CASES)
def test_stacked_functionals_match_one_field_calls(name):
    model, grid, _, specs = case(name)
    rng = np.random.default_rng(401)
    ops = np.stack([rand_operator(model.dim, rng) for _ in range(2)])
    stack = ps.symbol_field(model, ops, grid, specs)
    ncol = len(ops) * len(specs)
    assert stack.values.shape == (len(grid.weights), ncol)
    assert stack.specs == tuple(specs) * len(ops)  # op-major columns
    back = ps.reconstruct(stack)
    assert back.shape == (ncol, model.dim, model.dim)
    quad = ps.phase_purity_quadrature(stack).values
    assert quad.shape == (ncol, len(model.labels()))
    converted = ps.convert_field(stack, 0.5, grid)
    for c, spec in enumerate(stack.specs):
        one = ps.symbol_field(model, ops[c // len(specs)], grid, spec)
        assert one.specs == (spec,)
        assert_column_close(stack.values[:, c], one.values)
        assert_column_close(back[c], ps.reconstruct(one))
        assert_column_close(quad[c], ps.phase_purity_quadrature(one).values)
        assert_column_close(converted.values[:, c],
                            ps.convert_field(one, 0.5, grid).values)


@pytest.mark.parametrize("name", CASES[:3])
def test_stacked_star_product_matches_one_field_calls(name):
    model, grid, points, specs = case(name)
    rng = np.random.default_rng(402)
    A, B = (rand_operator(model.dim, rng) for _ in range(2))
    fa, fb = (ps.symbol_field(model, X, grid, specs) for X in (A, B))
    s_out = [0.25, -1.0, 0.0]
    stars = ps.star_product(fa, fb, s_out, points)
    shared = ps.star_product(fa, fb, 0.5, points)
    assert stars.shape == shared.shape == (len(points), len(specs))
    for c, spec in enumerate(specs):
        one_a, one_b = (ps.symbol_field(model, X, grid, spec) for X in (A, B))
        assert_column_close(stars[:, c],
                            ps.star_product(one_a, one_b, s_out[c], points))
        assert_column_close(shared[:, c],
                            ps.star_product(one_a, one_b, 0.5, points))


def test_star_product_refuses_unpaired_stacks():
    model, grid, points, specs = case("spin")
    A = rand_operator(model.dim, np.random.default_rng(403))
    fa = ps.symbol_field(model, A, grid, specs)
    fb = ps.symbol_field(model, A, grid, specs[:2])
    with pytest.raises(ValueError):
        ps.star_product(fa, fb, 0.0, points)
    with pytest.raises(ValueError):
        ps.star_product(fa, fa, [0.0, 1.0], points)
    other = ps.sphere_quadrature(2 * model.band)
    with pytest.raises(ValueError):
        ps.star_product(fa, ps.symbol_field(model, A, other, specs), 0.0,
                        points)


class Spy:
    """Counts calls of wrapped functions and the callers of others."""

    def __init__(self, monkeypatch):
        self.calls, self.callers = {}, {}
        self.mp = monkeypatch

    def count(self, owner, name):
        fn = getattr(owner, name)

        def call(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        self.mp.setattr(owner, name, call)

    def callers_of(self, owner, name):
        fn = getattr(owner, name)

        def call(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            self.callers.setdefault(name, set()).add(caller)
            return fn(*args, **kwargs)
        self.mp.setattr(owner, name, call)


def run_cli(argv, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv + ["--out", str(tmp_path)])


@pytest.mark.parametrize("argv, want", [
    (["star", "--spin-S", "2", "--s", "0", "--s", "1"],
     {"symbol_field": 1, "star_product": 1, "reconstruct": 1,
      "synthesis": 2, "synthesis_adjoint": 1}),
    (["verify", "--spin-S", "3"],
     {"symbol_field": 1, "reconstruct": 1,
      "synthesis": 1, "synthesis_adjoint": 1}),
    (["verify", "--qrt", "multipartite", "--n", "2"],
     {"symbol_field": 1, "reconstruct": 1,
      "synthesis": 1, "synthesis_adjoint": 1}),
], ids=["star", "verify-spin", "verify-qubits"])
def test_cli_goes_through_the_functionals(argv, want, tmp_path, monkeypatch):
    spy = Spy(monkeypatch)
    for name in ("symbol_field", "star_product", "reconstruct"):
        spy.count(ps, name)
    for name in ("fields", "kernel_sums", "sector_factors"):
        spy.callers_of(ps, name)
    for cls in (models.QrtModel, models.SpinModel):
        spy.count(cls, "synthesis")
        spy.count(cls, "synthesis_adjoint")
    assert run_cli(argv, tmp_path) == 0
    assert spy.calls == want
    # The raw passes and factors are reached only through the functionals.
    assert spy.callers["fields"] <= {"symbol_field", "star_product"}
    assert spy.callers["kernel_sums"] == {"reconstruct"}
    assert "cmd_star" not in spy.callers["sector_factors"]
    assert "run_checks" not in spy.callers["sector_factors"]


def test_qubit_labels_are_sorted_once_and_copied():
    model = MultipartiteModel(4)
    first = model.labels()
    assert first == model.labels()
    assert first is not model.labels()
    assert first == sorted(first, key=lambda t: (sum(t), t))
    assert len(set(first)) == 16
    first.reverse()
    first.append((2,) * 4)
    labels = model.labels()
    assert len(labels) == 16 and labels[0] == model.trivial_label
    assert model.tau(labels[-1]) == model.taus[-1]
