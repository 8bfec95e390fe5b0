"""Multi-qubit phase space one qubit at a time.

On a product grid (``phase_space.product_quadrature``, which keeps its
one-sphere rule as ``factor``) the qubit synthesis and its adjoint are
contractions with one sphere's tables, and ``verify``'s harmonic check
(``harmonic_deviation``) reads one qubit's 4 x 4 Gram matrix g alone: the
largest entry of G - I, for G the Kronecker power of g, is a closed form
in g's largest and smallest entries.  The row route over the (N, 4**n)
expectation table, which any other point set still takes, is the
oracle, and the whole Kronecker Gram matrix is the closed form's;
``verify.dense_bytes`` admits qubits from the contraction route's sizes.
"""

import contextlib
import functools
import io
import json
import tracemalloc

import numpy as np
import pytest

from sweyl import models
from sweyl import phase_space as ps
from sweyl.cli import main
from sweyl.models import MultipartiteModel
from sweyl.verify import dense_bytes, make_model

from oracles import (harmonic_deviation_by_kronecker_gram,
                     harmonic_deviation_by_point_table)


def assert_column_close(got, want, tol=1e-13):
    """``got`` within ``tol`` of each column's maximum of ``want``."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= tol * scale)


def rand_complex(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("band", [0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contraction_route_matches_row_route(n, band):
    model, grid = MultipartiteModel(n), ps.product_quadrature(n, band)
    rng = np.random.default_rng(500 + n)
    c = rand_complex((5, 4 ** n), rng)
    w = rng.normal(size=(len(grid.weights), 3))
    assert_column_close(model.synthesis(c, grid.points, factor=grid.factor),
                        model.synthesis(c, grid.points))
    assert_column_close(
        model.synthesis_adjoint(w, grid.points, factor=grid.factor).T,
        model.synthesis_adjoint(w, grid.points).T)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kronecker_gram_matches_the_full_gram(n):
    # The deviation from I of the Kronecker Gram matrix against that of
    # the row route's whole table, on the product grid (at n = 1 the
    # one-sphere rule, its own factor) and on one whose one-sphere rule
    # has a node's weight off by 1e-6, in its product too.
    model, grid = MultipartiteModel(n), ps.product_quadrature(n)
    w = np.array(grid.factor.weights)
    w[0] *= 1 + 1e-6
    off = ps.Quadrature(grid.factor.points, w, grid.band)
    off_grid = ps.Quadrature(grid.points, functools.reduce(
        np.multiply.outer, [w] * n).ravel(), grid.band, factor=off)
    for g, failing in ((grid, False), (off_grid, True)):
        if n == 1:
            g = g.factor
        got = model.harmonic_deviation(g)
        assert abs(got - harmonic_deviation_by_point_table(model, g)) <= 1e-14
        assert (got > 1e-8) == failing


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_equals_the_kronecker_gram(n):
    # Bit for bit, on the product grids of bands 0, 1/4 and 1/2, and on
    # ones whose one-sphere rule has a node's weight off by 1e-3 to 1e-14
    # (at n = 1 the one-sphere rule itself, whose factor is None).
    model, rng = MultipartiteModel(n), np.random.default_rng(530 + n)
    grids = [ps.product_quadrature(n, band) for band in (0.0, 0.25, 0.5)]
    base = grids[-1]
    for eps in (1e-3, 1e-6, 1e-10, 1e-14):
        w = np.array(base.factor.weights)
        w[rng.integers(len(w))] *= 1 + rng.choice([-1, 1]) * eps
        off = ps.Quadrature(base.factor.points, w, base.band)
        grids.append(ps.Quadrature(base.points, functools.reduce(
            np.multiply.outer, [w] * n).ravel(), base.band, factor=off))
    for grid in grids:
        if n == 1:
            grid = grid.factor
            assert grid.factor is None
        assert (model.harmonic_deviation(grid)
                == harmonic_deviation_by_kronecker_gram(model, grid))


def test_closed_form_refuses_a_negative_weight():
    grid = ps.product_quadrature(2)
    w = np.array(grid.factor.weights)
    w[3] = -w[3]
    off = ps.Quadrature(grid.factor.points, w, grid.band)
    with pytest.raises(ValueError, match="non-negative"):
        MultipartiteModel(2).harmonic_deviation(
            ps.Quadrature(grid.points, grid.weights, grid.band, factor=off))


def test_closed_form_at_n6_forms_no_gram_matrix():
    # The (4**6, 4**6) Kronecker Gram matrix would be 134 MB.
    model = MultipartiteModel(6)
    grid = ps.default_grid(model)
    tracemalloc.start()
    try:
        model.harmonic_deviation(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_non_product_points_take_the_row_route():
    # Random rows are no product grid: the fields are the row route's,
    # which are the symbols of the per-node kernels.
    model = MultipartiteModel(3)
    rng = np.random.default_rng(510)
    points = np.stack([np.arccos(rng.uniform(-1, 1, (20, 3))),
                       rng.uniform(0, 2 * np.pi, (20, 3))], axis=-1)
    A = rand_complex((model.dim, model.dim), rng)
    spec = ps.KernelSpec.cahill_glauber(0.5)
    f = ps.sector_factors(model, spec)[:, None]
    got = ps.fields(model, A, points, f)[:, 0]
    want = [ps.symbol(model, A, p, spec) for p in points]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    c = model.coefficients(A)[None] * f[model.coefficient_sectors(), 0]
    assert np.array_equal(got, model.synthesis(c, points)[:, 0])
    # A one-sphere rule whose product they are not is refused.
    with pytest.raises(ValueError, match="no product"):
        model.synthesis(c, points, factor=ps.sphere_quadrature(0.5))


def test_product_synthesis_at_n6_forms_no_word_table(monkeypatch):
    # The (N, 4**6) table would be 16 GiB; the contraction route holds the
    # (N, K) fields and its intermediates, and no row chunk is read.
    def no_chunks(self, points):
        raise AssertionError("the product route read the row route")

    monkeypatch.setattr(models.QrtModel, "_word_chunks", no_chunks)
    n, model = 6, MultipartiteModel(6)
    grid = ps.product_quadrature(n)
    c = rand_complex((2, 4 ** n), np.random.default_rng(520))
    tracemalloc.start()
    try:
        out = model.synthesis(c, grid.points, factor=grid.factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (8 ** n, 2)
    assert peak <= 3 * out.nbytes


@pytest.mark.parametrize("band", [0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_points_equal_the_index_route(n, band):
    # The points broadcast from the one-sphere nodes are bit for bit those
    # gathered through the (n, N) index of every node.
    grid = ps.product_quadrature(n, band)
    nodes = grid.factor.points
    index = np.indices((len(nodes),) * n).reshape(n, -1)
    want = nodes[index.T, 0]
    assert grid.points.shape == want.shape and grid.points.dtype == want.dtype
    assert grid.points.tobytes() == want.tobytes()


def verify_peak(tmp_path, qrt, size):
    """``tracemalloc`` peak of ``verify`` through the CLI, which must pass
    every check, and ``dense_bytes`` of its model."""
    flag, n = ("--spin-S", 2) if qrt == "spin" else ("--n", size)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "--qrt", qrt, flag, str(size),
                         "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert all(check["passed"] for check in checks)
    return peak, dense_bytes(make_model(qrt, str(size), n))


# Three sizes of each model kind; the qubit cases keep their ids.  A spin's
# estimate, its dense-free harmonic check and field passes, is 1.5-3.3
# times its peak here (2S = 6 to 22) and 1.4-2.1 from 2S = 10 to 200.
@pytest.mark.parametrize("qrt,size", [
    ("multipartite", 4), ("multipartite", 5), ("multipartite", 6),
    ("spin", 3), ("spin", 5), ("spin", 11),
    ("fermionic", 6), ("fermionic", 7), ("fermionic", 8), ("fermionic", 9),
], ids=["4", "5", "6", "spin-3", "spin-5", "spin-11", "fermionic-6",
        "fermionic-7", "fermionic-8", "fermionic-9"])
def test_verify_qubit_estimate_brackets_the_peak(tmp_path, qrt, size):
    peak, estimate = verify_peak(tmp_path, qrt, size)
    assert peak <= estimate <= 4 * peak


@pytest.mark.parametrize("qrt,size", [
    ("spin", "1/2"), ("spin", 2), ("multipartite", 1), ("multipartite", 2),
    ("multipartite", 3), ("fermionic", 1), ("fermionic", 2),
    ("fermionic", 4),
])
def test_verify_estimate_covers_the_peak_at_small_sizes(tmp_path, qrt, size):
    # The first-call costs (the CG caches of cg_normalization, the
    # report), not the sized arrays, set the peak here.
    peak, estimate = verify_peak(tmp_path, qrt, size)
    assert peak <= estimate


def test_star_runs_past_the_old_cap_and_refuses_past_the_table(tmp_path,
                                                               capsys):
    assert main(["star", "--spin-S", "40", "--out", str(tmp_path / "a")]) == 0
    out = tmp_path / "b"
    assert main(["star", "--spin-S", "201/2", "--out", str(out)]) == 2
    assert "capped at 2S <= 200" in capsys.readouterr().err
    assert not out.exists()
