"""The coefficient-route fields and kernel sums against the kernel-stack
oracle, on scattered points and on rings of equal theta, their chunking,
and ``verify``'s spin ladder, its estimate and its s* rule."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from sweyl import models, render, verify
from sweyl import phase_space as ps
from sweyl.cli import main
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel

from oracles import legendre_table

SPECS = [ps.KernelSpec.cahill_glauber(s) for s in (-1.0, 0.0, 0.5, 1.0)]
SPINS = [1, 2, 7, 20, 30]  # 2S


def rand_operator(dim, rng):
    """A random non-Hermitian operator: both offset signs carry data."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def all_factors(model, specs):
    return np.stack([ps.sector_factors(model, spec) for spec in specs],
                    axis=1)


def assert_ring_route_matches_oracle(model, A, points):
    table = ps.fields(model, A, points, all_factors(model, SPECS))
    for k, spec in enumerate(SPECS):
        stack = ps.kernel_stack(model, points, spec)
        want = np.einsum("nab,ba->n", stack, A)
        bound = 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(table[:, k] - want)) <= bound


def scattered_points(model, count, rng):
    return [model.random_point(rng) for _ in range(count)]


def uneven_rings(rng, nrings=5):
    """Ring k has 2k + 1 points at its own random phis."""
    points = []
    for k, theta in enumerate(rng.uniform(0, np.pi, size=nrings)):
        phis = rng.uniform(0, 2 * np.pi, 2 * k + 1)
        points += [(theta, phi) for phi in phis]
    rng.shuffle(points)
    return points


@pytest.mark.parametrize("twice_s", SPINS)
def test_spin_ring_route_matches_kernel_stack(twice_s):
    model = SpinModel(HalfInt(twice_s))
    rng = np.random.default_rng(100 + twice_s)
    A = rand_operator(model.dim, rng)
    points = scattered_points(model, 9, rng)
    assert len({theta for theta, _ in points}) == len(points)
    for pts in (points, uneven_rings(rng), ps.default_grid(model).points):
        assert_ring_route_matches_oracle(model, A, pts)


def test_one_qubit_marginal_ring_route_matches_kernel_stack():
    model = MultipartiteModel(1)
    rng = np.random.default_rng(110)
    A = rand_operator(2, rng)
    theta, phi = render.equirect_grid(8, 12)
    nodes = np.stack((np.repeat(theta, 12), np.tile(phi, 8)), axis=1)
    uneven = np.array(uneven_rings(rng))
    for pts in (nodes, uneven):
        assert_ring_route_matches_oracle(model, A, pts[:, None, :])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multipartite_ring_route_matches_kernel_stack(n):
    model = MultipartiteModel(n)
    rng = np.random.default_rng(120 + n)
    A = rand_operator(model.dim, rng)
    for pts in (scattered_points(model, 7, rng),
                ps.default_grid(model).points):
        assert_ring_route_matches_oracle(model, A, pts)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fermionic_ring_route_matches_kernel_stack(n):
    model = FermionicModel(n)
    rng = np.random.default_rng(130 + n)
    A = rand_operator(model.dim, rng)
    grid = ps.mc_group_quadrature(model, 11, seed=n)
    assert_ring_route_matches_oracle(model, A, grid.points)


@pytest.mark.parametrize(
    "model", [SpinModel(HalfInt(k)) for k in range(1, 21)]
    + [MultipartiteModel(n) for n in (1, 2, 3)], ids=repr)
def test_reconstruct_inverts_symbol_field(model):
    # At s = +-1 the round trip applies tau**(-+1/2) and its inverse, so
    # any route keeps about eps * kappa of max|A| (2S = 20: 8e-10, as
    # the per-node route did); s = 0 is exact to rounding.
    grid = ps.default_grid(model)
    A = rand_operator(model.dim, np.random.default_rng(140))
    eps = np.finfo(float).eps
    for s in (-1.0, 0.0, 1.0):
        spec = ps.KernelSpec.cahill_glauber(s)
        got = ps.reconstruct(ps.symbol_field(model, A, grid, spec))
        bound = 1e-13 + 8 * eps * ps.kappa(model) ** abs(s)
        assert np.max(np.abs(got - A)) <= bound * np.max(np.abs(A))


class _NoStack:
    """A model whose per-node unitaries and coherent states are
    unavailable: the coefficient route must not need them."""

    def point_unitary(self, point):
        raise AssertionError("the field route built a per-node unitary")

    point_unitaries = coherent_states = point_unitary


class _NoStackSpin(_NoStack, SpinModel):
    pass


class _NoStackQubits(_NoStack, MultipartiteModel):
    pass


def assert_core_builds_no_per_node_unitaries(model, plain, grid, rng):
    A, B = rand_operator(model.dim, rng), rand_operator(model.dim, rng)
    out_points = scattered_points(plain, 5, rng)
    spec = ps.KernelSpec.cahill_glauber(0.5)
    fa, fb = (ps.symbol_field(model, X, grid, spec) for X in (A, B))
    ref_a = ps.symbol_field(plain, A, grid, spec)
    assert np.array_equal(fa.values, ref_a.values)
    assert np.max(np.abs(ps.reconstruct(fa) - A)) <= 1e-10 * np.max(np.abs(A))
    star = ps.star_product(fa, fb, 0.5, out_points)
    want = [ps.symbol(plain, A @ B, p, spec) for p in out_points]
    assert np.max(np.abs(star - want)) <= 1e-9 * np.max(np.abs(want))
    harm = ps.harmonic_matrix(model, grid.points)
    assert sorted(harm) == sorted(plain.labels())


def test_spin_ring_route_builds_no_per_node_unitaries():
    model, plain = _NoStackSpin(HalfInt(5)), SpinModel(HalfInt(5))
    grid = ps.sphere_quadrature(2 * model.band)
    assert_core_builds_no_per_node_unitaries(model, plain, grid,
                                             np.random.default_rng(150))


def test_qubit_core_builds_no_per_node_unitaries():
    model, plain = _NoStackQubits(2), MultipartiteModel(2)
    grid = ps.product_quadrature(2, band=1.0)
    assert_core_builds_no_per_node_unitaries(model, plain, grid,
                                             np.random.default_rng(155))


@pytest.mark.parametrize("twice_s", [1, 2, 24, 100, 200])
def test_legendre_rows_match_the_whole_table(twice_s):
    # The poles, the equator, points beside the poles and random thetas.
    rng = np.random.default_rng(twice_s)
    theta = np.concatenate([[0.0, np.pi / 2, np.pi, 1e-9, np.pi - 1e-9],
                            rng.uniform(0, np.pi, 11)])
    d = twice_s + 1
    table = legendre_table(theta, d)
    rows = list(models._legendre_rows(theta, d))
    assert len(rows) == d
    for lam, row in enumerate(rows):
        want = table[:lam + 1, lam]
        assert row.shape == want.shape
        assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))


def chunk_thetas(model, points, width):
    """The distinct thetas of each chunk of a synthesis."""
    return [theta for theta, _, _ in model._rings(points, width)]


def test_ring_chunks_split_without_changing_the_result(monkeypatch):
    # A budget of a few rings splits the 21 thetas of the default S = 10
    # grid into chunks of whole rings.
    model = SpinModel(10)
    grid = ps.default_grid(model)
    A = rand_operator(model.dim, np.random.default_rng(160))
    f = all_factors(model, SPECS)
    whole = ps.fields(model, A, grid.points, f)
    w = np.random.default_rng(161).normal(size=(len(grid.points), len(SPECS)))
    sums = ps.kernel_sums(model, grid.points, w, f)
    monkeypatch.setattr(models, "TABLE_BYTES", 2 ** 14)
    chunks = chunk_thetas(model, grid.points, len(SPECS))
    assert len(chunks) > 1
    # each distinct theta in exactly one chunk
    assert sum(map(len, chunks)) == len(np.unique(grid.points[:, 0, 0]))
    assert np.max(np.abs(ps.fields(model, A, grid.points, f)
                         - whole)) <= 1e-13 * np.max(np.abs(whole))
    assert np.max(np.abs(ps.kernel_sums(model, grid.points, w, f)
                         - sums)) <= 1e-13 * np.max(np.abs(sums))


def verify_run(tmp_path, spin):
    """Exit code, seconds and ``tracemalloc`` peak of ``verify --spin-S``."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["verify", "--spin-S", spin, "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, time.perf_counter() - start, peak


def test_verify_spin_30_runs(tmp_path):
    # The dense-free harmonic check: 12 MB at 2S = 60, where the (d**2,
    # d**2) Gram matrix priced 1.3e9 bytes and was refused.
    code, seconds, peak = verify_run(tmp_path, "30")
    assert code == 0
    assert seconds < 5.0
    assert peak < 16 * 2 ** 20


def test_verify_huge_spin_refused_before_any_sector_list(tmp_path, capsys):
    # The admission rule reads d and the grid size alone: no list of the
    # 2S + 1 sectors is built before the refusal.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["verify", "--spin-S", "200000", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert time.perf_counter() - start < 0.2
    assert peak < 2 ** 20
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spin", ["20", "26", "100", "171"])
def test_verify_estimate_admits_sizes_that_fit(spin):
    # 2S = 342 is the largest spin under the budget; the CG table serves
    # verify up to 2S = 200.
    model = verify.make_model("spin", spin)
    assert verify.dense_bytes(model) <= models.BYTES_BUDGET
    assert verify.dense_bytes(SpinModel(HalfInt(343))) > models.BYTES_BUDGET


@pytest.mark.parametrize("twice_s", [20, 52, 60, 100])
def test_verify_spin_ladder(tmp_path, twice_s):
    # Every check passes (s* folds in the field error's growth with d)
    # within 5 s, and the estimate is 1 to 4 times the peak.
    code, seconds, peak = verify_run(tmp_path, f"{twice_s}/2")
    assert code == 0
    assert seconds < 5.0
    estimate = verify.dense_bytes(SpinModel(HalfInt(twice_s)))
    assert peak <= estimate <= 4 * peak


def test_verify_spin_20_is_not_refused(tmp_path):
    assert main(["verify", "--spin-S", "20", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("spin,capped", [("17/2", False), ("9", True)])
def test_verify_field_s_boundary(tmp_path, capsys, spin, capped):
    # s* = min(1, log(quad_tol / (100 eps)) / log kappa) up to d = 53
    # (``verify.field_margin``) falls below 1 from 2S = 18 on: there the
    # field checks run at s = 0, +-s*, and stdout and the report name
    # kappa and s*; up to 2S = 17 they run at s = 0, +-1 and neither has
    # a note.
    model = SpinModel(HalfInt.of(spin))
    s_star = verify.field_s_limit(model, 1e-8)
    assert (s_star < 1) == capped
    assert main(["verify", "--spin-S", spin, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    config = json.loads((tmp_path / "verify.json").read_text())["config"]
    if capped:
        assert 0.98 < s_star < 0.99
        assert out.startswith(f"note kappa={ps.kappa(model):.3e} "
                              f"s*={s_star:.3f}: ")
        assert (config["kappa"], config["s_star"]) == (ps.kappa(model),
                                                       s_star)
    else:
        assert s_star == 1.0
        assert "note" not in out and "kappa" not in config


def test_preformatted_coordinates_write_the_same_bytes(tmp_path):
    # phasespace passes its "theta,phi" text as one byte-matrix column
    # (grid_cells); the table must equal the ones written from str cells
    # and from three float columns.
    theta, phi = render.equirect_grid(7, 13)
    values = np.random.default_rng(170).normal(size=7 * 13) * 1e-5
    coords = [f"{t:.17g},{p:.17g}" for t in theta for p in phi]
    header = ["theta", "phi", "value"]
    render.write_csv(tmp_path / "text.csv", header, comments=["seed=0"],
                     columns=(coords, values))
    render.write_csv(tmp_path / "floats.csv", header, comments=["seed=0"],
                     columns=(np.repeat(theta, 13), np.tile(phi, 7), values))
    render.write_csv(tmp_path / "grid.csv", header, comments=["seed=0"],
                     columns=(render.grid_cells(theta, phi), values))
    want = (tmp_path / "floats.csv").read_bytes()
    assert (tmp_path / "text.csv").read_bytes() == want
    assert (tmp_path / "grid.csv").read_bytes() == want


BATCH_MODELS = ([SpinModel(HalfInt(k)) for k in (1, 2, 7, 20)]
                + [MultipartiteModel(n) for n in (1, 2, 3)]
                + [FermionicModel(n) for n in (1, 2, 3)])


def batch_grid(model):
    if model.band is None:
        return ps.mc_group_quadrature(model, 11, seed=model.n)
    return ps.default_grid(model)


def assert_close_to(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("nops", [1, 3, 5])
@pytest.mark.parametrize("model", BATCH_MODELS, ids=repr)
def test_batched_transforms_match_one_by_one_and_kernel_stack(model, nops):
    rng = np.random.default_rng(190 + model.dim + nops)
    grid = batch_grid(model)
    points, w = grid.points, np.asarray(grid.weights)
    ops = np.stack([rand_operator(model.dim, rng) for _ in range(nops)])
    # Column k of the factors (and of the fields below) is spec k mod 4.
    specs = [SPECS[k % len(SPECS)] for k in range(nops)]
    factors = all_factors(model, specs)
    stacks = [ps.kernel_stack(model, points, s) for s in specs]
    folded = ps.fields(model, ops, points, factors)
    assert folded.shape == (len(points), nops, nops)
    for i, A in enumerate(ops):
        assert_close_to(folded[:, i], ps.fields(model, A, points, factors))
        for k, stack in enumerate(stacks):
            want = np.einsum("nab,ba->n", stack, A)
            assert_close_to(folded[:, i, k], want)

    # The adjoint on random fields (a round trip back to A would cancel
    # terms up to kappa times larger): each column is reconstruct of its
    # field and the weighted sum of the dual kernel stack.
    shape = (len(points), nops)
    fields = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    duals = all_factors(model, [s.dual() for s in specs])
    back = ps.kernel_sums(model, points, w[:, None] * fields, duals)
    assert back.shape == (nops, model.dim, model.dim)
    for k, spec in enumerate(specs):
        field = ps.SymbolField(model, grid, spec, fields[:, k])
        assert_close_to(back[k], ps.reconstruct(field))
        dual_stack = ps.kernel_stack(model, points, spec.dual())
        assert_close_to(back[k], np.einsum("n,nab->ab", w * fields[:, k],
                                           dual_stack))


def test_batched_chunk_split_matches_one_pass(monkeypatch):
    model = SpinModel(10)
    grid = ps.default_grid(model)
    rng = np.random.default_rng(200)
    ops = np.stack([rand_operator(model.dim, rng) for _ in range(3)])
    factors = all_factors(model, SPECS[:3])
    weights = rng.normal(size=(len(grid.points), 3))
    whole = ps.fields(model, ops, grid.points, factors)
    sums = ps.kernel_sums(model, grid.points, weights, factors)
    monkeypatch.setattr(models, "TABLE_BYTES", 2 ** 15)
    assert len(chunk_thetas(model, grid.points, 9)) > 1
    assert_close_to(ps.fields(model, ops, grid.points, factors), whole)
    assert_close_to(ps.kernel_sums(model, grid.points, weights, factors),
                    sums)
