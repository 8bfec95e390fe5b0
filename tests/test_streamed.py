"""Streamed phase-space fields against the kernel-stack oracle, the chunked
Haar stream, the closed-form duality identity and the table writers."""

import numpy as np
import pytest

from sweyl import gfd, render
from sweyl import phase_space as ps
from sweyl.cli import main
from sweyl.clebsch import HalfInt
from sweyl.models import FermionicModel, MultipartiteModel, SpinModel
from sweyl.paulis import PauliSum
from sweyl.verify import _LIN_TOL, duality_identity_deviation

from oracles import center_factor_per_label, read_csv

SPECS = [ps.KernelSpec.cahill_glauber(s) for s in (-1.0, 0.0, 0.5, 1.0)]


def rand_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def stack_field(model, A, points, spec):
    """The oracle: contract the (N, d, d) kernel stack with A."""
    return np.einsum("nab,ba->n", ps.kernel_stack(model, points, spec), A)


def assert_field_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("twice_s", range(1, 13))
def test_spin_symbol_field_matches_kernel_stack(twice_s):
    model = SpinModel(HalfInt(twice_s))
    grid = ps.default_grid(model)
    A = rand_hermitian(model.dim, np.random.default_rng(twice_s))
    for spec in SPECS:
        got = ps.symbol_field(model, A, grid, spec).values
        assert_field_close(got, stack_field(model, A, grid.points, spec))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multipartite_symbol_field_matches_kernel_stack(n):
    model = MultipartiteModel(n)
    grid = ps.default_grid(model)
    A = rand_hermitian(model.dim, np.random.default_rng(40 + n))
    for spec in SPECS:
        got = ps.symbol_field(model, A, grid, spec).values
        assert_field_close(got, stack_field(model, A, grid.points, spec))


def test_one_qubit_marginal_nodes_match_kernel_stack():
    # The phasespace route: an (N, 1, 2) node array on one qubit.
    target = MultipartiteModel(1)
    theta, phi = render.equirect_grid(6, 10)
    nodes = np.stack((np.repeat(theta, 10), np.tile(phi, 6)), axis=1)
    A = rand_hermitian(2, np.random.default_rng(44))
    factors = np.stack([ps.sector_factors(target, spec) for spec in SPECS],
                       axis=1)
    table = ps.fields(target, A, nodes[:, None, :], factors)
    points = [((t, p),) for t, p in nodes]
    for k, spec in enumerate(SPECS):
        assert_field_close(table[:, k],
                           stack_field(target, A, points, spec))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fermionic_symbol_field_matches_kernel_stack(n):
    model = FermionicModel(n)
    grid = ps.mc_group_quadrature(model, 12, seed=n)
    A = rand_hermitian(model.dim, np.random.default_rng(50 + n))
    for spec in SPECS:
        got = ps.symbol_field(model, A, grid, spec).values
        assert_field_close(got, stack_field(model, A, grid.points, spec))


def test_generalized_symbol_field_matches_kernel_stack():
    model = SpinModel(2)
    grid = ps.default_grid(model)
    A = rand_hermitian(model.dim, np.random.default_rng(60))
    spec = ps.KernelSpec.generalized({0: 1.0, 1: 0.3, 2: -2.0, 4: 0.7})
    got = ps.symbol_field(model, A, grid, spec).values
    assert_field_close(got, stack_field(model, A, grid.points, spec))


@pytest.mark.parametrize("model", [SpinModel(HalfInt(5)), SpinModel(4),
                                   MultipartiteModel(2)], ids=repr)
def test_reconstruct_matches_kernel_stack(model):
    grid = ps.default_grid(model)
    A = rand_hermitian(model.dim, np.random.default_rng(61))
    for spec in SPECS:
        field = ps.symbol_field(model, A, grid, spec)
        stack = ps.kernel_stack(model, grid.points, spec.dual())
        want = np.tensordot(grid.weights * field.values, stack, axes=1)
        got = ps.reconstruct(field)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_spin_point_unitaries_with_repeated_theta_equal_pointwise():
    model = SpinModel(HalfInt(7))
    rng = np.random.default_rng(62)
    theta = rng.uniform(0, np.pi, size=4)
    pts = [(theta[k % 4], rng.uniform(0, 2 * np.pi)) for k in range(13)]
    U = model.point_unitaries(pts)
    for k, p in enumerate(pts):
        assert np.array_equal(U[k], model.point_unitary(p))


@pytest.mark.parametrize("model", [
    SpinModel(HalfInt(1)), SpinModel(HalfInt(5)), SpinModel(6),
    MultipartiteModel(1), MultipartiteModel(3), FermionicModel(1),
    FermionicModel(3)], ids=repr)
def test_center_kernel_is_exactly_diagonal(model):
    # The center kernel built from the dense sector blocks is diagonal, and
    # its diagonal is the declared one.
    lams = model.labels()
    generalized = ps.KernelSpec.generalized(
        {lam: 1.0 + k for k, lam in enumerate(lams)})
    hw = model.hw_state()
    hw_proj = np.outer(hw, hw.conj())
    for spec in SPECS + [generalized]:
        D0 = sum(center_factor_per_label(spec, model, block.label)
                 * block.project(hw_proj)
                 for block in model.blocks())
        assert np.count_nonzero(D0 - np.diag(np.diagonal(D0))) == 0
        got = ps.center_diagonal(model, spec)
        assert np.max(np.abs(got - np.diagonal(D0))) <= \
            1e-14 * np.max(np.abs(D0))


@pytest.mark.parametrize(
    "model", [SpinModel(HalfInt(k)) for k in range(1, 13)]
    + [MultipartiteModel(n) for n in range(1, 5)]
    + [FermionicModel(n) for n in range(1, 5)], ids=repr)
def test_hw_sector_diagonals_match_dense_projections(model):
    hw = model.hw_state()
    hw_proj = np.outer(hw, hw.conj())
    table = model.hw_sector_diagonals()
    assert table.shape == (len(model.labels()), model.dim)
    for row, block in zip(table, model.blocks()):
        want = np.diagonal(block.project(hw_proj))
        assert np.max(np.abs(row - want)) <= 1e-14


def _accepted(model, svals):
    """The ``--s`` values phasespace accepts: eps * kappa**s <= 1e-8."""
    kappa = ps.kappa(model)
    return [s for s in svals
            if s <= 0 or np.finfo(float).eps * kappa ** s <= 1e-8]


@pytest.mark.parametrize("spin", ["1/2", "3", "12", "30", "100"])
def test_hw_field_matches_legendre_closed_form(tmp_path, spin):
    # F_hw(theta, s) = sum_lam (2 lam + 1) tau_lam**((1-s)/2) P_lam(cos
    # theta), from the addition theorem; it shares no code with the field.
    # Every coefficient is positive, so the maximum is the value at theta = 0.
    special = pytest.importorskip("scipy.special")
    model = SpinModel(HalfInt.of(spin))
    svals = _accepted(model, [-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0])
    assert main(["phasespace", "--spin-S", spin, "--state", "hw",
                 "--grid", "12x2", "--out", str(tmp_path)]
                + [f"--s={s}" for s in svals]) == 0
    lams = np.array(model.labels())
    taus = np.array([model.tau(lam) for lam in lams])
    for s in svals:
        _, rows = read_csv(tmp_path / f"field_hw_s{s:+g}.csv")
        theta, _, got = np.array(rows, dtype=float).T
        P = special.eval_legendre(lams[:, None], np.cos(theta)[None, :])
        coeffs = (2 * lams + 1) * taus ** ((1 - s) / 2)
        want = coeffs @ P
        assert np.max(np.abs(got - want)) <= 1e-9 * np.sum(coeffs)


@pytest.mark.parametrize("spin,code", [("12", 0), ("13", 2)])
def test_kappa_rule_boundary_at_s_1(tmp_path, spin, code):
    assert main(["phasespace", "--spin-S", spin, "--s", "1", "--grid", "2x2",
                 "--out", str(tmp_path)]) == code
    assert main(["star", "--spin-S", spin, "--s", "1", "--points", "3",
                 "--out", str(tmp_path)]) == code


@pytest.mark.parametrize(
    "model", [SpinModel(HalfInt(k)) for k in range(1, 61)]
    + [MultipartiteModel(n) for n in range(1, 5)]
    + [FermionicModel(n) for n in range(1, 5)], ids=repr)
def test_duality_identity_is_exact(model):
    assert duality_identity_deviation(model) <= _LIN_TOL


def test_haar_chunks_stream():
    chunks = list(gfd.haar_chunks(5, 600, seed=3))
    assert [len(c) for c in chunks] == [256, 256, 88]
    psi = np.vstack(chunks)
    assert np.allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-14)
    # a shorter stream is a prefix of the longer one
    assert np.array_equal(np.vstack(list(gfd.haar_chunks(5, 300, 3))),
                          psi[:300])


def test_empty_pauli_sum_on_spin_raises():
    with pytest.raises(ValueError):
        gfd.purity_spectrum(PauliSum(2), SpinModel(HalfInt(3)))


# -- writers: byte identity with the cell-by-cell loops they replace ----------

def _csv_cell_loop(path, header, rows, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(c if isinstance(c, str)
                              else format(float(c), ".17g") for c in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _ppm_pixel_loop(path, rgb, comments=()):
    h, w, _ = rgb.shape
    lines = ["P3"] + [f"# {c}" for c in comments] + [f"{w} {h}", "255"]
    for row in rgb:
        for px in row:
            lines.append(f"{px[0]} {px[1]} {px[2]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_write_csv_mixed_purities_table_is_byte_identical(tmp_path):
    model = SpinModel(HalfInt(5))
    psi = model.haar_state(7)
    spectrum = gfd.purity_spectrum(np.outer(psi, psi.conj()), model)
    rows = []
    for s in (-1.0, 0.0, 1.0):
        filtered = gfd.phase_purity(spectrum, s, model)
        for lam in model.labels():
            rows.append(["spin", "haar", s, str(lam),
                         float(model.irrep_dim(lam)), model.tau(lam),
                         spectrum[lam], filtered[lam]])
    rows.append(["spin", "edge", -0.0, "x", float("inf"), 1e-300, 0.1, -2.5])
    header = ["model", "state", "s", "sector", "dim", "tau", "purity",
              "phase_purity"]
    render.write_csv(tmp_path / "fast.csv", header, comments=["seed=1"],
                     columns=list(zip(*rows)))
    _csv_cell_loop(tmp_path / "loop.csv", header, rows, comments=["seed=1"])
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("ntheta,nphi", [(1, 1), (7, 13), (64, 128)])
def test_write_csv_field_columns_are_byte_identical(tmp_path, ntheta, nphi):
    theta, phi = render.equirect_grid(ntheta, nphi)
    rng = np.random.default_rng(ntheta)
    field = rng.normal(size=(ntheta, nphi)) * 10.0 ** rng.integers(
        -20, 20, size=(ntheta, nphi))
    render.write_csv(tmp_path / "fast.csv", ["theta", "phi", "value"],
                     comments=["seed=0"],
                     columns=(np.repeat(theta, nphi), np.tile(phi, ntheta),
                              field.ravel()))
    rows = [[theta[i], phi[j], field[i, j]]
            for i in range(ntheta) for j in range(nphi)]
    _csv_cell_loop(tmp_path / "loop.csv", ["theta", "phi", "value"], rows,
                   comments=["seed=0"])
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("h,w", [(1, 1), (3, 5), (12, 25), (33, 65)])
def test_write_ppm_is_byte_identical(tmp_path, h, w):
    rgb = np.random.default_rng(h * w).integers(0, 256, size=(h, w, 3),
                                                dtype=np.uint8)
    comments = ["seed=0", "state=hw s=0 proj=robinson"]
    render.write_ppm(tmp_path / "fast.ppm", rgb, comments=comments)
    _ppm_pixel_loop(tmp_path / "loop.ppm", rgb, comments=comments)
    assert (tmp_path / "fast.ppm").read_bytes() == \
        (tmp_path / "loop.ppm").read_bytes()


_NEG_NAN = float(np.copysign(np.nan, -1.0))


@pytest.mark.parametrize("values", [
    [0.25] * 40,
    [1.0, -3.5, 1.0, 1.0, 2.0 / 3.0, -3.5, 2.0 / 3.0, 1.0] * 5,
    [0.0, -0.0, 0.0, -0.0, 1.0, -0.0],
    [np.nan, np.inf, -np.inf, _NEG_NAN, 1.0, np.nan, -np.inf, np.inf],
    [5e-324, -5e-324, 2.2250738585072009e-308, 5e-324, 1e-310, -1e-310],
    [3, 3.0, -7, 0, 2**53, 1e16, -2.0, 3],
], ids=["constant", "repeats", "signed-zeros", "non-finite", "subnormals",
        "int-valued"])
def test_write_csv_repeated_and_special_cells_are_byte_identical(tmp_path,
                                                                 values):
    # Each distinct double is formatted once and mapped back to its rows.
    rows = [[f"r{i}", v, values[-1 - i]] for i, v in enumerate(values)]
    header = ["label", "value", "mirror"]
    render.write_csv(tmp_path / "cols.csv", header, comments=["c"],
                     columns=list(zip(*rows)))
    _csv_cell_loop(tmp_path / "loop.csv", header, rows, comments=["c"])
    assert (tmp_path / "cols.csv").read_bytes() == \
        (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("nrows", [0, 1] + [k * render._CSV_BLOCK + r for k in
                                           (1, 3) for r in (-1, 0, 1)])
def test_write_csv_row_blocks_are_byte_identical(tmp_path, nrows):
    # An empty table is its header; longer ones are joined in row blocks.
    rng = np.random.default_rng(nrows)
    columns = ([str(i) for i in range(nrows)],
               rng.integers(-3, 4, size=nrows) / 7)
    rows = [[i, float(v)] for i, v in zip(*columns)]
    render.write_csv(tmp_path / "fast.csv", ["i", "v"], comments=["x"],
                     columns=columns)
    _csv_cell_loop(tmp_path / "loop.csv", ["i", "v"], rows, comments=["x"])
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("nrows", [k * render._CSV_BLOCK + r for k in
                                   (1, 2) for r in (-1, 0, 1)])
def test_write_csv_byte_matrix_rows_at_block_boundaries(tmp_path, nrows):
    # A "theta,phi" byte-matrix column, as phasespace passes it, beside
    # floats that take both routes of render.float_cells: fixed notation,
    # and % for zeros, tiny, huge and non-finite values.
    rng = np.random.default_rng(nrows)
    theta = rng.uniform(0, np.pi, size=nrows)
    phi = rng.uniform(0, 2 * np.pi, size=nrows)
    special = np.array([0.0, -0.0, 1e-300, -3e-5, 1e17, 2.5e300, np.nan,
                        -np.inf, 1000000000000000.25, 100.0, -0.5])
    values = np.where(rng.random(nrows) < 0.3,
                      rng.choice(special, size=nrows),
                      rng.normal(size=nrows) * 10.0 ** rng.integers(
                          -6, 18, size=nrows))
    comma = np.full((nrows, 1), ord(","), dtype=np.uint8)
    coords = np.concatenate(
        [render.float_cells(theta), comma, render.float_cells(phi)], axis=1)
    render.write_csv(tmp_path / "fast.csv", ["theta", "phi", "value"],
                     comments=["seed=0"], columns=(coords, values))
    rows = [[t, p, v] for t, p, v in zip(theta, phi, values)]
    _csv_cell_loop(tmp_path / "loop.csv", ["theta", "phi", "value"], rows,
                   comments=["seed=0"])
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "loop.csv").read_bytes()


def test_write_csv_text_cells_are_utf8_and_refuse_nul(tmp_path):
    # NUL pads the byte matrices, so a text cell that holds one would lose
    # it silently: it is refused before the file is opened.
    rows = [["état", 1.5], ["ψ", -2.0], ["", 0.0]]
    render.write_csv(tmp_path / "fast.csv", ["name", "v"], comments=["ψ=1"],
                     columns=list(zip(*rows)))
    _csv_cell_loop(tmp_path / "loop.csv", ["name", "v"], rows,
                   comments=["ψ=1"])
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "loop.csv").read_bytes()
    with pytest.raises(ValueError, match="NUL"):
        render.write_csv(tmp_path / "nul.csv", ["name", "v"],
                         columns=(["a\0b", "c"], [1.0, 2.0]))
    assert not (tmp_path / "nul.csv").exists()


def test_write_ppm_every_level_in_every_channel_is_byte_identical(tmp_path):
    levels = np.arange(256, dtype=np.uint8)
    shuffled = levels * np.uint8(7) + np.uint8(3)  # a permutation mod 256
    rgb = np.stack([levels, levels[::-1], shuffled], axis=-1).reshape(16, 16, 3)
    for k in range(3):
        assert set(rgb[..., k].ravel()) == set(range(256))
    comments = ["seed=0", "état=ψ s=−1 proj=robinson"]
    render.write_ppm(tmp_path / "fast.ppm", rgb, comments=comments)
    _ppm_pixel_loop(tmp_path / "loop.ppm", rgb, comments=comments)
    assert (tmp_path / "fast.ppm").read_bytes() == \
        (tmp_path / "loop.ppm").read_bytes()


def test_cli_phasespace_several_s_match_pointwise_symbol(tmp_path):
    # Several --s share each state's table; every field matches the
    # pointwise symbol.
    assert main(["phasespace", "--spin-S", "3/2", "--state", "ghz",
                 "--state", "m=1/2", "--s", "-1", "--s", "0.5",
                 "--grid", "5x9", "--out", str(tmp_path)]) == 0
    model = SpinModel(HalfInt(3))
    for sel in ("ghz", "m=1/2"):
        psi = model.named_state(sel)
        rho = np.outer(psi, psi.conj())
        for s in (-1.0, 0.5):
            tag = f"{sel.replace('=', '').replace('/', '_')}_s{s:+g}"
            _, rows = read_csv(tmp_path / f"field_{tag}.csv")
            spec = ps.KernelSpec.cahill_glauber(s)
            for theta, phi, value in ((float(c) for c in r) for r in rows):
                ref = ps.symbol(model, rho, (theta, phi), spec).real
                assert value == pytest.approx(ref, rel=1e-12, abs=1e-14)
