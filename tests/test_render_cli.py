"""Rendering helpers and the command-line entry point."""

import contextlib
import io
import json
import math
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sweyl import cli, gfd, models, phase_space as ps, render, verify
from sweyl.cli import main
from sweyl.paulis import PauliString
from sweyl.verify import CheckResult, make_model

from test_sector_coefficients import _flipped_word

from oracles import (PauliSum, pauli_sum_purities, purities_by_state,
                     read_csv, template_grid_cells, template_write_csv,
                     template_write_json, template_write_ppm,
                     word_sector_purities)


def test_colorize_grayscale():
    vals = np.array([[0.0, 1.0], [0.25, 0.5]])
    rgb = render.colorize(vals)
    assert rgb.shape == (2, 2, 3)
    assert tuple(rgb[0, 0]) == (0, 0, 0)
    assert tuple(rgb[0, 1]) == (255, 255, 255)
    assert rgb[1, 0, 0] == 64  # floor(255 * 0.25 + 0.5)


def test_colorize_diverging():
    vals = np.array([[-1.0, 0.0, 1.0]])
    rgb = render.colorize(vals)
    assert tuple(rgb[0, 0]) == (0, 0, 255)      # most negative: blue
    assert tuple(rgb[0, 1]) == (255, 255, 255)  # zero: white
    assert tuple(rgb[0, 2]) == (255, 0, 0)      # most positive: red


def test_ppm_format(tmp_path):
    rgb = render.colorize(np.array([[0.0, 1.0]]))
    path = tmp_path / "img.ppm"
    render.write_ppm(path, rgb, comments=["seed=0"])
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "P3"
    assert lines[1] == "# seed=0"
    assert lines[2] == "2 1"
    assert lines[3] == "255"
    assert lines[4] == "0 0 0" and lines[5] == "255 255 255"


def test_csv_round_trip(tmp_path):
    rows = [["a", 1 / 3, 2e-17], ["b", -0.1, 1e300]]
    path = tmp_path / "t.csv"
    render.write_csv(path, ["name", "x", "y"], comments=["seed=3"],
                     columns=list(zip(*rows)))
    header, got = read_csv(path)
    assert header == ["name", "x", "y"]
    assert got[0][0] == "a"
    assert float(got[0][1]) == 1 / 3  # full precision survives
    assert float(got[1][2]) == 1e300
    assert path.read_text().startswith("# seed=3\n")


def test_equirect_grid():
    theta, phi = render.equirect_grid(4, 8)
    assert len(theta) == 4 and len(phi) == 8
    assert theta[0] == pytest.approx(math.pi / 8)  # cell-centered
    assert phi[0] == 0.0 and phi[-1] < 2 * math.pi


def test_robinson_remap_structure():
    h, w = 36, 72
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    rgb[:, :, 0] = np.linspace(0, 255, h).astype(np.uint8)[:, None]
    out = render.robinson_remap(rgb)
    assert out.shape == rgb.shape
    # Corners fall outside the shrunken polar rows: background.
    assert tuple(out[0, 0]) == render.BACKGROUND
    assert tuple(out[-1, -1]) == render.BACKGROUND
    # The central meridian is always inside the map.
    assert tuple(out[h // 2, w // 2]) != render.BACKGROUND
    # Row sources are monotone from north to south.
    reds = [int(out[r, w // 2, 0]) for r in range(h)]
    assert all(a <= b for a, b in zip(reds, reds[1:]))
    # Polar rows are narrower than equatorial ones.
    width_pole = np.sum([tuple(px) != render.BACKGROUND for px in out[0]])
    width_eq = np.sum([tuple(px) != render.BACKGROUND for px in out[h // 2]])
    assert width_pole < width_eq


# -- CLI ----------------------------------------------------------------------

def test_cli_verify_ok(tmp_path, capsys):
    code = main(["verify", "--qrt", "spin", "--spin-S", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["config"]["qrt"] == "spin"
    assert all(c["passed"] for c in doc["checks"])
    assert {"name", "passed", "value", "bound", "tolerance"} <= \
        set(doc["checks"][0])
    out = capsys.readouterr().out
    assert "ok " in out and "FAIL" not in out


def test_cli_verify_reports_failure(tmp_path, monkeypatch):
    import sweyl.cli as cli
    fake = [CheckResult("synthetic", False, 1.0, 0.5, 0.5)]
    monkeypatch.setattr(cli.verify, "run_checks",
                        lambda *a, **k: fake)
    code = main(["verify", "--out", str(tmp_path)])
    assert code == 1


def test_cli_purities_csv(tmp_path):
    code = main(["purities", "--qrt", "spin", "--spin-S", "1",
                 "--state", "hw", "--s", "1", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "purities.csv")
    assert header[:4] == ["model", "state", "s", "sector"]
    by_sector = {r[3]: r for r in rows}
    assert float(by_sector["2"][5]) == pytest.approx(1 / 30)  # tau
    assert float(by_sector["2"][7]) == pytest.approx(5.0)  # filtered, s=1
    text = (tmp_path / "purities.csv").read_text()
    assert text.startswith("# seed=0\n")


def test_cli_purities_json(tmp_path):
    code = main(["purities", "--qrt", "multipartite", "--n", "2",
                 "--state", "ghz", "--format", "json",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "purities.json").read_text())
    assert doc["seed"] == 0
    assert len(doc["rows"]) == 3 * 4  # three default s values, four sectors


def test_cli_phasespace_deterministic(tmp_path):
    args = ["phasespace", "--qrt", "spin", "--spin-S", "2", "--state", "ghz",
            "--s", "0", "--grid", "12x24", "--projection", "robinson"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("field_ghz_s+0.csv", "field_ghz_s+0.ppm"):
        ba = (tmp_path / "a" / name).read_bytes()
        bb = (tmp_path / "b" / name).read_bytes()
        assert ba == bb


def test_cli_phasespace_multipartite_marginal(tmp_path):
    # The rendered sphere is the one-qubit marginal: the single-qubit
    # symbol of the partial trace, scaled by the rest-measure factor
    # (2**(n-1))**((s-1)/2).  For |00> at s = -1 that is half the qubit
    # Husimi function cos(theta/2)^2.
    code = main(["phasespace", "--qrt", "multipartite", "--n", "2",
                 "--state", "hw", "--s", "-1", "--grid", "6x6",
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "field_hw_s-1.csv")
    for theta, phi, value in ((float(c) for c in r) for r in rows):
        want = 0.5 * math.cos(theta / 2) ** 2  # (1/rest) * qubit Husimi
        assert value == pytest.approx(want, abs=1e-12)


def test_cli_rejects_bad_input(tmp_path):
    out = ["--out", str(tmp_path)]
    assert main(["phasespace", "--qrt", "fermionic", "--n", "2"] + out) == 2
    assert main(["phasespace", "--grid", "0x8"] + out) == 2
    assert main(["phasespace", "--grid", "16by32"] + out) == 2
    assert main(["purities", "--state", "bogus"] + out) == 2
    assert main(["purities", "--spin-S", "nonsense"] + out) == 2
    assert main(["star", "--qrt", "multipartite"] + out) == 2
    assert main(["duality", "--samples", "1"] + out) == 2


def test_cli_duality_and_star(tmp_path):
    code = main(["duality", "--qrt", "spin", "--spin-S", "1", "--s", "0",
                 "--samples", "200", "--seed", "42", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "duality.json").read_text())
    assert len(doc["checks"]) == 3
    code = main(["star", "--qrt", "spin", "--spin-S", "1", "--points", "5",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "star.json").read_text())
    assert doc["checks"][0]["passed"]


# Rows (s, label, mean, se, rhs, z, trivial) of spin S = 2 at s = 0: two
# that pass and one the gate must fail, named by its row.
_GOOD_ROWS = [gfd.DualityRow(0.0, 0, 0.2, 0.0, 0.2, 0.0, True),
              gfd.DualityRow(0.0, 1, 0.1, 0.01, 0.1, 3.9, False)]


@pytest.mark.parametrize("bad", [
    gfd.DualityRow(0.0, 2, 0.15, 0.01, 0.1, 5.0, False),
    gfd.DualityRow(0.0, 2, 0.05, 0.01, 0.1, -5.0, False),
    gfd.DualityRow(0.0, 0, 0.2 + 1e-9, 0.0, 0.2, 0.0, True),
], ids=["z+5", "z-5", "trivial-1e-9"])
def test_cli_duality_gate_fails_on_a_bad_row(tmp_path, monkeypatch, bad):
    monkeypatch.setattr(gfd, "duality_check",
                        lambda *args: _GOOD_ROWS + [bad])
    assert main(["duality", "--s", "0", "--out", str(tmp_path)]) == 1
    checks = json.loads((tmp_path / "duality.json").read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == [
        f"duality[s=0,sector={bad.label}]"]
    assert len(checks) == 3


def test_cli_star_gate_fails_on_a_wrong_product(tmp_path, monkeypatch):
    # Products 1e-3 off, far past the 1e-6 gate, fail every --s row.
    star_product = ps.star_product
    monkeypatch.setattr(ps, "star_product",
                        lambda *args: star_product(*args) + 1e-3)
    assert main(["star", "--s", "0", "--s", "-0.5",
                 "--out", str(tmp_path)]) == 1
    checks = json.loads((tmp_path / "star.json").read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == [
        "star_product[s=0]", "star_product[s=-0.5]"]


def test_cli_verify_gate_fails_on_a_broken_basis(monkeypatch, capsys,
                                                 tmp_path):
    model = _flipped_word(make_model("multipartite", "2", 2))
    monkeypatch.setattr(verify, "make_model", lambda *args: model)
    assert main(["verify", "--qrt", "multipartite", "--n", "2",
                 "--out", str(tmp_path)]) == 1
    assert "FAIL sector_orthonormality" in capsys.readouterr().out


def _robinson_pixel_loop(rgb, background=render.BACKGROUND):
    """Per-pixel reference for robinson_remap."""
    h, w, _ = rgb.shape
    out = np.empty_like(rgb)
    out[...] = np.array(background, dtype=np.uint8)
    for r in range(h):
        y = 1 - 2 * (r + 0.5) / h
        lat = float(np.interp(abs(y), render._PDFE, render._LATS))
        plen = float(np.interp(lat, render._LATS, render._PLEN))
        theta = math.radians(90 - math.copysign(lat, y))
        src_r = min(h - 1, max(0, int(theta / math.pi * h)))
        for c in range(w):
            u = (c + 0.5) / w - 0.5
            if abs(u) <= plen / 2:
                src_c = min(w - 1, max(0, int((u / plen + 0.5) * w)))
                out[r, c] = rgb[src_r, src_c]
    return out


@pytest.mark.parametrize("h,w", [(1, 1), (5, 7), (12, 24), (33, 65), (64, 128)])
def test_robinson_remap_matches_pixel_loop(tmp_path, h, w):
    rng = np.random.default_rng(h * 1000 + w)
    rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    render.write_ppm(tmp_path / "fast.ppm", render.robinson_remap(rgb))
    render.write_ppm(tmp_path / "loop.ppm", _robinson_pixel_loop(rgb))
    assert (tmp_path / "fast.ppm").read_bytes() == \
        (tmp_path / "loop.ppm").read_bytes()


@pytest.mark.parametrize("argv", [
    ["purities", "--qrt", "fermionic", "--n", "11"],
    ["verify", "--qrt", "fermionic", "--n", "11"],  # label cap: n <= 10
    ["purities", "--qrt", "multipartite", "--n", "11"],
    ["verify", "--qrt", "multipartite", "--n", "7"],  # dense_bytes: 3.7 GB
])
def test_cli_oversized_qubit_models_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_verify_fermionic_9_passes_every_check(tmp_path):
    # The point unitaries' generators are Pauli-word sums, O(n d**2), so
    # no work estimate refuses n = 9 (about 1 s); only the label cap,
    # n <= 10, bounds fermions.
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--qrt", "fermionic", "--n", "9",
                     "--out", str(tmp_path)])
    assert code == 0
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert checks and all(check["passed"] for check in checks)


def test_cli_verify_fermionic_past_the_block_cap_exits_0(tmp_path):
    # Fermions have no grid and no harmonics, and the sector checks build
    # no dense block, so n = 5 runs past the n <= 4 block cap.
    assert main(["verify", "--qrt", "fermionic", "--n", "5",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("qrt", ["multipartite", "fermionic"])
def test_cli_purities_n10_matches_pauli_route(tmp_path, qrt):
    # hw = 2**-n sum_S Z_S and ghz = 2**-n sum_(|S| even) (Z_S + X_all Z_S),
    # read through each word's oracle sector_of, against the CLI's Pauli
    # transform and the word-sector route's word_sectors.
    n, full = 10, (1 << 10) - 1
    assert main(["purities", "--qrt", qrt, "--n", str(n), "--state", "hw",
                 "--state", "ghz", "--s", "0", "--out", str(tmp_path)]) == 0
    hw, ghz = PauliSum(n), PauliSum(n)
    for z in range(1 << n):
        hw.add_string(PauliString(n, 0, z), 2.0 ** -n)
        if z.bit_count() % 2 == 0:
            ghz.add_string(PauliString(n, 0, z), 2.0 ** -n)
            ghz.add_string(PauliString(n, full, z), 2.0 ** -n)
    model = make_model(qrt, n=n)
    _, rows = read_csv(tmp_path / "purities.csv")
    assert len(rows) == 2 * len(model.labels())
    for state, op in (("hw", hw), ("ghz", ghz)):
        want = pauli_sum_purities(model, op)
        route = word_sector_purities(op, model)
        got = {r[3]: float(r[6]) for r in rows if r[1] == state}
        for lam in model.labels():
            key = "".join(map(str, lam)) if qrt == "multipartite" else str(lam)
            assert abs(got[key] - want[lam]) <= 1e-14
            assert abs(route[lam] - want[lam]) <= 1e-14


def test_cli_phasespace_past_the_spin_table_exits_2_fast(tmp_path, capsys):
    # Refused by the CG table's cap before the exact tau of 2001 sectors
    # (about 26 s at S = 1000).
    start = time.perf_counter()
    code = main(["phasespace", "--spin-S", "1000", "--grid", "2x4",
                 "--out", str(tmp_path)])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "capped at 2S <= 200" in capsys.readouterr().err


def test_cli_star_points_cap_boundary(tmp_path, monkeypatch):
    # Two --s at d = 3: a budget of 3 points' work admits 3 and refuses 4.
    monkeypatch.setattr(models, "WORK_BUDGET", 3 * 2 * (3 ** 3 + 2 * 10**4))
    argv = ["star", "--spin-S", "1", "--s", "0", "--s", "-1",
            "--out", str(tmp_path)]
    assert main(argv + ["--points", "3"]) == 0
    assert main(argv + ["--points", "4"]) == 2


def test_colorize_rounding_level_field_is_uniform(tmp_path):
    # The multi-qubit GHZ marginal is exactly 1/4; summation order leaves
    # +-1 ulp of noise, which must not be stretched to the full scale.
    rng = np.random.default_rng(5)
    for value in (0.25, -0.25):
        noise = rng.integers(-1, 2, size=(16, 32)) * np.spacing(value)
        rgb = render.colorize(value + noise)
        assert len(np.unique(rgb.reshape(-1, 3), axis=0)) == 1
        render.write_ppm(tmp_path / "a.ppm", rgb)
        shuffled = rng.permutation(noise.ravel()).reshape(noise.shape)
        render.write_ppm(tmp_path / "b.ppm", render.colorize(value + shuffled))
        assert (tmp_path / "a.ppm").read_bytes() == \
            (tmp_path / "b.ppm").read_bytes()


def test_colorize_rounding_level_negatives_stay_grayscale(tmp_path):
    # A Husimi field is non-negative, but summation order leaves its zeros
    # at +-ulps of its maximum: it must be drawn as the clipped field.
    rng = np.random.default_rng(6)
    field = np.maximum(rng.normal(size=(16, 32)), 0.0)
    noise = rng.integers(-4, 5, size=field.shape) * np.spacing(field.max())
    noisy = field + noise
    assert noisy.min() < 0
    render.write_ppm(tmp_path / "noisy.ppm", render.colorize(noisy))
    render.write_ppm(tmp_path / "clipped.ppm",
                     render.colorize(np.maximum(noisy, 0.0)))
    assert (tmp_path / "noisy.ppm").read_bytes() == \
        (tmp_path / "clipped.ppm").read_bytes()
    assert tuple(render.colorize(noisy)[field == 0][0]) == (0, 0, 0)
    # A negative part above rounding level keeps the diverging scale, on
    # which zero is white.
    rgb = render.colorize(field - 1e-9 * field.max())
    assert tuple(rgb[field == 0][0]) == (255, 255, 255)


def test_cli_phasespace_half_integer_m(tmp_path, capsys):
    code = main(["phasespace", "--spin-S", "3/2", "--state", "m=1/2",
                 "--state", "m=-3/2", "--grid", "4x8", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.out + captured.err
    for tag in ("m1_2", "m-3_2"):
        for ext in ("csv", "ppm"):
            assert (tmp_path / f"field_{tag}_s+0.{ext}").is_file()


@pytest.mark.parametrize("argv", [
    ["phasespace", "--qrt", "spin", "--spin-S", "101"],  # past the CG table
    ["purities", "--qrt", "spin", "--spin-S", "5000"],
    # 32 M nodes: the field table and its CSV text alone are over
    # models.BYTES_BUDGET
    ["phasespace", "--qrt", "spin", "--spin-S", "2", "--grid", "4000x8000"],
    # eps * kappa**s = 1.6e-3 of the field's maximum
    ["phasespace", "--qrt", "spin", "--spin-S", "30", "--s", "1"],
    ["star", "--qrt", "spin", "--spin-S", "201/2"],  # past the CG table
    # the kappa rule: a correct star would read 8e-5 against its 1e-6 bound
    ["star", "--qrt", "spin", "--spin-S", "20", "--s", "0", "--s", "1"],
    # and at the dual -s of a negative --s, which would read 7.4e37
    ["star", "--qrt", "spin", "--spin-S", "20", "--s=-3"],
])
def test_cli_oversized_spin_exit_2_before_allocating(tmp_path, capsys, argv):
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert peak < 8 * 2 ** 20  # a d x d state alone would be 0.6 MB-1.6 GB


def test_cli_phasespace_spin_30_builds_no_dense_blocks(tmp_path):
    # The 61 dense sector blocks of S = 30 alone hold 221 MB.
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["phasespace", "--spin-S", "30", "--grid", "8x16",
                     "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2 ** 20


def test_cli_duality_fermionic_runs(tmp_path):
    assert main(["duality", "--qrt", "fermionic", "--n", "3",
                 "--out", str(tmp_path)]) == 0


def test_cli_purities_spin_60_hw_matches_closed_form(tmp_path):
    from sweyl.gfd import closed_form_spin_purity

    assert main(["purities", "--qrt", "spin", "--spin-S", "60", "--state", "hw",
                 "--state", "haar", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "purities.csv")
    col = {name: i for i, name in enumerate(header)}
    hw = [r for r in rows if r[col["state"]] == "hw"]
    assert len(hw) == 3 * 121
    for r in hw:
        ref = closed_form_spin_purity(60, 60, int(r[col["sector"]]))
        assert abs(float(r[col["purity"]]) - ref) <= 1e-11 * ref


@pytest.mark.parametrize("argv", [
    ["purities", "--s", "nan"],
    ["phasespace", "--s", "inf", "--grid", "2x2"],
    ["duality", "--s", "nan", "--samples", "10"],
    ["star", "--s=-inf"],
    ["verify", "--quad-tol", "-1"],
    ["verify", "--quad-tol", "0"],
    ["verify", "--quad-tol", "inf"],
    ["star", "--points", "0"],
    ["purities", "--spin-S", "3/0"],
    ["verify", "--qrt", "multipartite", "--spin-S", "3/0"],
    ["purities", "--spin-S", "1e400"],
    ["star", "--points", "1" + "0" * 30],
    ["duality", "--samples", "1" + "0" * 400],
])
def test_cli_bad_numeric_flags_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())  # refused before any output


@pytest.mark.parametrize("argv", [
    ["purities", "--spin-S", "5", "--s", "1000"],
    ["phasespace", "--spin-S", "5", "--s", "500", "--grid", "2x4"],
    ["duality", "--spin-S", "2", "--s", "1e3", "--samples", "20"],
])
def test_cli_overflowing_filter_exits_2(tmp_path, capsys, argv):
    # An --s whose factor tau**(-s) passes the float range is a bad
    # configuration, refused before any work: nothing is written.
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --s ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["purities", "--spin-S", "1", "--state", "m=1\n", "--format", "csv"],
    ["purities", "--qrt", "multipartite", "--state", "m= 3 ",
     "--format", "json"],
    ["purities", "--state", "hw", "--state", "\thaar", "--format", "json"],
    ["phasespace", "--spin-S", "1", "--state", "m=1\n", "--grid", "2x4"],
    ["phasespace", "--qrt", "multipartite", "--state", "m= 3 ",
     "--grid", "2x4"],
])
def test_cli_state_with_whitespace_exits_2(tmp_path, capsys, argv):
    # int and Fraction strip the whitespace, but the raw selector names
    # the CSV rows, JSON states and file names: refused before any output.
    assert main(argv + ["--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state selector ") and err.count("\n") == 1
    assert "whitespace" in err
    assert not (tmp_path / "bad").exists()
    clean = ["".join(arg.split()) for arg in argv]
    assert main(clean + ["--out", str(tmp_path / "good")]) == 0


def test_cli_duality_refuses_an_overflowing_reference(tmp_path, monkeypatch):
    # At spin 2, tau_min**(-s) passes the float range from s = 110.1 on.
    # duality's reference reads the filter at s + 1, so --s 109.5 is
    # refused before any sample is drawn; purities at 109.5 runs.
    def no_draws(*args):
        raise AssertionError("sampled before the refusal")

    monkeypatch.setattr(gfd, "haar_chunks", no_draws)
    argv = ["--spin-S", "2", "--s", "109.5", "--out", str(tmp_path)]
    assert main(["duality", "--samples", "20"] + argv) == 2
    assert not any(tmp_path.iterdir())
    assert main(["purities"] + argv) == 0


def test_cli_format_is_a_purities_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phasespace", "--format", "json", "--grid", "2x2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


# -- argument fuzz over tiny sizes ----------------------------------------------

def _mostly(good, bad):
    """Draws from ``good`` four times in five, else from ``bad``."""
    return st.integers(0, 4).flatmap(
        lambda k: st.sampled_from(bad if k == 0 else good))


_bad_numbers = ["nan", "inf", "-inf", "0", "-1", "-0.5"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["purities", "phasespace", "duality", "star", "verify"]))
    argv = [command,
            "--qrt", draw(st.sampled_from(["spin", "multipartite",
                                           "fermionic"])),
            "--spin-S", draw(_mostly(["1/2", "1", "3/2", "2"],
                                     ["0", "-1", "5/3"])),
            "--n", draw(_mostly(["1", "2"], ["0", "-1"])),
            "--seed", draw(_mostly(["0", "7"], ["-1"]))]
    if command != "verify":
        svals = st.one_of(st.floats(-1.0, 1.0).map(repr),
                          _mostly(["-1", "0", "1"], _bad_numbers + ["1e3"]))
        argv += [f"--s={s}" for s in draw(st.lists(svals, max_size=2))]
    if command in ("purities", "phasespace"):
        states = _mostly(["hw", "ghz", "haar", "m=1", "m=1/2"],
                         ["m=-3", "bogus"])
        argv += [a for sel in draw(st.lists(states, max_size=2))
                 for a in ("--state", sel)]
    if command == "purities":
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "phasespace":
        argv += ["--grid", draw(_mostly(["1x1", "2x4", "4x8", "3x5"],
                                        ["0x4", "4x-8", "2by4"])),
                 "--projection", draw(st.sampled_from(["equirect",
                                                       "robinson"]))]
    if command == "duality":
        argv += ["--samples", draw(_mostly(["20", "5", "2"],
                                           ["1", "0", "-3"]))]
    if command == "star":
        argv += [f"--points={draw(_mostly(['3', '1'], ['0', '-2']))}"]
    if command == "verify":
        tol = draw(_mostly(["1e-8", "1e-30"], _bad_numbers))
        argv += [f"--quad-tol={tol}"]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--out", tmp])
        except SystemExit as exc:  # usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_cli_phasespace_states_and_s_stay_under_estimate(tmp_path):
    # Three states x three --s in one pass: the (N, states, svals) field
    # table is the estimate's per-node term.
    import tracemalloc

    from sweyl.cli import _phasespace_bytes

    argv = ["phasespace", "--spin-S", "6", "--state", "hw", "--state", "ghz",
            "--state", "haar", "--s", "-1", "--s", "0", "--s", "0.5",
            "--grid", "96x192", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(list(tmp_path.glob("field_*.csv"))) == 9
    assert peak <= _phasespace_bytes(96, 192, models.SpinModel(6), 3, 13, 3)


@pytest.mark.parametrize("qrt", [["--qrt", "spin", "--spin-S", "3"],
                                 ["--qrt", "multipartite", "--n", "2"]],
                         ids=["spin", "multipartite"])
def test_cli_phasespace_and_verify_do_not_import_numpy_ma(tmp_path, qrt):
    # A plain np.unique runs np.ma.is_masked, which imports numpy.ma
    # (11-19 ms) in every process that reaches it.  Every command runs in
    # one fresh interpreter; star serves the spin alone.
    import os
    import subprocess
    import sys

    import sweyl

    runs = [["purities", "--state", "hw", "--state", "haar"],
            ["phasespace", "--grid", "8x16"],
            ["verify"],
            ["duality", "--samples", "300"]]
    if qrt[1] == "spin":
        runs.append(["star", "--points", "3"])
    code = "import sys\nfrom sweyl.cli import main\n" + "".join(
        f"assert main({argv + qrt + ['--out', str(tmp_path)]}) == 0\n"
        for argv in runs) + "print('numpy.ma' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(sweyl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.split("\n")[-2] == "False"



def test_cli_runs_import_no_argparse_gettext_or_locale(tmp_path):
    # argparse imports gettext, which imports locale: about 3 ms of start-up
    # that the option table does without; the record classes are plain
    # classes, so no run imports dataclasses (and its inspect).  All five
    # commands run in one fresh interpreter.
    import os
    import subprocess
    import sys

    import sweyl

    runs = [["purities", "--state", "hw", "--s", "-1"],
            ["phasespace", "--grid", "8x16"], ["verify"],
            ["duality", "--samples", "300"], ["star", "--points", "3"]]
    code = "import sys\nfrom sweyl.cli import main\n" + "".join(
        f"assert main({argv + ['--out', str(tmp_path)]}) == 0\n"
        for argv in runs) + (
        "print(sorted({'argparse', 'dataclasses', 'gettext', 'locale'}"
        " & sys.modules.keys()))")
    src = os.path.dirname(os.path.dirname(sweyl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.split("\n")[-2] == "[]"


WHOLE_RUNS = {
    "spin_phase": ["phasespace", "--qrt", "spin", "--spin-S", "6",
                   "--state", "ghz", "--state", "hw", "--s", "-1", "--s", "0",
                   "--grid", "64x128", "--projection", "robinson"],
    "qubit_grid": ["phasespace", "--qrt", "multipartite", "--n", "4",
                   "--state", "ghz", "--state", "haar", "--s", "-1",
                   "--s", "0", "--grid", "64x128"],
    "purities": ["purities", "--spin-S", "45/2", "--state", "ghz",
                 "--state", "m=5/2", "--state", "haar", "--format", "json"],
}


@pytest.mark.parametrize("argv", WHOLE_RUNS.values(), ids=WHOLE_RUNS.keys())
def test_cli_outputs_match_the_template_writers(tmp_path, monkeypatch, argv):
    # The same run through the writers that format every cell: both runs
    # share this process's numerics, so any difference is the writers'.
    argv = argv + ["--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "fast")]) == 0
    monkeypatch.setattr(render, "grid_cells", template_grid_cells)
    monkeypatch.setattr(render, "write_csv", template_write_csv)
    monkeypatch.setattr(render, "write_ppm", template_write_ppm)
    monkeypatch.setattr(render, "write_json", template_write_json)
    assert main(argv + ["--out", str(tmp_path / "template")]) == 0
    names = sorted(p.name for p in (tmp_path / "fast").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "template").iterdir())
    assert len(names) == (8 if argv[0] == "phasespace" else 1)
    for name in names:
        assert ((tmp_path / "fast" / name).read_bytes()
                == (tmp_path / "template" / name).read_bytes()), name


def test_cli_parser_is_built_once_and_keeps_no_flags(tmp_path):
    # Every parse starts from the table's defaults: repeated --state / --s
    # flags of one call never reach the next.
    assert main(["purities", "--spin-S", "1", "--state", "ghz", "--state",
                 "haar", "--s", "0.5", "--out", str(tmp_path / "a")]) == 0
    assert main(["purities", "--spin-S", "1",
                 "--out", str(tmp_path / "b")]) == 0
    _, rows = read_csv(tmp_path / "b" / "purities.csv")
    assert {r[1] for r in rows} == {"hw"}
    assert {float(r[2]) for r in rows} == {-1.0, 0.0, 1.0}
    args = cli.parse_args(["purities", "--state", "m=1"])
    assert args.state == ["m=1"] and args.s is None
    # The per-state reference parses through the argparse oracle.
    purities_by_state(["purities", "--spin-S", "1",
                       "--out", str(tmp_path / "ref")])
    assert ((tmp_path / "b" / "purities.csv").read_bytes()
            == (tmp_path / "ref" / "purities.csv").read_bytes())
