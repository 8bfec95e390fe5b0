"""The batched ``purities`` command: its bytes against the per-state route,
the size of the state stacks it passes to ``gfd.purity_spectrum``, its
peak memory at n = 10, and the column-wise JSON writer against
``json.dump``."""

import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import sweyl
from sweyl import cli, gfd, render
from sweyl.models import SpinModel

from oracles import purities_by_state


def _states(m: str) -> list[str]:
    out = []
    for sel in ("hw", "ghz", "haar", f"m={m}", "haar"):  # haar twice
        out += ["--state", sel]
    return out


_SVALS = ["--s", "-1", "--s", "0.5", "--s", "1", "--s", "-2.5"]
CONFIGS = {
    **{f"spin2S={t}": ["purities", "--qrt", "spin",
                       "--spin-S", f"{t}/2", "--seed", str(t)]
       + _states(f"{2 - t}/2") + _SVALS
       for t in (1, 2, 17, 40, 200)},
    **{f"{qrt}{n}": ["purities", "--qrt", qrt, "--n", str(n), "--seed", "3"]
       + _states("1") + _SVALS
       for qrt in ("multipartite", "fermionic") for n in (1, 3, 8)},
    "defaults": ["purities"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", CONFIGS.values(), ids=CONFIGS.keys())
def test_purities_bytes_match_per_state_route(tmp_path, argv, fmt):
    argv = argv + ["--format", fmt]
    assert cli.main(argv + ["--out", str(tmp_path / "batched")]) == 0
    purities_by_state(argv + ["--out", str(tmp_path / "per_state")])
    name = f"purities.{fmt}"
    assert ((tmp_path / "batched" / name).read_bytes()
            == (tmp_path / "per_state" / name).read_bytes())


@pytest.mark.parametrize("budget", [0.5, 1, 2.5, 3, 10])
def test_purity_stacks_stay_within_the_state_budget(tmp_path, monkeypatch,
                                                    budget):
    # The budget in units of one (d, d) complex state: a stack never
    # exceeds it unless one state alone does, and is as large as it allows.
    one = 16 * SpinModel(5).dim ** 2
    monkeypatch.setattr(gfd, "_RHO_BYTES", int(budget * one))
    sizes = []
    spectrum = gfd.purity_spectrum

    def counting(A, model):
        sizes.append(len(A))
        return spectrum(A, model)

    monkeypatch.setattr(gfd, "purity_spectrum", counting)
    argv = ["purities", "--spin-S", "5", "--format", "json"] + _states("0")
    assert cli.main(argv + ["--out", str(tmp_path / "batched")]) == 0
    per_stack = max(1, int(budget))
    assert sizes == [min(per_stack, 5 - lo) for lo in range(0, 5, per_stack)]
    assert all(k <= budget or k == 1 for k in sizes)
    monkeypatch.undo()
    purities_by_state(argv + ["--out", str(tmp_path / "per_state")])
    assert ((tmp_path / "batched" / "purities.json").read_bytes()
            == (tmp_path / "per_state" / "purities.json").read_bytes())


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_purities_fermionic_n10_peak_is_one_state(tmp_path):
    # A (d, d) state at n = 10 is 16 MiB, over gfd._RHO_BYTES, so each of
    # the three goes alone.  The per-state route peaks at 110.6 MiB
    # ru_maxrss, 73.8 MiB over the import (2-vCPU host, one BLAS thread);
    # one stack of all three peaks 170 MiB over it.
    code = (
        "import resource, sys\n"
        "from sweyl.cli import main\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = main(['purities', '--qrt', 'fermionic', '--n', '10',\n"
        "             '--state', 'hw', '--state', 'ghz', '--state', 'haar',\n"
        "             '--out', sys.argv[1]])\n"
        "print(code, base, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(sweyl.__file__)))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env)
    code, base, peak = map(int, out.stdout.split())
    assert code == 0
    assert peak - base <= 80 * 1024


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   -2.5e-310, 2.2250738585072014e-308, 1e300, 0.1]
_SPECIAL_TEXT = ['"', "\\", "\x00", "\x1f\n\t\r", "\x7f", "é", " ",
                 "\U0001f600", "%s", "%", '"rows": []', ""]
_floats = st.floats(allow_subnormal=True) | st.sampled_from(_SPECIAL_FLOATS)
_texts = st.text(max_size=6) | st.sampled_from(_SPECIAL_TEXT)


@st.composite
def _tables(draw):
    header = draw(st.lists(_texts, min_size=1, max_size=5, unique=True))
    nrows = draw(st.integers(0, 6))
    columns = [draw(st.lists(_floats if draw(st.booleans())
                             else _texts, min_size=nrows, max_size=nrows))
               for _ in header]
    return header, columns


@settings(max_examples=200, deadline=None)
@given(table=_tables(), key=_texts,
       doc=st.dictionaries(_texts, st.none() | st.integers() | _floats | _texts
                           | st.lists(_floats | _texts, max_size=3),
                           max_size=3),
       nested=st.booleans())
def test_write_json_matches_json_dump(table, key, doc, nested):
    header, columns = table
    if nested:  # the table's key deeper in the document stays untouched
        doc = {**doc, "config": {key: [], "s": [0.5]}}
    rows = [dict(zip(header, row)) for row in zip(*columns)]
    want = json.dumps({**doc, key: rows}, indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        render.write_json(path, doc, key, header, columns)
        with open(path, "rb") as fh:
            assert fh.read() == want.encode()


@pytest.mark.parametrize("values", [
    [0.25] * 12,
    [1.0, -3.5, 1.0, 2.0 / 3.0, -3.5, 2.0 / 3.0, 1.0, 1.0],
    [0.0, -0.0, 0.0, -0.0, 1.0, -0.0],
    [math.nan, math.inf, -math.inf, -math.nan, 1.0, math.nan, -math.inf],
    [5e-324, -5e-324, 2.2250738585072009e-308, 5e-324, 1e-310, -1e-310],
    [3.0, -7.0, 0.0, 2.0 ** 53, 1e16, 3.0, -2.0],
    [],
], ids=["constant", "repeats", "signed-zeros", "non-finite", "subnormals",
        "int-valued", "empty"])
def test_write_json_repeated_and_special_cells_match_json_dump(tmp_path,
                                                               values):
    # Each distinct double is formatted once and mapped back to its rows;
    # -0.0 keeps its sign and every NaN spells NaN.
    header = ["b", "a", "label"]
    columns = [values, values[::-1], [f"r{i}" for i in range(len(values))]]
    doc = {"seed": 1, "config": {"s": [0.5, -0.0]}}
    rows = [dict(zip(header, row)) for row in zip(*columns)]
    render.write_json(tmp_path / "doc.json", doc, "rows", header, columns)
    want = json.dumps({**doc, "rows": rows}, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "doc.json").read_bytes() == want.encode()
