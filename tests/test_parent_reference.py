"""CLI outputs against a stored reference from an earlier commit.

The fixed config set (the benchmark's phase-space, star and verify jobs at
fixed seeds, on smaller display grids, and runs of three states or two
and three ``--s`` values in one call) runs through ``phasespace``,
``star`` and ``verify``.  Every CSV value must match the reference within
1e-12 of its column's maximum.  JSON checks must match in name, bound and
pass/fail exactly; a check value is a rounding residue (the S = 8
harmonics lose tau**(-1/2) = 1.4e5 in relative accuracy), which moves
with any change of operation order, so it must match within 1e-2 of its
bound: the margin to the gate is unchanged.  The checks bounded by
``--quad-tol`` (``QUAD_CHECKS``) are residues of the s = +-1 filters that
move with the BLAS kernels too (``standardization`` of ``verify.S8``
reads 2.2e-11 or 1.5e-11 against a stored 1.2e-10), so they keep only the
upper side of that window: a smaller residue never narrows the margin.

``data/parent_reference.json`` was written by running this module as a
script with the source of commit ff09491 (one ring transform per
operator and per call) first on ``PYTHONPATH``:

    PYTHONPATH=<checkout>/src python tests/test_parent_reference.py OUT.json
"""

import json
import os
import sys
import tempfile

import pytest

from sweyl.cli import main

from oracles import read_csv

CONFIGS = {
    "phasespace.S6": ["phasespace", "--qrt", "spin", "--spin-S", "6",
                      "--state", "ghz", "--state", "hw", "--s", "-1",
                      "--s", "0", "--grid", "16x32", "--projection",
                      "robinson", "--seed", "11"],
    "phasespace.S30": ["phasespace", "--qrt", "spin", "--spin-S", "30",
                       "--state", "hw", "--state", "ghz", "--s", "-1",
                       "--s", "0", "--grid", "8x16", "--seed", "12"],
    "phasespace.mp4": ["phasespace", "--qrt", "multipartite", "--n", "4",
                       "--state", "ghz", "--state", "haar", "--s", "-1",
                       "--s", "0", "--grid", "16x32", "--seed", "13"],
    # Three states x three --s in one pass: a swapped state or s column
    # of the batched field table shows here.
    "phasespace.S5_2x3": ["phasespace", "--qrt", "spin", "--spin-S", "5/2",
                          "--state", "hw", "--state", "haar", "--state",
                          "m=1/2", "--s", "-1", "--s", "0", "--s", "0.5",
                          "--grid", "12x24", "--seed", "18"],
    "phasespace.mp3x3": ["phasespace", "--qrt", "multipartite", "--n", "3",
                         "--state", "ghz", "--state", "haar", "--state",
                         "hw", "--s", "0.5", "--s", "-1", "--s", "0",
                         "--grid", "12x24", "--seed", "19"],
    "star.S2": ["star", "--qrt", "spin", "--spin-S", "2", "--s", "0",
                "--s", "1", "--seed", "14"],
    "star.S5_2": ["star", "--qrt", "spin", "--spin-S", "5/2", "--s", "0.5",
                  "--s", "-1", "--points", "7", "--seed", "20"],
    "verify.S8": ["verify", "--qrt", "spin", "--spin-S", "8", "--seed", "15"],
    "verify.mp3": ["verify", "--qrt", "multipartite", "--n", "3",
                   "--seed", "16"],
    "verify.fm4": ["verify", "--qrt", "fermionic", "--n", "4", "--seed", "17"],
}

QUAD_CHECKS = {"harmonic_orthonormality", "filter_identity", "tracing",
               "reconstruction", "standardization"}

REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                         "parent_reference.json")


def run_config(argv) -> dict:
    """Exit code and every output table of one CLI run, as plain data."""
    with tempfile.TemporaryDirectory() as out:
        code = main(argv + ["--out", out])
        tables = {}
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            if name.endswith(".csv"):
                header, rows = read_csv(path)
                tables[name] = {"header": header,
                                "columns": [list(map(float, col))
                                            for col in zip(*rows)]}
            elif name.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    tables[name] = json.load(fh)["checks"]
    return {"code": code, "tables": tables}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_parent_reference(name):
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    got = run_config(CONFIGS[name])
    assert got["code"] == want["code"]
    assert sorted(got["tables"]) == sorted(want["tables"])
    for table, ref in want["tables"].items():
        new = got["tables"][table]
        if table.endswith(".csv"):
            assert new["header"] == ref["header"]
            for col_new, col_ref in zip(new["columns"], ref["columns"],
                                        strict=True):
                scale = max(abs(v) for v in col_ref)
                assert len(col_new) == len(col_ref)
                assert max(abs(a - b) for a, b in zip(col_new, col_ref)) \
                    <= 1e-12 * scale
        else:
            assert [c["name"] for c in new] == [c["name"] for c in ref]
            for c_new, c_ref in zip(new, ref):
                assert c_new["passed"] == c_ref["passed"], c_ref["name"]
                assert c_new["bound"] == c_ref["bound"]
                assert c_new["value"] - c_ref["value"] \
                    <= 1e-2 * c_ref["bound"], c_ref["name"]
                if c_ref["name"] not in QUAD_CHECKS:
                    assert c_ref["value"] - c_new["value"] \
                        <= 1e-2 * c_ref["bound"], c_ref["name"]


if __name__ == "__main__":
    doc = {name: run_config(argv) for name, argv in sorted(CONFIGS.items())}
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
