"""Hashes of every CLI output of a fixed config set, for one source tree.

Usage:

    python tests/output_hashes.py SRC OUT.json [--against PARENT.json]

SRC is the root of a checkout (its ``src/`` goes first on the import
path).  For each config the script runs ``sweyl.cli.main`` in-process
into a fresh directory and records the exit code, the sha256 of stdout
and stderr, and the sha256 of every file written.  The configs are every
job of ``perfbench/workloads.py`` (read from this tree) at benchmark seeds
1-3, plus the sizes below.  Two trees give byte-identical outputs exactly
when their JSON files are equal:

    python tests/output_hashes.py <parent checkout> parent.json
    python tests/output_hashes.py . change.json --against parent.json

With ``--against`` the script still writes OUT.json, then prints every
config whose exit code, stdout or stderr hash or file hashes differ from
PARENT.json (or that only one of the two has) and exits 1 if any do.

The BLAS thread count is pinned to one before numpy loads, as in
``perfbench/run.py``: at two threads some check values differ in their
rounding residues (``star.S40``, ``verify.S50`` and ``verify.fm8`` to
``verify.fm10``, 5 of the 75 configs).

Not collected by pytest (the file name has no ``test_`` prefix).
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

EXTRA = {
    "purities.S100": ["purities", "--spin-S", "100", "--state", "hw",
                      "--state", "haar"],
    "purities.S199_2": ["purities", "--spin-S", "199/2", "--state", "hw",
                        "--state", "haar"],
    "purities.mp5": ["purities", "--qrt", "multipartite", "--n", "5",
                     "--state", "ghz", "--state", "haar", "--s", "0.5",
                     "--format", "json"],
    "purities.fm4": ["purities", "--qrt", "fermionic", "--n", "4",
                     "--state", "haar", "--state", "hw", "--s", "-0.37"],
    "duality.S100": ["duality", "--spin-S", "100", "--samples", "200"],
    "duality.fm3": ["duality", "--qrt", "fermionic", "--n", "3",
                    "--samples", "500"],
    "duality.mp8": ["duality", "--qrt", "multipartite", "--n", "8",
                    "--samples", "500"],
    "duality.S20": ["duality", "--spin-S", "20"],
    "phasespace.S100": ["phasespace", "--spin-S", "100", "--state", "hw",
                        "--state", "haar", "--s", "-1", "--s", "0",
                        "--grid", "16x32"],
    # Positive-s magnitudes on a table of many row blocks.
    "phasespace.S6.s1": ["phasespace", "--spin-S", "6", "--state", "hw",
                         "--state", "haar", "--s", "1", "--grid", "96x192"],
    **{f"verify.S{S.replace('/', '_')}": ["verify", "--spin-S", S]
       for S in ("1/2", "3", "10", "20", "26", "53/2", "50")},
    "verify.fm6": ["verify", "--qrt", "fermionic", "--n", "6"],
    "verify.fm7": ["verify", "--qrt", "fermionic", "--n", "7"],
    "verify.fm8": ["verify", "--qrt", "fermionic", "--n", "8"],
    "verify.fm9": ["verify", "--qrt", "fermionic", "--n", "9"],
    "verify.fm10": ["verify", "--qrt", "fermionic", "--n", "10"],
    "verify.mp1": ["verify", "--qrt", "multipartite", "--n", "1"],
    "verify.mp2": ["verify", "--qrt", "multipartite", "--n", "2"],
    "verify.mp4": ["verify", "--qrt", "multipartite", "--n", "4"],
    "verify.mp5": ["verify", "--qrt", "multipartite", "--n", "5"],
    "verify.mp6": ["verify", "--qrt", "multipartite", "--n", "6"],
    "star.S7": ["star", "--spin-S", "7"],
    "star.S40": ["star", "--spin-S", "40"],
    "star.S5_2": ["star", "--spin-S", "5/2", "--s", "0.5", "--s", "-1",
                  "--points", "7"],
    # Refusals, one per budget site of the CLI, an overflowing --s and a
    # state selector with whitespace.
    "refuse.phasespace": ["phasespace", "--grid", "4000x8000"],
    "refuse.verify.S200": ["verify", "--spin-S", "200"],
    "refuse.verify.mp7": ["verify", "--qrt", "multipartite", "--n", "7"],
    "refuse.star": ["star", "--spin-S", "2", "--points", "198758"],
    "refuse.duality.fm10": ["duality", "--qrt", "fermionic", "--n", "10",
                            "--samples", "3000"],
    "refuse.duality.mp10": ["duality", "--qrt", "multipartite", "--n", "10",
                            "--samples", "1952"],
    "refuse.duality.samples": ["duality", "--samples", "1" + "0" * 400],
    "refuse.purities.s1000": ["purities", "--spin-S", "5", "--s", "1000"],
    "refuse.purities.state_whitespace": ["purities", "--spin-S", "1",
                                         "--state", "m=1\n"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def configs() -> dict:
    """Name -> argv (without ``--out``) of every config."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {f"{w}.{seed}.{job['name']}": job["argv"]
           for w in workloads.WORKLOADS for seed in (1, 2, 3)
           for job in workloads.jobs(w, seed)}
    out.update(EXTRA)
    return out


def run(main, argv) -> dict:
    """Exit code, stdout/stderr hashes and file hashes of one CLI run."""
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", out])
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = _sha(fh.read())
    return {"code": code, "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()), "files": files}


def differing(doc: dict, parent: dict) -> list:
    """Names of the configs whose records differ between two hash files,
    or that only one of them has."""
    return sorted(name for name in doc.keys() | parent.keys()
                  if doc.get(name) != parent.get(name))


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description="Hash every CLI output.")
    cli.add_argument("src", help="root of a checkout")
    cli.add_argument("target", help="JSON file to write")
    cli.add_argument("--against", metavar="PARENT.json",
                     help="hash file to compare with; exit 1 on a difference")
    opts = cli.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(opts.src), "src"))
    from sweyl.cli import main

    doc = {name: run(main, argv) for name, argv in configs().items()}
    with open(opts.target, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(doc)} configs -> {opts.target}")
    if opts.against:
        with open(opts.against, encoding="utf-8") as fh:
            diff = differing(doc, json.load(fh))
        for name in diff:
            print(f"differs: {name}")
        print(f"{len(diff)} config(s) differ from {opts.against}")
        sys.exit(1 if diff else 0)
