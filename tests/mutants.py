"""Mutation harness: each mutant is one text edit that a focused test
selection must kill.

Usage (from anywhere):

    python tests/mutants.py

For each mutant of ``MUTANTS`` the script copies
this tree without ``__pycache__`` into a temporary directory, checks that
the old text occurs exactly once in its file and runs the mutant's
selection with ``pytest -x -q`` at one BLAS thread, first on the copy as
it is and then with the edit applied.  A mutant is killed when the
selection passes without it and fails with it, and survives when it
passes both times.  The script prints one line per mutant and exits 1
when a mutant survives that is not listed in ``EQUIVALENT``, when a
mutant is stale (its old text is missing or not unique) or when its
selection fails without the edit or cannot run (a pytest exit code other
than 0 or 1).

Not collected by pytest (the file name has no ``test_`` prefix).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FROZEN = "src/sweyl/_frozen.py"
RECORD_TESTS = ["tests/test_records.py", "tests/test_frozen.py"]

# (id, file, old text, new text, test selection)
MUTANTS = [
    ("frozen-eq-any-class", FROZEN,
     "        if other.__class__ is not self.__class__:\n"
     "            return NotImplemented\n", "", RECORD_TESTS),
    ("frozen-reduce-drops-last-field", FROZEN,
     "return type(self), self._fields()",
     "return type(self), self._fields()[:-1]", RECORD_TESTS),
    ("frozen-delattr-allowed", FROZEN,
     "__delattr__ = __setattr__", "__delattr__ = object.__delattr__",
     RECORD_TESTS),
    ("fermionic-point-field-equality", "src/sweyl/models.py",
     "    __eq__, __hash__ = object.__eq__, object.__hash__\n", "",
     ["tests/test_frozen.py"]),
    ("add-string-keeps-cancelled-term", "src/sweyl/paulis.py",
     "        if val == 0:\n            self.terms.pop(key, None)\n"
     "        else:\n            self.terms[key] = val\n",
     "        self.terms[key] = val\n",
     ["tests/test_edge_branches.py", "tests/test_frozen.py"]),
    ("duality-gate-5", "src/sweyl/cli.py",
     "abs(row.zscore), 4.0", "abs(row.zscore), 5.0",
     ["tests/test_render_cli.py::test_cli_duality_gate_fails_on_a_bad_row"]),
    ("duality-gate-one-sided", "src/sweyl/cli.py",
     "abs(row.zscore), 4.0", "row.zscore, 4.0",
     ["tests/test_render_cli.py::test_cli_duality_gate_fails_on_a_bad_row"]),
    ("lin-tol-x100", "src/sweyl/verify.py",
     "_LIN_TOL = 1e-10", "_LIN_TOL = 1e-8",
     ["tests/test_gates.py"]),
    ("quad-tol-cli-default", "src/sweyl/cli.py",
     '"--quad-tol": (float, 1e-8, ())', '"--quad-tol": (float, 1e-6, ())',
     ["tests/test_gates.py"]),
    ("quad-tol-verify-default", "src/sweyl/verify.py",
     "quad_tol: float = 1e-8)", "quad_tol: float = 1e-6)",
     ["tests/test_gates.py"]),
    ("kappa-threshold-1e-6", "src/sweyl/phase_space.py",
     "limit = s_limit(model, 1e-8)", "limit = s_limit(model, 1e-6)",
     ["tests/test_streamed.py::test_kappa_rule_boundary_at_s_1"]),
    ("field-margin-10", "src/sweyl/verify.py",
     "return 100 * max(1.0,", "return 10 * max(1.0,",
     ["tests/test_rings.py::test_verify_field_s_boundary"]),
    ("bytes-budget-x2", "src/sweyl/models.py",
     "BYTES_BUDGET = 768 * 2**20", "BYTES_BUDGET = 2 * 768 * 2**20",
     ["tests/test_admission.py"]),
    ("work-budget-x2", "src/sweyl/models.py",
     "WORK_BUDGET = 4 * 10**9", "WORK_BUDGET = 8 * 10**9",
     ["tests/test_gates.py::test_work_budget_is_4e9_units"]),
]

# id: why the mutant cannot be killed (it computes the same thing).
EQUIVALENT = {}


def _pytest(tree: str, selection: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *selection], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run_mutant(path, old, new, selection) -> str:
    """'killed', 'survived', 'stale' or 'error'."""
    with tempfile.TemporaryDirectory(prefix="sweyl-mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            "__pycache__", ".git", ".pytest_cache", ".perfbench_out"))
        target = os.path.join(tree, path)
        with open(target) as f:
            text = f.read()
        if text.count(old) != 1:
            return "stale"
        if _pytest(tree, selection) != 0:
            return "error"
        with open(target, "w") as f:
            f.write(text.replace(old, new))
        code = _pytest(tree, selection)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        ident = mutant[0]
        start = time.perf_counter()
        verdict = run_mutant(*mutant[1:])
        note = ""
        if verdict == "survived" and ident in EQUIVALENT:
            verdict, note = "equivalent", f"  ({EQUIVALENT[ident]})"
        bad += verdict not in ("killed", "equivalent")
        print(f"{verdict:10s} {ident:34s} {time.perf_counter() - start:5.1f} s"
              f"{note}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
