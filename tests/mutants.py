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
MODELS = "src/sweyl/models.py"
RECORD_TESTS = ["tests/test_records.py", "tests/test_frozen.py"]
RANK_ONE = "tests/test_pure_state_purities.py"
CROSS_MODEL = "tests/test_cross_model.py"

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
    ("fermionic-point-field-equality", MODELS,
     "    __eq__, __hash__ = object.__eq__, object.__hash__\n", "",
     ["tests/test_frozen.py"]),
    ("add-string-keeps-cancelled-term", "tests/oracles.py",
     "        if val == 0:\n            self.terms.pop(key, None)\n"
     "        else:\n            self.terms[key] = val\n",
     "        self.terms[key] = val\n",
     ["tests/test_edge_branches.py", "tests/test_frozen.py"]),
    # The product phase of two strings in the tests' Jordan-Wigner
    # reference, i**2 per Z of the left one met by an X of the right one.
    ("pauli-mul-drops-zx-phase", "tests/oracles.py",
     "phase = a.phase + b.phase + 2 * (a.z & b.x).bit_count()",
     "phase = a.phase + b.phase",
     ["tests/test_paulis.py::test_mul_against_dense",
      "tests/test_paulis.py::test_commutes_matches_dense"]),
    # The Jordan-Wigner Z string of the fermionic words; verify's Majorana
    # check reads them.
    ("jw-string-dropped", MODELS,
     "z |= (b ^ above) << k", "z |= b << k",
     ["tests/test_render_cli.py::test_cli_verify_ok"]),
    # star reads its input fields back at the dual -s, so a negative --s
    # meets the kappa rule too.
    ("star-kappa-positive-only", "src/sweyl/cli.py",
     "ps.check_kappa(model, svals, dual=True)",
     "ps.check_kappa(model, svals)",
     ["tests/test_streamed.py::test_star_kappa_rule_reads_either_sign"]),
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
    ("bytes-budget-x2", MODELS,
     "BYTES_BUDGET = 768 * 2**20", "BYTES_BUDGET = 2 * 768 * 2**20",
     ["tests/test_admission.py"]),
    ("work-budget-x2", MODELS,
     "WORK_BUDGET = 4 * 10**9", "WORK_BUDGET = 8 * 10**9",
     ["tests/test_gates.py::test_work_budget_is_4e9_units"]),
    # The operator route of named states and fermionic samples.
    ("state-purities-step-2", MODELS,
     "step = max(1, _RHO_BYTES", "step = max(2, _RHO_BYTES",
     ["tests/test_purities.py::"
      "test_purity_stacks_stay_within_the_state_budget"]),
    ("pure-state-purities-alias-dropped", MODELS,
     "    pure_state_purities = state_purities  # a spin and qubits override "
     "it\n", "",
     [RANK_ONE + "::test_fermions_keep_the_operator_route_bit_for_bit"]),
    ("state-whitespace-accepted", MODELS,
     "        if any(ch.isspace() for ch in which):\n"
     "            raise ValueError(f\"state selector {which!r} contains "
     "whitespace\")\n", "",
     ["tests/test_render_cli.py::test_cli_state_with_whitespace_exits_2"]),
    # The rank-one routes of duality's samples.
    ("spin-rank-one-q-not-doubled", MODELS,
     "out[q + r::2] += 2 * R if q else R", "out[q + r::2] += R", [RANK_ONE]),
    ("mobius-sign-flipped", MODELS,
     "one = np.array([[0.5, 0.0], [-0.5, 1.0]])",
     "one = np.array([[0.5, 0.0], [0.5, 1.0]])", [RANK_ONE]),
    ("subsystem-larger-side", MODELS,
     "if 2 * len(B) < n or 2 * len(B) == n and i < full ^ i:",
     "if 2 * len(B) > n or 2 * len(B) == n and i > full ^ i:", [RANK_ONE]),
    ("subsystem-bit-order-reversed", MODELS,
     "B = [q for q in range(n) if i >> (n - 1 - q) & 1]",
     "B = [q for q in range(n) if i >> q & 1]", [RANK_ONE]),
    ("mobius-row-bit-order-reversed", MODELS,
     'rows = [int("".join(map(str, lam)), 2)',
     'rows = [int("".join(map(str, lam[::-1])), 2)', [RANK_ONE]),
    # The spin CG table, its folds and the Legendre recursion, against the
    # qubit fields of the Dicke embedding.
    ("cg-fold-parity-swapped", MODELS,
     "                for r, F in enumerate((plus, minus)):",
     "                for r, F in enumerate((minus, plus)):", [CROSS_MODEL]),
    ("cg-recursion-sign", MODELS,
     "nxt -= off[:live] * x[:live, k - 1]",
     "nxt += off[:live] * x[:live, k - 1]", [CROSS_MODEL]),
    ("legendre-seed-sign", MODELS,
     "new[lam] = -math.sqrt((2 * lam + 1) / (2 * lam))",
     "new[lam] = math.sqrt((2 * lam + 1) / (2 * lam))", [CROSS_MODEL]),
    ("cg-rows-mirror-parity", MODELS,
     "np.multiply((-1.0) ** np.arange(n)[:, None]",
     "np.multiply((-1.0) ** np.arange(1, n + 1)[:, None]",
     ["tests/test_acceptance.py::test_criterion_02_kernel_purity_flat"]),
    # The compass search of coherent_fidelity halves a span only after a
    # sweep that did not improve; halving every span each round stops short
    # on the SpinModel(5) ridge.
    ("compass-halves-every-span", "src/sweyl/gfd.py",
     "            else:\n                spans[k] /= 2\n",
     "            spans[k] /= 2\n",
     ["tests/test_cg_gather.py::"
      "test_coherent_fidelity_batched_scan_matches_pointwise"]),
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
