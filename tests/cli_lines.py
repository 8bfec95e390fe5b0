"""Statements of ``src/sweyl`` that no CLI config runs.

Usage (from anywhere):

    python tests/cli_lines.py [SRC]

SRC is the root of a checkout (default: this tree).  The script runs every
config of ``tests/output_hashes.py`` in-process, as that script does (one
BLAS thread, a fresh output directory each), under a ``sys.settrace``
tracer that follows only frames of SRC's ``src/sweyl``; the tracer is on
before the package is imported, so module and class bodies count.  It
then prints, per module, how many of its statements never ran, and per
function (``<module>`` for module and class bodies) the first line of
each such statement.  Statements are counted by the rule of
``tests/untested_lines.py``.  What never runs here is code that only the
tests reach: refusals the configs do not hit, library functions of the
acceptance criteria, and reference routes.

Not collected by pytest (the file name has no ``test_`` prefix).
"""

import ast
import os
import sys
import threading

from output_hashes import configs, run  # pins one BLAS thread
from untested_lines import statements

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def functions(path: str) -> dict[int, str]:
    """First line of each counted statement -> qualified name of the
    innermost function holding it (``<module>`` outside every function)."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    owner = {}

    def visit(node, prefix, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                visit(child, name + ".", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", func)
            else:
                if isinstance(child, ast.stmt):
                    owner[child.lineno] = func
                visit(child, prefix, func)

    visit(tree, "", "<module>")
    return owner


def run_traced(pkg: str) -> set:
    """Run every config; return the (file, line) pairs of ``pkg`` that
    produced a line event."""
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def follow(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(pkg) else None

    threading.settrace(follow)
    sys.settrace(follow)
    try:
        from sweyl.cli import main
        for argv in configs().values():
            run(main, argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main() -> int:
    src = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ROOT)
    pkg = os.path.join(src, "src", "sweyl")
    sys.path.insert(0, os.path.join(src, "src"))
    hits = run_traced(pkg)
    total = missed_total = 0
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(pkg, name)
        owner = functions(path)
        missed = {}
        counted = statements(path)
        for first, own in counted:
            if not any((path, line) in hits for line in own):
                missed.setdefault(owner[first], []).append(first)
        count = sum(map(len, missed.values()))
        total += len(counted)
        missed_total += count
        print(f"{name}: {count} of {len(counted)} statements never run")
        for func, lines in sorted(missed.items(), key=lambda kv: kv[1][0]):
            print(f"  {func}: {', '.join(map(str, lines))}")
    print(f"src/sweyl: {missed_total} of {total} statements never run "
          f"in {len(configs())} configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
