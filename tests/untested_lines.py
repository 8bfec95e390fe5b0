"""Statements of ``src/sweyl`` that no tier-1 test runs.

Usage (from anywhere):

    python tests/untested_lines.py

The script runs the tier-1 suite in-process (``pytest -q tests`` of this
tree) under a ``sys.settrace`` tracer that follows
only frames of ``src/sweyl``, and then prints, as ``file:line  source``,
every statement of the package that never ran.  Docstrings, ``def``,
``class``, imports and ``try`` headers are not counted: they run at import
time or emit no line event.  A statement counts as run when any of its own
lines (its lines outside the statements nested in it) produced a line
event.  Tests that start a subprocess are not seen through it.  The exit
code is pytest's.  The tracer roughly doubles the suite's time.

Not collected by pytest (the file name has no ``test_`` prefix).
"""

import ast
import os
import sys
import threading

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "sweyl")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Try, ast.Global, ast.Nonlocal)


def _own_lines(stmt: ast.stmt) -> set[int]:
    """The lines of ``stmt`` outside every statement nested in it."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for child in ast.walk(stmt):
        if child is not stmt and isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def statements(path: str) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of every counted statement of a file."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    return sorted((node.lineno, _own_lines(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt)
                  and not isinstance(node, SKIPPED)
                  and not _is_docstring(node))


def run_traced() -> tuple[int, set]:
    """Run pytest in-process; return its exit code and the (file, line)
    pairs of the package that produced a line event."""
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def follow(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PKG) else None

    import pytest  # pyproject.toml puts src/ first on its path

    threading.settrace(follow)
    sys.settrace(follow)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    os.chdir(ROOT)
    code, hits = run_traced()
    missed = []
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        with open(path) as f:
            source = f.read().splitlines()
        for first, own in statements(path):
            if not any((path, line) in hits for line in own):
                missed.append(f"{name}:{first}  {source[first - 1].strip()}")
    print(f"never run in src/sweyl: {len(missed)} statements")
    for line in missed:
        print("  " + line)
    return code


if __name__ == "__main__":
    sys.exit(main())
