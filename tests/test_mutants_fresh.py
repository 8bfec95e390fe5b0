"""The mutation harness stays applicable: each ``MUTANTS`` entry of
``tests/mutants.py`` finds its old text exactly once in its target file
and names test files and functions that exist, so a change that makes a
mutant stale fails here in a second rather than in the full harness."""

import os
import re

import pytest

from mutants import MUTANTS, ROOT


def _read(path: str) -> str:
    with open(os.path.join(ROOT, path)) as f:
        return f.read()


@pytest.mark.parametrize("path, old, selection",
                         [m[1:3] + (m[4],) for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_is_not_stale(path, old, selection):
    assert _read(path).count(old) == 1
    for node in selection:
        test_file, _, name = node.partition("::")
        text = _read(test_file)
        if name:
            name = name.partition("[")[0]  # a parametrized node's function
            assert re.search(rf"^def {re.escape(name)}\(", text, re.M), node
