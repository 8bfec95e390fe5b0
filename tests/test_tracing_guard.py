"""The benchmark's span tracer against the package's names.

``perfbench/tracing.py`` wraps package functions and methods by name
(``TARGETS`` and ``COUNT_ONLY``), so renaming or moving one of them out
of ``src/sweyl`` breaks ``perfbench/run.py --trace 1``.  The tracer is
imported as it is, through ``sys.path``, and only read.  The reference
routes of ``tests/oracles.py`` live outside the package: none of their
names is defined in a package module or class.  The grid counter of
``--trace 1`` keeps its node counts.
"""

import importlib
import os
import sys

import pytest

import sweyl
import sweyl.cli  # noqa: F401  loads every module the tracer patches
from sweyl import phase_space as ps
from sweyl.models import MultipartiteModel, SpinModel

import oracles

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def _entries(tracing):
    """(module name, attribute or Class.method) of every traced name."""
    return ([(mod, path) for mod, path, _, _ in tracing.TARGETS]
            + [(mod, path) for mod, path, _ in tracing.COUNT_ONLY])


def _lookup(modname: str, path: str):
    """The object the tracer wraps: a module attribute, or a method from
    its class's own ``__dict__`` (an inherited one does not count)."""
    module = sys.modules[modname]
    if "." in path:
        cls_name, meth = path.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, path)


def _package_modules():
    return {name: mod for name, mod in list(sys.modules.items())
            if name == "sweyl" or name.startswith("sweyl.")}


def _snapshot() -> dict:
    """Every attribute of the package's modules and of the classes they
    define, by (module, name) key."""
    out = {}
    for name, mod in _package_modules().items():
        for attr, value in vars(mod).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[name, f"{attr}.{key}"] = member
    return out


def test_every_traced_name_resolves(tracing):
    missing = []
    for modname, path in _entries(tracing):
        try:
            assert callable(_lookup(modname, path))
        except (KeyError, AttributeError, AssertionError):
            missing.append(f"{modname}:{path}")
    assert missing == []


def test_install_then_uninstall_restores_every_attribute(tracing):
    before = _snapshot()
    originals = {entry: _lookup(*entry) for entry in _entries(tracing)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = len(tracer._patches)
        unwrapped = [f"{mod}:{path}" for (mod, path), fn in originals.items()
                     if _lookup(mod, path) is fn]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert patched >= len(originals)
    assert unwrapped == []
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_oracle_names_stay_out_of_the_package():
    defined = {name for name, value in vars(oracles).items()
               if getattr(value, "__module__", None) == oracles.__name__}
    assert "sector_of" in defined and "read_csv" in defined
    assert defined.isdisjoint(sweyl.__all__)
    clashes = sorted(f"{mod}:{key}" for mod, key in _snapshot()
                     if key.rpartition(".")[2] in defined)
    assert clashes == []


@pytest.mark.parametrize("model,nodes", [
    (SpinModel(8), 578),  # one 17 x 34 sphere rule
    (MultipartiteModel(3), 520),  # 512 nodes and the nested 8-node rule
], ids=repr)
def test_default_grid_node_count(tracing, model, nodes):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ps.default_grid(model)
    finally:
        tracer.uninstall()
    assert tracer.counts["phase_space.grid.nodes"] == nodes
