"""The package's modules import each other without a cycle.

Every ``src/sweyl/*.py`` is parsed with ``ast`` and each package-internal
import, at any depth (inside functions too), is an edge from the importing
module to the imported one.  ``from . import name`` is an edge to the
module ``name`` when there is one, else to ``__init__``, which defines the
name (``cli``'s ``__version__``).
"""

import ast
import os

import sweyl

PACKAGE = os.path.dirname(sweyl.__file__)
MODULES = sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _imports(tree: ast.AST):
    """(module, node) of every package-internal import under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sweyl":
                    yield (parts[1] if len(parts) > 1 else "__init__"), node
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "sweyl":
                parts = parts[1:]
            elif node.level == 0:
                continue
            if parts and parts[0]:
                yield parts[0], node
            else:
                for alias in node.names:
                    name = alias.name
                    yield (name if name in MODULES else "__init__"), node


def _parse(name: str) -> ast.Module:
    with open(os.path.join(PACKAGE, f"{name}.py")) as fh:
        return ast.parse(fh.read())


def _graph() -> dict:
    return {name: {dep for dep, _ in _imports(_parse(name))}
            for name in MODULES}


def test_package_imports_form_no_cycle():
    graph, done, path = _graph(), set(), []

    def visit(name):
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in MODULES:
        visit(name)


def test_package_imports_stand_at_module_level():
    # An import inside a function hides an edge until the call runs.
    for name in MODULES:
        tree = _parse(name)
        top = {id(node) for node in tree.body}
        nested = [f"{name}.py:{node.lineno}" for _, node in _imports(tree)
                  if id(node) not in top]
        assert not nested
