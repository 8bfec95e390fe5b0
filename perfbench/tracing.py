"""Span tracing from outside the program.

The tracer replaces public sweyl functions and methods with wrappers that
record one span per call: name, parent span, start and end.  It patches
the defining module or class and every ``from ... import`` binding of the
same function in the other sweyl modules, so calls through either route
are seen.  Spans stay in memory; the worker writes them out once the job
list is done.  Nothing inside ``src/`` is changed.

Layer counts (nodes, bytes, builds, samples) are recorded by the same
wrappers from the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from collections import defaultdict
from time import perf_counter


def _kernel_stack(counts, args, kwargs, result):
    model, points = args[0], args[1]
    counts["phase_space.kernel_stack.nodes"] += len(points)
    # Computed bytes of the complex128 (N, d, d) stack, not bytes moved.
    counts["phase_space.kernel_stack.bytes"] += len(points) * model.dim ** 2 * 16


def _grid(counts, args, kwargs, result):
    counts["phase_space.grid.nodes"] += len(result.weights)


def _build_block(counts, args, kwargs, result):
    counts["models.irrep_block.builds"] += 1
    counts["models.block_bytes"] += result.basis.nbytes


def _duality(counts, args, kwargs, result):
    nsamples = args[2] if len(args) > 2 else kwargs["nsamples"]
    counts["gfd.duality_check.samples"] += nsamples


def _written(counts, args, kwargs, result):
    counts["render.bytes_written"] += os.path.getsize(args[0])


def _checks(counts, args, kwargs, result):
    counts["verify.run_checks.checks"] += len(result)


# (module, attribute or Class.method, span name, count hook).  Nested calls
# of one name count once each: a multi-qubit point_unitary is one call plus
# one per qubit, and a product grid counts its factor grid's nodes too.
TARGETS = (
    ("sweyl.clebsch", "clebsch_gordan", "clebsch.clebsch_gordan", None),
    ("sweyl.models", "QrtModel.irrep_block", "models.irrep_block", None),
    ("sweyl.models", "QrtModel.coherent_state", "models.coherent_state", None),
    ("sweyl.models", "SpinModel.point_unitary", "models.point_unitary", None),
    ("sweyl.models", "MultipartiteModel.point_unitary",
     "models.point_unitary", None),
    ("sweyl.models", "FermionicModel.point_unitary",
     "models.point_unitary", None),
    ("sweyl.paulis", "PauliString.to_dense", "paulis.to_dense", None),
    ("sweyl.phase_space", "kernel_stack", "phase_space.kernel_stack",
     _kernel_stack),
    ("sweyl.phase_space", "harmonic_matrix", "phase_space.harmonic_matrix",
     None),
    ("sweyl.phase_space", "reconstruct", "phase_space.reconstruct", None),
    ("sweyl.phase_space", "symbol_field", "phase_space.symbol_field", None),
    ("sweyl.phase_space", "phase_purity_quadrature",
     "phase_space.phase_purity_quadrature", None),
    ("sweyl.phase_space", "sphere_quadrature", "phase_space.grid", _grid),
    ("sweyl.phase_space", "product_quadrature", "phase_space.grid", _grid),
    ("sweyl.phase_space", "star_product", "phase_space.star_product", None),
    ("sweyl.gfd", "purity_spectrum", "gfd.purity_spectrum", None),
    ("sweyl.gfd", "duality_check", "gfd.duality_check", _duality),
    ("sweyl.render", "colorize", "render.colorize", None),
    ("sweyl.render", "robinson_remap", "render.robinson_remap", None),
    ("sweyl.render", "write_ppm", "render.write_ppm", _written),
    ("sweyl.render", "write_csv", "render.write_csv", _written),
    ("sweyl.verify", "run_checks", "verify.run_checks", _checks),
)

# Every count a hook can record; a layer idle on a workload reads 0.
COUNTS = (
    "phase_space.kernel_stack.nodes", "phase_space.kernel_stack.bytes",
    "phase_space.grid.nodes", "models.irrep_block.builds",
    "models.block_bytes", "gfd.duality_check.samples",
    "render.bytes_written", "verify.run_checks.checks",
)

# Counted without a span, so the build's time stays in irrep_block's.
COUNT_ONLY = (
    ("sweyl.models", "SpinModel._build_block", _build_block),
    ("sweyl.models", "MultipartiteModel._build_block", _build_block),
    ("sweyl.models", "FermionicModel._build_block", _build_block),
)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # [name id, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _open(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = [nid, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _count_only(self, fn, hook):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, args, kwargs, result)
            return result

        return counted

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _replace(self, modname: str, path: str, make) -> None:
        module = sys.modules[modname]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            self._patch(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(module, path)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "sweyl" and not name.startswith("sweyl."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def install(self) -> None:
        for modname, path, name, hook in TARGETS:
            self._replace(modname, path,
                          lambda fn, n=name, h=hook: self._wrap(fn, n, h))
        for modname, path, hook in COUNT_ONLY:
            self._replace(modname, path,
                          lambda fn, h=hook: self._count_only(fn, h))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        """Spans in columns, ready for JSON."""
        return {
            "names": self.names,
            "name": [s[0] for s in self.spans],
            "parent": [s[1] for s in self.spans],
            "start": [s[2] for s in self.spans],
            "end": [s[3] for s in self.spans],
            "counts": dict(self.counts),
        }


def summarize(dump: dict) -> dict:
    """Per-name calls, self and total time, and the root-span coverage.

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap (one thread), so coverage is
    the sum of their durations.
    """
    names, name, parent = dump["names"], dump["name"], dump["parent"]
    dur = [e - s for s, e in zip(dump["start"], dump["end"])]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    roots_s = 0.0
    for i, nid in enumerate(name):
        key = names[nid]
        calls[key] += 1
        self_s[key] += dur[i] - covered[i]
        total_s[key] += dur[i]
        if parent[i] < 0:
            roots_s += dur[i]
    return {"calls": dict(calls), "self_s": dict(self_s),
            "total_s": dict(total_s), "roots_s": roots_s}
