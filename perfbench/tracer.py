"""In-memory span and counter tracer for the spin7lab layers.

The tracer wraps the public functions and methods of each spin7lab module
from the outside; no source file is edited.  A wrapped function opens a
span (name, layer, start, end, parent); scalar arithmetic is only counted,
because a span per field operation would cost more than the operation.

Spans are aggregated in memory while the traced code runs:

* ``<span>`` inclusive seconds of its outermost calls (recursion is not
  double counted) and its number of calls;
* per layer, the busy time (time inside the layer's outermost span) and the
  self time (span durations minus the part covered by child spans).

Coarse spans (suites, artifacts, classifier calls) are also kept one by one
with their parent, and everything is written out once, by ``summary()``.

Modules do ``from .exterior.endo import rho``, so a wrapper is installed on
every loaded ``spin7lab`` module that holds the original object, and on
every alias inside a class (``__rmul__ = __mul__``, ``__xor__ = wedge``).
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter_ns

# Methods wrapped on the classes below, besides their public methods.
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__matmul__", "__xor__", "__pow__",
            "__call__", "__truediv__", "__rtruediv__")

# layer -> list of (module, class name or None); None wraps the module's
# public functions.
LAYERS = {
    "forms": [("spin7lab.exterior.forms", None),
              ("spin7lab.exterior.forms", "KForm"),
              ("spin7lab.exterior.endo", None),
              ("spin7lab.exterior.endo", "Endo"),
              ("spin7lab.invariant.chamber", None),
              ("spin7lab.invariant.chamber", "ChamberForm")],
    "linalg": [("spin7lab.exterior.linalg", None)],
    "cayley": [("spin7lab.cayley", None),
               ("spin7lab.cayley", "FormOperator"),
               ("spin7lab.cayley", "DecompositionProjectors")],
    "classify": [("spin7lab.classify", None)],
    "invariant": [("spin7lab.invariant.liealg", None),
                  ("spin7lab.invariant.liealg", "LieFrame"),
                  ("spin7lab.invariant.bryant_salamon", None),
                  ("spin7lab.invariant.bryant_salamon", "InvariantField")],
    "harness": [("spin7lab.harness.checks", None),
                ("spin7lab.harness.cli", None)],
}

# Scalar methods that are counted, not spanned: (module, class, method) ->
# counter name.  Aliases of the same function share the counter.
COUNTED = {
    ("spin7lab.exterior.scalars", "FieldScalar", "__mul__"): "scalars.field_mul_calls",
    ("spin7lab.exterior.scalars", "FieldScalar", "inverse"): "scalars.field_inverse_calls",
    ("spin7lab.invariant.chamber", "ChamberScalar", "__mul__"): "scalars.chamber_mul_calls",
}

SUITES = ("basics", "decomposition", "classify", "bryant-salamon", "perturb")

# Spans whose individual records are kept (few calls, coarse work).
COARSE = {f"harness.suite.{suite}" for suite in SUITES} | {
    "classify.classification_report",
    "classify.kernel_space", "classify.find_certificate",
    "cayley.projectors", "cayley.stabilizer_algebra", "cayley.image_dimension",
    "invariant.build_lie_frame", "invariant.build_orthonormal_frame",
    "invariant.build_bryant_salamon", "invariant.killing_matrix",
    "invariant.normalizer", "invariant.pointwise_rank_one_check",
}
_COARSE_CAP = 20000


def _is_public_function(name: str, obj, modname: str) -> bool:
    """A public function (or lru_cache wrapper) defined in ``modname``."""
    return (not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == modname)


class Tracer:
    """Installs wrappers, aggregates spans and counts, restores on uninstall."""

    def __init__(self):
        self.stack: list[list] = []      # [name, layer, start_ns, child_ns, id]
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.depth: dict[str, int] = {}
        self.layer_busy_ns: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.layer_self_ns: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.layer_depth: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counts: dict[str, int] = {name: 0 for name in COUNTED.values()}
        self.counts.update({"linalg.cells": 0})
        self.kernel_diagrams: set = set()
        self.spans: list[tuple] = []     # coarse spans: (id, parent, name, start, end)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str, layer: str) -> list:
        self._next_id += 1
        frame = [name, layer, perf_counter_ns(), 0, self._next_id]
        self.stack.append(frame)
        self.depth[name] = self.depth.get(name, 0) + 1
        self.layer_depth[layer] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter_ns()
        name, layer, start, child, span_id = frame
        popped = self.stack.pop()
        assert popped is frame, "span stack out of order"
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.layer_self_ns[layer] += dur - child
        if self.depth[name] == 1:
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.depth[name] -= 1
        if self.layer_depth[layer] == 1:
            self.layer_busy_ns[layer] += dur
        self.layer_depth[layer] -= 1
        if self.stack:
            self.stack[-1][3] += dur
        if name in COARSE and len(self.spans) < _COARSE_CAP:
            parent = self.stack[-1][4] if self.stack else 0
            self.spans.append((span_id, parent, name, start, end))

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if hook is None else hook(tracer, name, args)
            frame = tracer._enter(span, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def _count_wrapper(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable; the spin7lab modules must be imported."""
        replaced: dict[int, object] = {}   # id(original) -> wrapper
        for layer, targets in LAYERS.items():
            for modname, clsname in targets:
                mod = sys.modules[modname]
                if clsname is None:
                    for name, obj in list(vars(mod).items()):
                        if (_is_public_function(name, obj, modname)
                                and id(obj) not in replaced):
                            wrapper = self._span_wrapper(
                                obj, f"{layer}.{name}", layer, _HOOKS.get(name))
                            replaced[id(obj)] = wrapper
                else:
                    cls = getattr(mod, clsname)
                    seen: dict[int, object] = {}
                    for name, obj in list(vars(cls).items()):
                        if not isinstance(obj, types.FunctionType):
                            continue
                        if name.startswith("_") and name not in _DUNDERS:
                            continue
                        if id(obj) not in seen:
                            seen[id(obj)] = self._span_wrapper(
                                obj, f"{layer}.{clsname}.{obj.__name__}", layer)
                        self._patch(cls, name, seen[id(obj)])
        for (modname, clsname, meth), counter in COUNTED.items():
            cls = getattr(sys.modules[modname], clsname)
            original = vars(cls)[meth]
            wrapper = self._count_wrapper(original, counter)
            for name, obj in list(vars(cls).items()):
                if obj is original:        # the method and its aliases
                    self._patch(cls, name, wrapper)
        # rebind module-level names in every module that imported them
        for modname, mod in list(sys.modules.items()):
            if modname != "spin7lab" and not modname.startswith("spin7lab."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is obj:
                    self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(sorted(self.calls.items())),
            "total_s": {k: v / 1e9 for k, v in sorted(self.total_ns.items())},
            "layer_busy_s": {k: v / 1e9 for k, v in self.layer_busy_ns.items()},
            "layer_self_s": {k: v / 1e9 for k, v in self.layer_self_ns.items()},
            "counts": dict(self.counts),
            "kernel_diagrams": sorted(self.kernel_diagrams),
            "coarse_spans": [
                {"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
                for i, p, n, s, e in self.spans],
        }


def _suite_hook(tracer: Tracer, name: str, args) -> str:
    return f"harness.suite.{args[0]}" if args else name


def _echelon_hook(tracer: Tracer, name: str, args) -> str:
    rows = args[0] if args else []
    tracer.counts["linalg.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    return name


def _kernel_hook(tracer: Tracer, name: str, args) -> str:
    if args:
        tracer.kernel_diagrams.add(tuple(args[0].parts))
    return name


_HOOKS = {"run_suite": _suite_hook, "echelon": _echelon_hook,
          "kernel_space": _kernel_hook}
