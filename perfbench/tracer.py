"""Span tracing around the calls into defo5's layers, from outside the package.

``Tracer.install`` replaces every public function and method of the loaded
``defo5`` modules (and the copies other modules imported by name) with a
wrapper that records a span: name, start, end and parent span, taken with
``time.perf_counter_ns``.  Spans stay in memory until ``write``.

``artin.rings`` (scalar ``Element`` operations, ring construction) is the
leaf layer and runs millions of times per workload, so its calls are folded
into one aggregate per (function, parent span) holding a call count and a
total duration, and rings calls made from inside a rings call are not timed
again.  Every other call gets its own span.

A layer's self time is the duration of its spans minus the part covered by
their child spans and rings aggregates; time outside every span (the
benchmark's own code) is ``unattributed``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from metrics import LAYERS

LEAF_LAYER = "artin.rings"
_MODULE_LAYER = {"defo5.artin.literals": "artin.rings",
                 "defo5.symbolic.surd": "symbolic",
                 "defo5.symbolic.coefficients": "symbolic",
                 "defo5.reports": "cli"}
# Dunder methods that are layer operations rather than object plumbing.
_TRACED_DUNDERS = {"__init__", "__call__", "__add__", "__radd__", "__sub__",
                   "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__",
                   "__truediv__", "__rtruediv__", "__eq__"}


def layer_of(module_name):
    if module_name in _MODULE_LAYER:
        return _MODULE_LAYER[module_name]
    return module_name.split(".", 1)[1]


class Tracer:
    def __init__(self):
        self.names = []        # name index -> qualified name
        self.layers = []       # name index -> layer
        self.spans = []        # [name index, parent span index, start, end]
        self.leaf = {}         # (name index, parent span index) -> [count, ns]
        self.stack = [-1]      # open span indices; -1 is the root
        self.in_leaf = False

    # -- wrappers -----------------------------------------------------------

    def _name(self, qualname, layer):
        self.names.append(qualname)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, qualname, layer):
        nid = self._name(qualname, layer)
        clock = time.perf_counter_ns
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid, clock)
        if layer == LEAF_LAYER:
            leaf = self.leaf

            @functools.wraps(fn)
            def leaf_call(*args, **kwargs):
                if self.in_leaf:
                    return fn(*args, **kwargs)
                self.in_leaf = True
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self.in_leaf = False
                    key = (nid, self.stack[-1])
                    agg = leaf.get(key)
                    if agg is None:
                        leaf[key] = [1, dt]
                    else:
                        agg[0] += 1
                        agg[1] += dt
            return leaf_call

        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def span_call(*args, **kwargs):
            if self.in_leaf:
                return fn(*args, **kwargs)
            rec = [nid, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return span_call

    def _wrap_generator(self, fn, nid, clock):
        """Each resumption of the generator is timed as one leaf call (the
        only generators in defo5 are ring enumerations)."""
        leaf = self.leaf

        @functools.wraps(fn)
        def gen_call(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if self.in_leaf:
                    item = next(it, StopIteration)
                else:
                    self.in_leaf = True
                    t0 = clock()
                    try:
                        item = next(it, StopIteration)
                    finally:
                        dt = clock() - t0
                        self.in_leaf = False
                        agg = leaf.setdefault((nid, self.stack[-1]), [0, 0])
                        agg[0] += 1
                        agg[1] += dt
                if item is StopIteration:
                    return
                yield item
        return gen_call

    # -- installation -------------------------------------------------------

    def install(self, callers=()):
        """Wrap the public callables of every loaded defo5 module, and rebind
        the names that defo5 and the ``callers`` modules imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("defo5.") and m is not None]
        replaced = {}
        for mod in modules:
            layer = layer_of(mod.__name__)
            if layer not in LAYERS:
                continue  # packages, and modules newer than this list
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(obj, layer)
                elif callable(obj):
                    replaced[id(obj)] = self.wrap(obj, f"{mod.__name__}.{name}",
                                                  layer)
        # rebind every module-level reference, including `from x import f`
        for mod in [sys.modules["defo5"], *modules, *callers]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def _install_class(self, cls, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            qual = f"{cls.__module__}.{cls.__qualname__}.{attr}"
            if isinstance(val, (staticmethod, classmethod)):
                setattr(cls, attr, type(val)(self.wrap(val.__func__, qual, layer)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self.wrap(val, qual, layer))

    # -- results ------------------------------------------------------------

    def summary(self, total_ns):
        """Self time per layer (ns), per function (ns), and the call count,
        over a traced pass of ``total_ns``."""
        covered = {}
        for _, parent, start, end in self.spans:
            covered[parent] = covered.get(parent, 0) + end - start
        for (_, parent), (_, ns) in self.leaf.items():
            covered[parent] = covered.get(parent, 0) + ns
        by_layer = dict.fromkeys(LAYERS, 0)
        by_name = {}
        for i, (nid, _, start, end) in enumerate(self.spans):
            own = end - start - covered.get(i, 0)
            by_layer[self.layers[nid]] = by_layer.get(self.layers[nid], 0) + own
            by_name[nid] = by_name.get(nid, 0) + own
        calls = len(self.spans)
        for (nid, _), (count, ns) in self.leaf.items():
            by_layer[self.layers[nid]] = by_layer.get(self.layers[nid], 0) + ns
            by_name[nid] = by_name.get(nid, 0) + ns
            calls += count
        by_layer["unattributed"] = total_ns - covered.get(-1, 0)
        top = sorted(by_name.items(), key=lambda kv: -kv[1])[:15]
        return {"self_ns": by_layer, "calls": calls,
                "top_self_ns": {self.names[nid]: ns for nid, ns in top}}

    def write(self, path):
        """All spans and leaf aggregates as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "layers": self.layers}) + "\n")
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": rec[0], "parent": rec[1],
                                     "start_ns": rec[2], "end_ns": rec[3]}) + "\n")
            for (nid, parent), (count, ns) in self.leaf.items():
                fh.write(json.dumps({"aggregate": nid, "parent": parent,
                                     "calls": count, "total_ns": ns}) + "\n")
