"""Span tracing installed from outside the package.

``install`` wraps the public functions of each package module, the float
methods of ``MixedPoly`` and scipy's ``minimize`` as ``degeneracy`` binds it,
then rebinds every module attribute and module-level dict entry that still
refers to an original (``from ... import`` copies such as
``arcs.criticality_residual`` and the CLI's command table).  Each call
records a span (name, start, end, parent span, request id) in flat arrays;
``summary`` derives per-name call counts, inclusive time and self time.
"""

from __future__ import annotations

import importlib
import inspect
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "poly", "lattice", "newton", "degeneracy", "arcs", "zeta", "constructors")
POLY_METHODS = ("evaluate", "evaluate_many", "gradients", "real_imag_parts")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._depth = []
        self._stack = []
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self.request_id = -1
        self.counters = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def span(self, name, fn, on_result=None):
        """Wrap fn so every call records a span under ``name``."""
        nid = self._id(name)
        depth, stack = self._depth, self._stack
        name_id, parent, request = self.name_id, self.parent, self.request
        outermost, start, end = self.outermost, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            outermost.append(depth[nid] == 0)
            end.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                depth[nid] -= 1
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, key, fn):
        """Wrap fn so every call adds to a counter, without a span."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self):
        """{name: (calls, inclusive seconds, self seconds)} and {layer: self seconds}."""
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool) if len(self.outermost) else dur > 0
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=np.where(outer, dur, 0.0), minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)
        per_name = {n: (int(calls[i]), float(incl[i]), float(own[i])) for i, n in enumerate(self.names)}
        per_layer = Counter()
        for n, (_, _, s) in per_name.items():
            per_layer[n.split(".", 1)[0]] += s
        return per_name, per_layer

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            request=np.asarray(self.request, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def install(tracer):
    """Wrap the package's layers in place."""
    modules = {short: importlib.import_module(f"mixedmilnor.{short}") for short in LAYERS}
    counters = tracer.counters
    replaced = {}

    def hook_faces(args, result):
        counters["lattice.newton_faces.faces_out"] += len(result)

    def hook_points(args, result):
        counters["poly.evaluate_many.points"] += len(result)

    def hook_minimize(args, result):
        counters["degeneracy.starts"] += 1
        counters["degeneracy.objective_evals"] += int(result.nfev)

    hooks = {"lattice.newton_faces": hook_faces}
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                key = f"{short}.{name}"
                replaced[obj] = tracer.span(key, obj, hooks.get(key))

    poly_cls = modules["poly"].MixedPoly
    for meth in POLY_METHODS:
        original = poly_cls.__dict__[meth]
        setattr(poly_cls, meth, tracer.span(f"poly.{meth}", original,
                                            hook_points if meth == "evaluate_many" else None))
    poly_cls.__init__ = tracer.count("poly.polys_built", poly_cls.__init__)

    minimize = modules["degeneracy"].minimize
    replaced[minimize] = tracer.span("scipy.minimize", minimize, hook_minimize)

    targets = [importlib.import_module("mixedmilnor")] + list(modules.values())
    for mod in targets:
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in replaced:
                setattr(mod, name, replaced[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if isinstance(value, types.FunctionType) and value in replaced:
                        obj[key] = replaced[value]
