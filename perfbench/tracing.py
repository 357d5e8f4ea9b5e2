"""Span tracing for the traced benchmark run.

The benchmark's own code wraps each layer's public functions by rebinding
the names in every hullforge module that holds them (``search.construct``,
``search.gram``, ``gf2.rank`` as seen by ``code``, ...) and the public
methods of ``LinearCode`` and ``CorpusEntry``.  Nothing under ``src/`` is
edited.  Each call made while the tracer is active records one span
(name, start, end, parent span) in compact typed arrays; self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("gf2", "code", "buildup", "search", "eaqecc", "corpus", "cli")

# A one-line popcount helper: its wrapper would cost ten times the work.
_SKIP = {("gf2", "parity")}

# Names folded into another span name, as the per-layer metrics define them.
_ALIAS = {
    "gf2.row_basis": "gf2.rref",
    "code.weight_distribution": "code.min_distance",
}

# Public methods traced on classes, per layer.
_CLASS_METHODS = {"code": ("LinearCode",), "corpus": ("CorpusEntry",)}

# Functions traced in cli: the entry point only; its callees are traced
# in their own layers.
_CLI_FUNCS = ("main",)


def _public_functions(layer: str, mod) -> list[tuple[str, object]]:
    if layer == "cli":
        return [(name, getattr(mod, name)) for name in _CLI_FUNCS]
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or (layer, name) in _SKIP:
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            if not inspect.isgeneratorfunction(obj):
                out.append((name, obj))
    return out


def _public_methods(cls) -> list[tuple[str, object]]:
    out = []
    for name, obj in vars(cls).items():
        if name.startswith("_") and name != "__init__":
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            out.append((name, obj))
    return out


class Tracer:
    """Records spans while ``active``; calls pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        # bit 0: outermost span of its layer; bit 1: outermost of its name
        self.flags = array("B")
        self._stack: list[int] = []
        self._layer_depth = [0] * len(LAYERS)
        self._name_depth: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _name_id(self, span_name: str) -> int:
        nid = self._name_ids.get(span_name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[span_name] = nid
            self.names.append(span_name)
            self._layer_of.append(LAYERS.index(span_name.split(".", 1)[0]))
            self._name_depth.append(0)
        return nid

    def _wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)
        lid = self._layer_of[nid]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.name)
            ld = tracer._layer_depth[lid]
            nd = tracer._name_depth[nid]
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.flags.append((ld == 0) | ((nd == 0) << 1))
            tracer.end.append(0.0)
            tracer._layer_depth[lid] = ld + 1
            tracer._name_depth[nid] = nd + 1
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
                tracer._layer_depth[lid] = ld
                tracer._name_depth[nid] = nd

        traced.__wrapped_original__ = fn
        return traced

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Rebind every public layer function wherever hullforge holds it."""
        layer_mods = {layer: importlib.import_module(f"hullforge.{layer}") for layer in LAYERS}
        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "hullforge" or name.startswith("hullforge."))
        ]
        replace: dict[int, object] = {}
        for layer, mod in layer_mods.items():
            for fname, fn in _public_functions(layer, mod):
                span = f"{layer}.{fname}"
                replace[id(fn)] = self._wrap(fn, _ALIAS.get(span, span))
            for cls_name in _CLASS_METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                for mname, fn in _public_methods(cls):
                    span = f"{layer}.{mname.strip('_')}"
                    if mname == "__init__":
                        span = f"{layer}.{cls_name}"
                    self._undo.append((cls, mname, fn))
                    setattr(cls, mname, self._wrap(fn, _ALIAS.get(span, span)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped_original__", None) is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- metrics

    def summary(self) -> dict:
        """Per-name and per-layer calls, busy and self seconds."""
        nspans = len(self.name)
        start = np.frombuffer(self.start, dtype=np.float64) if nspans else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if nspans else np.zeros(0)
        names = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64) if nspans else np.zeros(0, np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64) if nspans else np.zeros(0, np.int64)
        flags = np.frombuffer(self.flags, dtype=np.uint8) if nspans else np.zeros(0, np.uint8)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nspans)
        self_t = dur - child[:nspans]
        nn = len(self.names)
        calls = np.bincount(names, minlength=nn)
        selfs = np.bincount(names, weights=self_t, minlength=nn)
        busy = np.bincount(names, weights=dur * ((flags >> 1) & 1), minlength=nn)
        layer_ids = np.asarray(self._layer_of, dtype=np.int64)[names] if nspans else names
        nl = len(LAYERS)
        l_calls = np.bincount(layer_ids, minlength=nl)
        l_self = np.bincount(layer_ids, weights=self_t, minlength=nl)
        l_busy = np.bincount(layer_ids, weights=dur * (flags & 1), minlength=nl)
        per_name = {
            n: {"calls": int(calls[i]), "self_s": float(selfs[i]), "busy_s": float(busy[i])}
            for i, n in enumerate(self.names)
        }
        per_layer = {
            layer: {"calls": int(l_calls[i]), "self_s": float(l_self[i]), "busy_s": float(l_busy[i])}
            for i, layer in enumerate(LAYERS)
        }
        return {"names": per_name, "layers": per_layer, "spans": nspans}

    def count_children(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose parent span is named ``parent``."""
        cid = self._name_ids.get(child)
        pid = self._name_ids.get(parent)
        if cid is None or pid is None:
            return 0
        names = self.name
        return sum(
            1
            for i, p in enumerate(self.parent)
            if names[i] == cid and p >= 0 and names[p] == pid
        )
