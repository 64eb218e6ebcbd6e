"""In-memory span tracer for podreadout, installed from outside the package.

Every public function defined in a layer module is wrapped, and the wrapper
replaces each binding of that function object in every podreadout module.
Names imported by value (``from .pod import select_nb`` in ``circuit``,
``atomic_write_text`` re-exported through ``pipeline`` to ``visualize``, ...)
therefore record spans too.  ``restore()`` puts the originals back.

A span is ``[id, parent_id, name, site, start, end, attrs]``: ``name`` is the
function's ``layer.name``, ``site`` the module whose binding was called, the
parent is the innermost traced call open on the same thread, and ``attrs``
holds the few counts read off arguments or results (bytes, iterations, reuse).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import pkgutil
import threading
import time

LAYERS = ("flow", "pod", "mps", "circuit", "readout", "pipeline", "io_util", "visualize")


def _size(path):
    return os.path.getsize(path)


# counts taken per call: name -> f(bound arguments, result) -> dict
_ATTRS = {
    "flow.solve_cavity_run": lambda a, r: {
        "iterations": r.iterations, "cells": r.u_x.nx * r.u_x.ny},
    "io_util.atomic_write_bytes": lambda a, r: {"bytes": len(a["data"])},
    "io_util.sha256_file": lambda a, r: {"bytes": _size(a["path"])},
    "pod.load_basis": lambda a, r: {"bytes": _size(a["path"])},
    "mps.load_mps": lambda a, r: {"bytes": _size(a["path"])},
    "flow.read_snapshot_file": lambda a, r: {"bytes": _size(a["path"])},
    "flow.read_snapshot_csv": lambda a, r: {"bytes": _size(a["path"])},
    "pipeline.run_offline": lambda a, r: {"reused": bool(r.reused)},
    "mps.search_bond_plan": lambda a, r: {
        "n_b": len(r[0].chis),
        "doublings": sum(int(math.log2(c)) for c in r[0].chis)},
    "visualize.emit_visual_comparison": lambda a, r: {"files": len(r)},
}


def package_modules(package):
    """The package and every submodule except ``__main__``."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def layer_functions(package):
    """(layer, name, function) for every public function a layer module defines."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((layer, name, obj))
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, full_name, site, fn):
        attrs = _ATTRS.get(full_name)
        sig = inspect.signature(fn) if attrs else None
        clock, spans, ids, stack_of = self.clock, self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [next(ids), stack[-1] if stack else None, full_name, site, clock(), 0.0,
                    None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = attrs(bound.arguments, result)
            return result

        return traced

    def install(self, package):
        """Wrap every layer function and rebind it wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        names = {fn: f"{layer}.{name}" for layer, name, fn in layer_functions(package)}
        prefix = package.__name__ + "."
        for mod in package_modules(package):
            site = mod.__name__.removeprefix(prefix)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in names:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(names[obj], site, obj))
        return [(m.__name__, a) for m, a, _ in self._patches]

    def restore(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def export(self):
        return [
            {"id": s[0], "parent": s[1], "name": s[2], "site": s[3],
             "start": s[4], "end": s[5], "attrs": s[6]}
            for s in self.spans
        ]
