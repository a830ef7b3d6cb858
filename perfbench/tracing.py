"""Layer spans and work counts, recorded from outside the package.

``Tracer.install`` replaces monograde's public functions at the names
each module binds them: every cross-module import (``monograde.cone.rank``
is exact_linalg's ``rank`` as cone calls it), the entry points the jobs
call, the functions whose calls are counted, and the public methods of
the classes each module defines.  A wrapper opens a span
only when the call enters a different layer, so a span is one layer
boundary crossing.  Spans stay in memory as ``[function, start, end,
parent, job]`` and are written out by ``save``.  ``uninstall`` restores
the original functions; a tracer can be installed and uninstalled many
times and keeps adding to the same spans and counts.
"""

from __future__ import annotations

import collections
import inspect
import time

import numpy as np

from jobs import cli, cone, divisorial, groebner, monoid, multigraded
from monograde import exact_linalg

MODULES = (cli, multigraded, groebner, divisorial, monoid, cone, exact_linalg)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)

# functions the jobs call directly, wrapped in their home module as well
ENTRY_POINTS = {
    "cli": ("parse_input", "execute"),
    "multigraded": ("analyze_prime", "graded_hull"),
    "groebner": ("default_variables", "parse_polynomial", "grevlex"),
    "divisorial": ("canonical_module", "class_group", "is_gorenstein"),
    "monoid": ("monoid_from_cone_rays", "hilbert_basis"),
    "cone": ("facets_of_rays", "rays_of_facets"),
}

# functions whose every call is counted, including calls inside their module
COUNTED = {
    "exact_linalg": ("hnf", "snf"),
    "groebner": ("s_polynomial", "normal_form"),
    "multigraded": ("graded_hull_z",),
    "divisorial": ("minimal_generators",),
}


class Tracer:
    def __init__(self):
        self.functions: list[tuple[str, str]] = []  # (layer, qualified name) per id
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()  # (name, job) -> calls
        self.reduction_steps = 0
        self.spairs_to_zero = 0
        self.job = -1
        self._open: list[tuple[int, str]] = []  # (span index, layer)
        self._last_spoly = None
        self._patches = self._wrap()  # (object, name, original, wrapper)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn, _ in reversed(self._patches):
            setattr(mod, name, fn)

    def _wrap(self):
        targets = []
        for mod, layer in zip(MODULES, LAYERS):
            for name, fn in vars(mod).items():
                if inspect.isclass(fn) and fn.__module__ == mod.__name__:
                    # public methods run in the class's layer whoever calls them
                    targets.extend((fn, meth, f, layer) for meth, f in vars(fn).items()
                                   if inspect.isfunction(f) and not meth.startswith("_"))
                if not inspect.isfunction(fn) or name.startswith("_"):
                    continue
                package, _, home = fn.__module__.rpartition(".")
                if package != "monograde" or home not in LAYERS:
                    continue
                if home != layer or name in ENTRY_POINTS.get(layer, ()) \
                        or name in COUNTED.get(layer, ()):
                    targets.append((mod, name, fn, home))
        cores = {}
        patches = []
        for mod, name, fn, home in targets:
            if fn not in cores:
                cores[fn] = (len(self.functions), self._core(fn, name, home))
                self.functions.append((home, fn.__qualname__))
            fid, core = cores[fn]
            patches.append((mod, name, fn, self._span(core, fid, home)))
        return patches

    def _core(self, fn, name, home):
        """The function itself, plus counting for the counted ones."""
        if name not in COUNTED.get(home, ()):
            return fn
        counts = self.counts
        tracer = self

        if name == "s_polynomial":
            def core(*args, **kwargs):
                counts[name, tracer.job] += 1
                tracer._last_spoly = out = fn(*args, **kwargs)
                return out
        elif name == "normal_form":
            def core(f, basis, order, budget=None):
                # the budget object passed down through budget=; its spent
                # part is the number of reduction steps
                counts[name, tracer.job] += 1
                before = budget.remaining
                out = fn(f, basis, order, budget)
                tracer.reduction_steps += before - budget.remaining
                if f is tracer._last_spoly and out.is_zero:
                    tracer.spairs_to_zero += 1
                return out
        else:
            def core(*args, **kwargs):
                counts[name, tracer.job] += 1
                return fn(*args, **kwargs)
        return core

    def _span(self, core, fid, layer):
        spans, open_, clock, tracer = self.spans, self._open, time.perf_counter, self

        def wrapper(*args, **kwargs):
            if open_ and open_[-1][1] == layer:
                return core(*args, **kwargs)
            rec = [fid, clock(), 0.0, open_[-1][0] if open_ else -1, tracer.job]
            open_.append((len(spans), layer))
            spans.append(rec)
            try:
                return core(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        return wrapper

    # -- results -------------------------------------------------------------

    def total(self, name: str) -> int:
        return sum(c for (n, _), c in self.counts.items() if n == name)

    def per_job(self, name: str) -> dict[int, int]:
        return {j: c for (n, j), c in self.counts.items() if n == name}

    def layer_times(self, wall: float):
        """(calls, self seconds) per layer, seconds inside named functions,
        and the harness time outside every span."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive = collections.Counter()
        top = 0.0
        for k, (fid, start, end, parent, _) in enumerate(self.spans):
            layer, name = self.functions[fid]
            calls[layer] += 1
            self_s[layer] += end - start - child[k]
            inclusive[layer, name] += end - start
            if parent < 0:
                top += end - start
        return calls, self_s, inclusive, wall - top

    def save(self, path: str) -> None:
        spans = np.array([s[1:3] for s in self.spans], dtype=float).reshape(-1, 2)
        ids = np.array([[s[0], s[3], s[4]] for s in self.spans], dtype=np.int64).reshape(-1, 3)
        np.savez_compressed(
            path,
            function_layer=np.array([f[0] for f in self.functions]),
            function_name=np.array([f[1] for f in self.functions]),
            start_end=spans,
            function_parent_job=ids,
        )
