"""Spans and counters at the boundaries of the library's layers.

The tracer replaces each listed function, in the module that defines it and in
every `fraisse_forge` module that imported it by name, with a wrapper that
records a span (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out once, after the run; self time is computed from them
afterwards.  Untraced runs never call `install`, so they run unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

TRACED = {
    "structures": ("validate", "is_homomorphism", "classify", "enumerate_homs",
                   "enumerate_codes", "enumerate_isomorphisms_over_base",
                   "induced_substructure"),
    "pushout": ("pushout_1phep", "verify_universal_property",
                "congruence_generated", "quotient"),
    "meetglue": ("glue",),
    "amalgam": ("free_sum",),
    "limits": ("enumerate_extensions", "build_star", "build_stages",
               "check_weak_homogeneity"),
    "lifting": ("lift", "endomorphisms", "cayley_demo"),
    "serialization": ("dumps", "loads"),
}

COUNTERS = ("structures.homs_returned", "pushout.cocones_checked",
            "pushout.hom_cache_hit_ratio", "meetglue.elements",
            "lifting.arms_lifted", "lifting.arms_collapsed", "serialization.bytes")


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack = [-1]
        self.counts = {name: 0 for name in COUNTERS if not name.endswith("_ratio")}
        self._restore: list[tuple[object, str, object]] = []
        self._cache_info = None
        self._cache_before = None
        self._cache_hits = self._cache_misses = 0

    def _ix(self, name: str) -> int:
        k = self._name_ix.get(name)
        if k is None:
            k = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return k

    def _wrap(self, name: str, fn, after=None):
        k = self._ix(name)
        name_of, start, end, parent, stack = (self.name_of, self.start, self.end,
                                              self.parent, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(k)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def span(self, name: str):
        """Open a span around benchmark code; returns the closing function."""
        k = self._ix(name)
        i = len(self.start)
        self.name_of.append(k)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())

        def close():
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()
        return close

    def _after_hooks(self):
        c = self.counts

        def homs(args, result):
            c["structures.homs_returned"] += len(result)

        def cocones(args, result):
            c["pushout.cocones_checked"] += result.cocones_checked

        def glued(args, result):
            c["meetglue.elements"] += len(result.structure.carrier)

        def lifted(args, result):
            c["lifting.arms_lifted"] += len(result.components)
            c["lifting.arms_collapsed"] += sum(1 for comp in result.components
                                               if comp.target_index is None)

        def dumped(args, result):
            c["serialization.bytes"] += len(result)

        def loaded(args, result):
            c["serialization.bytes"] += len(args[0])

        return {"structures.enumerate_homs": homs,
                "pushout.verify_universal_property": cocones,
                "meetglue.glue": glued, "lifting.lift": lifted,
                "serialization.dumps": dumped, "serialization.loads": loaded}

    def install(self) -> None:
        hooks = self._after_hooks()
        homes = {mod: importlib.import_module(f"fraisse_forge.{mod}") for mod in TRACED}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "fraisse_forge" or n.startswith("fraisse_forge."))
                   and m is not None]
        for mod_name, fns in TRACED.items():
            home = homes[mod_name]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        self._restore.append((mod, fn_name, original))
        cache = getattr(homes["pushout"], "_homs_cached", None)
        self._cache_info = getattr(cache, "cache_info", None)
        if self._cache_info is not None:
            self._cache_before = self._cache_info()

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()
        if self._cache_info is not None:
            after = self._cache_info()
            self._cache_hits += after.hits - self._cache_before.hits
            self._cache_misses += after.misses - self._cache_before.misses

    def metrics(self) -> dict[str, tuple[float, str]]:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_ns[k] += dur[i] - child[i]
        out = {}
        for name in traced_names():
            k = self._name_ix.get(name)
            out[f"{name}.calls"] = (calls[k] if k is not None else 0, "count")
            out[f"{name}.self_ms"] = (self_ns[k] / 1e6 if k is not None else 0.0, "ms")
        for name, value in self.counts.items():
            out[name] = (value, "bytes" if name.endswith("bytes") else "count")
        hits, misses = self._cache_hits, self._cache_misses
        out["pushout.hom_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out["trace.spans"] = (n, "count")
        return out

    def write(self, path: Path) -> None:
        """Spans as one JSON header line followed by the four raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", self.name_of.typecode],
                             ["start_ns", self.start.typecode],
                             ["end_ns", self.end.typecode],
                             ["parent", self.parent.typecode]]}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.start, self.end, self.parent):
                arr.tofile(f)
