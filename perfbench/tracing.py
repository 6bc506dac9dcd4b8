"""Span tracing from outside the program.

`Tracer.install` replaces selected flowmech functions with wrappers that
record a span (name, start, end, parent) per call.  A function that other
flowmech modules imported by name is replaced under every such name, and in
the mechanism registry, so calls between modules are seen too.  Spans stay
in memory until `write`.  `uninstall` puts the originals back, so untraced
rounds run the program unchanged.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: (module, attribute) of every traced function; the span name is
#: "<module>.<attribute>".  Each one feeds a per-layer metric.
TARGETS = [
    ("maxflow", "max_flow"),
    ("network", "parse_network"),
    ("network", "validate"),
    ("network", "resolve_reports"),
    ("cuts", "critical_value"),
    ("cuts", "min_cut_nearest_source"),
    ("mechanisms", "shapley"),
    ("mechanisms", "mc_allocate"),
    # reported only through audits.mechanism_calls
    ("mechanisms", "core_select_nearest_cut"),
    ("mechanisms", "core_check"),
    ("mechanisms", "core_bounds"),
    ("simplex", "solve_standard_form"),
    ("complementarity", "classify_complementarity"),
    ("complementarity", "probe_constant_relation"),
    ("audits", "check_dsic"),
    ("audits", "check_sir"),
    ("audits", "check_sp"),
    ("audits", "check_mp"),
    ("audits", "check_cm"),
    ("audits", "best_deviation"),
    ("audits", "shapley_relation_probe"),
    ("cli", "main"),
]
MECHANISM_SPANS = ("mechanisms.shapley", "mechanisms.mc_allocate", "mechanisms.core_select_nearest_cut")
FILL = "game.fill"
PACKAGE = "flowmech"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index), parent -1 at the top
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []
        mod = sys.modules[f"{PACKAGE}.cuts"]
        self.cutset_cache = mod._minimal_cutsets  # the lru_cache itself, for cache_info()

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def _count_cm(self, report) -> None:
        if report.trace is not None:
            self.counts["audits.cm.points"] += len(report.trace.grid)
            self.counts["audits.cm.judged_points"] += sum(report.trace.context.get("judged", ()))

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        pkg = PACKAGE
        modules = [m for key, m in list(sys.modules.items()) if key == pkg or key.startswith(pkg + ".")]
        for modname, attr in TARGETS:
            orig = getattr(sys.modules[f"{pkg}.{modname}"], attr)
            after = self._count_cm if (modname, attr) == ("audits", "check_cm") else None
            wrapper = self._wrap(f"{modname}.{attr}", orig, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper, orig)
            registry = sys.modules[f"{pkg}.mechanisms"].MECHANISMS
            for key, value in list(registry.items()):
                if value is orig:
                    registry[key] = wrapper
                    self._undo.append((registry.__setitem__, key, orig))
        cuts = sys.modules[f"{pkg}.cuts"]
        self._set(cuts, "_minimal_cutsets", self._wrap("cuts.enumerate", self.cutset_cache), self.cutset_cache)
        # coalition-table fills: one max flow per coalition (max-flow table)
        # or one cheapest-cut scan per coalition (cut table)
        cache_cls = sys.modules[f"{pkg}.game"].CharacteristicCache
        compute, min_cut = cache_cls._compute, cache_cls._min_cut_int
        tracer = self

        def traced_compute(cache, mask):
            if cache.method == "cuts":
                return compute(cache, mask)
            return tracer.span(FILL, compute, cache, mask)

        def traced_min_cut(cache, mask):
            return tracer.span(FILL, min_cut, cache, mask)

        self._set(cache_cls, "_compute", traced_compute, compute)
        self._set(cache_cls, "_min_cut_int", traced_min_cut, min_cut)

    def _set(self, owner, key, value, orig) -> None:
        setattr(owner, key, value)
        self._undo.append((setattr, owner, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds,
        where self time is the span's duration minus its children's."""
        spans = self.spans
        child = [0.0] * len(spans)
        under_audit = [False] * len(spans)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                under_audit[idx] = under_audit[parent] or spans[parent][0].startswith("audits.")
        mech_in_audits = 0
        for idx, (name, start, end, parent) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
            if name in MECHANISM_SPANS and under_audit[idx]:
                mech_in_audits += 1
        out["audits.mechanism_calls"]["calls"] = mech_in_audits
        return dict(out)

    def write(self, path: str) -> None:
        """One line per span: index, parent index, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
