"""Spans and counts around calls into edgering's public functions.

The traced run rebinds each layer's public entry point, in every edgering
module that imported it, to a wrapper that records a span (name, start, end,
parent) and the counts that belong to that layer. A layer's self time is its
span's duration minus the time its child spans cover. Counts that need extra
work are taken after the span has closed and timed as `trace.hooks_s`, which
no layer's self time includes.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

# span name -> the per-layer metric that reports its self time; the polytope
# layer has two spans, construction (a rank computation) and the DD facet pass
SELF_TIME_METRICS = {
    "enumeration": "enumeration.s",
    "matching": "matching.s",
    "normality": "normality.s",
    "polytope.build": "polytope.s",
    "polytope.dd": "polytope.s",
    "ehrhart.window": "ehrhart.window_s",
    "ehrhart.interior": "ehrhart.interior_s",
    "toric": "toric.s",
}
COUNT_METRICS = (
    "enumeration.classes", "enumeration.canonical_forms",
    "matching.calls",
    "normality.normal", "normality.odd_cycles",
    "polytope.facets", "polytope.vertices",
    "ehrhart.window_rows", "ehrhart.lattice_points", "ehrhart.window_skipped",
    "ehrhart.interior_dilations",
    "toric.monomials", "toric.generators", "toric.budget_aborts",
)
# Counts fixed by the inputs and the right answers rather than by the
# program's cost. The traced run prints them beside the per-layer metrics as
# checks, but does not report them as metrics: a change in either direction
# is a changed input or a wrong result, not a gain.
OUTPUT_COUNTS = (
    "enumeration.classes", "normality.normal", "normality.odd_cycles",
    "polytope.facets", "polytope.vertices",
    "ehrhart.lattice_points", "ehrhart.window_skipped", "toric.generators",
)


def rebind(func, replacement) -> None:
    """Point every edgering module attribute bound to `func` at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if name == "edgering" or name.startswith("edgering."):
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, replacement)


class Tracer:
    """Spans in memory plus per-name self time and counts."""

    def __init__(self) -> None:
        self.spans: list = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.hooks_s = 0.0
        self._open: list[list] = []  # [span index, time covered by children]

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(result, *args, **kwargs)` runs once the
        span has closed."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else None
            self.spans.append(None)
            frame = [index, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
                self.self_s[name] += end - start - frame[1]
                if self._open:
                    self._open[-1][1] += end - start
            if after is not None:
                h0 = time.perf_counter()
                after(result, *args, **kwargs)
                spent = time.perf_counter() - h0
                self.hooks_s += spent
                if self._open:
                    self._open[-1][1] += spent
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        out = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for span, metric in SELF_TIME_METRICS.items():
            out[metric] += self.self_s.get(span, 0.0)
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        rows = out["ehrhart.window_rows"]
        out["ehrhart.window_yield"] = out["ehrhart.lattice_points"] / rows if rows else 0.0
        out["trace.spans"] = len(self.spans)
        out["trace.hooks_s"] = self.hooks_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "self_s": self.self_s, "counts": self.counts}, fh)


def install() -> Tracer:
    """Wrap the public entry point of every layer; returns the live tracer."""
    from edgering import analysis, ehrhart, enumeration, matching, normality, polytope, toric

    t = Tracer()
    c = t.counts
    edge_polytope = polytope.edge_polytope
    matching_number = matching.matching_number

    classes: dict[int, int] = {}

    def after_enumeration(result, n):
        classes[n] = len(result)
        c["enumeration.classes"] = sum(classes.values())
        canonical = getattr(enumeration, "canonical_bits", None)
        if hasattr(canonical, "cache_info"):
            c["enumeration.canonical_forms"] = canonical.cache_info().misses

    def after_matching(result, g):
        c["matching.calls"] += 1

    classified: set = set()

    def after_normality(result, g):
        if g not in classified:
            classified.add(g)
            c["normality.normal"] += bool(result)
            c["normality.odd_cycles"] += len(normality.enumerate_minimal_odd_cycles(g))

    with_facets: set = set()

    def after_facets(result, p):
        if p.graph not in with_facets:
            with_facets.add(p.graph)
            c["polytope.facets"] += len(result)
            c["polytope.vertices"] += len(p.vertices)

    def after_window(h, g, *args, **kwargs):
        dim = edge_polytope(g).dim
        c["ehrhart.window_rows"] += ehrhart.window_row_cost(g, dim + 2)
        c["ehrhart.lattice_points"] += sum(
            ehrhart.ehrhart_polynomial_value(h, dim, q) for q in range(dim + 3)
        )

    def after_interior(q, g):
        c["ehrhart.interior_dilations"] += q - max(g.d - matching_number(g), 1) + 1

    toric_span = t.wrap("toric", toric.minimal_generator_degrees)
    toric_signature = inspect.signature(toric.minimal_generator_degrees)

    def traced_toric(*args, **kwargs):
        call = toric_signature.bind(*args, **kwargs)
        call.apply_defaults()
        g, q_max, budget = (call.arguments[k] for k in ("g", "q_max", "budget"))
        try:
            profile = toric_span(*args, **kwargs)
        except ehrhart.BudgetExceededError:
            c["toric.budget_aborts"] += 1
            raise
        finally:
            # edge multisets enumerated: every degree up to the first one the
            # budget refuses
            for q in range(2, q_max + 1):
                count = math.comb(g.m + q - 1, q)
                if count > budget or q > ehrhart.MAX_Q:
                    break
                c["toric.monomials"] += count
        c["toric.generators"] += profile.total
        return profile

    analyze = analysis.analyze

    def counted_analyze(*args, **kwargs):
        report = analyze(*args, **kwargs)
        if report.normal and report.h_star is None:
            c["ehrhart.window_skipped"] += 1
        return report

    rebind(enumeration.connected_graphs,
           t.wrap("enumeration", enumeration.connected_graphs, after_enumeration))
    rebind(matching_number, t.wrap("matching", matching_number, after_matching))
    rebind(normality.is_normal, t.wrap("normality", normality.is_normal, after_normality))
    rebind(edge_polytope, t.wrap("polytope.build", edge_polytope))
    polytope.EdgePolytope.facets = t.wrap("polytope.dd", polytope.EdgePolytope.facets, after_facets)
    rebind(ehrhart.h_star, t.wrap("ehrhart.window", ehrhart.h_star, after_window))
    rebind(ehrhart.min_interior_q,
           t.wrap("ehrhart.interior", ehrhart.min_interior_q, after_interior))
    rebind(toric.minimal_generator_degrees, traced_toric)
    rebind(analyze, counted_analyze)
    return t
