"""Whole-graph analysis reports, the exhaustive bound verifier, family sweeps,
and the bounded matching-number survey."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .ehrhart import BudgetExceededError, ehrhart_profile
from .enumeration import MAX_N, connected_graphs
from .graphs import (
    Graph,
    NotConnectedError,
    attach_path,
    complete_bipartite_graph,
    complete_graph,
    is_bipartite,
    is_connected,
    two_triangles_path,
)
from .matching import matching_number, min_edge_cover
from .normality import is_normal
from .polytope import edge_polytope
from .toric import GeneratorProfile, minimal_generator_degrees

CSV_HEADER = "family,params,d,edges,mat,mu,normal,dim,reg,expected_reg,verdict"


def _csv_row(family: str, params: str, r: AnalysisReport, expected_reg, verdict: str) -> str:
    """One row in the columns of CSV_HEADER; an unknown reg is left empty."""
    reg = "" if r.reg is None else r.reg
    return (f"{family},{params},{r.d},{r.edge_count},{r.mat},{r.mu},{str(r.normal).lower()},"
            f"{r.dim},{reg},{expected_reg},{verdict}")


def q5_csv_row(r: AnalysisReport) -> str:
    """The survey's row of one report: the graph is its params, and no reg
    is expected of it."""
    edges = " ".join(f"{i}-{j}" for i, j in r.edges)
    return _csv_row("q5", f"d={r.d};edges={edges}", r, "", "empirical")


@dataclass(frozen=True)
class AnalysisReport:
    """Every invariant of one connected graph, plus the bound verdict."""

    d: int
    edge_count: int
    edges: tuple[tuple[int, int], ...]
    bipartite: bool
    mat: int
    mu: int
    cover_size: int
    normal: bool
    dim: int
    facet_count: int
    min_interior_q: int | None
    h_star: tuple[int, ...] | None
    reg: int | None
    reg_source: str
    bound_used: int | None
    verdict: str
    generator_profile: GeneratorProfile | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "graph": {
                "d": self.d,
                "edge_count": self.edge_count,
                "edges": [list(e) for e in self.edges],
                "bipartite": self.bipartite,
                "connected": True,
            },
            "mat": self.mat,
            "mu": self.mu,
            "mu_identity": {"d_minus_mat": self.d - self.mat, "cover_size": self.cover_size},
            "normal": self.normal,
            "dim": self.dim,
            "facet_count": self.facet_count,
            "min_interior_q": self.min_interior_q,
            "h_star": list(self.h_star) if self.h_star is not None else None,
            "reg": self.reg,
            "reg_source": self.reg_source,
            "theorem": {"verdict": self.verdict, "bound_used": self.bound_used},
            "generator_profile": (
                self.generator_profile.to_dict() if self.generator_profile else None
            ),
            "notes": list(self.notes),
            "seconds": round(self.seconds, 6),
        }


def analyze(g: Graph, run_toric: bool = False, toric_qmax: int | None = None) -> AnalysisReport:
    """Compute all invariants of a connected graph with at least two vertices.

    Toric analysis is opt-in because fiber enumeration grows quickly; when it
    runs, its degree bound defaults to 2 * dim unless given explicitly.
    """
    if g.d < 2:
        raise ValueError("analysis needs at least two vertices")
    if not is_connected(g):
        raise NotConnectedError("analysis requires a connected graph")
    t0 = time.perf_counter()
    notes: list[str] = []
    mat = matching_number(g)
    cover = min_edge_cover(g)
    mu = g.d - mat
    bip = is_bipartite(g) is not None
    normal = is_normal(g)
    p = edge_polytope(g)
    facet_count = len(p.facets())

    q_min: int | None = None
    hs: tuple[int, ...] | None = None
    reg: int | None = None
    reg_source = "unknown"
    if normal:
        counting = ehrhart_profile(g)
        q_min, hs, reg = counting.min_interior_q, counting.h_star, counting.s
        if hs is not None:
            reg_source = "h-star degree, cross-checked against interior threshold"
        else:
            reg_source = "interior threshold (h* window over row budget)"
            notes.append("h_star skipped: enumeration window over the row budget")

    profile: GeneratorProfile | None = None
    if run_toric:
        qmax = toric_qmax if toric_qmax is not None else max(2, 2 * p.dim)
        try:
            profile = minimal_generator_degrees(g, qmax)
        except BudgetExceededError as exc:
            notes.append(f"toric analysis aborted: {exc}")
        if profile is not None and not normal:
            if profile.principal_reg is not None:
                reg = profile.principal_reg
                reg_source = f"principal generator (certified up to degree {profile.complete_up_to})"
            else:
                notes.append("defining ideal not principal up to the bound; reg unknown")

    if normal:
        bound = mat - 1 if bip else mat
        verdict = "holds" if reg is not None and reg <= bound else "violated"
    else:
        bound = None
        verdict = "not-applicable"

    return AnalysisReport(
        d=g.d,
        edge_count=g.m,
        edges=g.edges,
        bipartite=bip,
        mat=mat,
        mu=mu,
        cover_size=len(cover),
        normal=normal,
        dim=p.dim,
        facet_count=facet_count,
        min_interior_q=q_min,
        h_star=hs,
        reg=reg,
        reg_source=reg_source,
        bound_used=bound,
        verdict=verdict,
        generator_profile=profile,
        notes=tuple(notes),
        seconds=time.perf_counter() - t0,
    )


def _connected_up_to(n_max: int):
    """Every connected graph on 2..n_max vertices, up to isomorphism, in
    order of vertex count. n_max is checked on the call, before anything
    is enumerated."""
    if not (2 <= n_max <= MAX_N):
        raise ValueError(f"n_max must be between 2 and {MAX_N}")
    return (g for n in range(2, n_max + 1) for g in connected_graphs(n))


@dataclass(frozen=True)
class Verification:
    """Outcome of `verify_theorem`: graphs checked, how many were normal (and
    so analyzed), and the reports that violate their bound."""

    checked: int
    normal: int
    violations: list[AnalysisReport]


def verify_theorem(n_max: int) -> Verification:
    """Check reg <= mat (non-bipartite normal) and reg <= mat - 1 (bipartite)
    over every connected graph on at most n_max vertices, up to isomorphism.

    No violation is the expected outcome. Non-normal graphs are counted but
    not analyzed (the bound does not apply).
    """
    checked = normal = 0
    violations: list[AnalysisReport] = []
    for g in _connected_up_to(n_max):
        checked += 1
        if not is_normal(g):
            continue
        normal += 1
        report = analyze(g)
        if report.verdict == "violated":
            violations.append(report)
    return Verification(checked, normal, violations)


@dataclass(frozen=True)
class SweepRow:
    """One family instance: its report against the expected reg and mat."""

    family: str
    params: str
    report: AnalysisReport
    expected_reg: int
    expected_mat: int

    @property
    def match(self) -> bool:
        return self.report.reg == self.expected_reg and self.report.mat == self.expected_mat

    def csv_row(self) -> str:
        return _csv_row(self.family, self.params, self.report, self.expected_reg,
                        "match" if self.match else "mismatch")

    def to_dict(self) -> dict:
        r = self.report
        return {"family": self.family, "params": self.params, "d": r.d,
                "edge_count": r.edge_count, "mat": r.mat, "mu": r.mu, "normal": r.normal,
                "dim": r.dim, "reg": r.reg, "expected_reg": self.expected_reg,
                "expected_mat": self.expected_mat, "match": self.match}


def run_families(r_max: int, l_max: int) -> list[SweepRow]:
    """Sweep the path-extended complete and complete bipartite families, where
    any regularity r <= matching number m is realized, plus the two-triangle
    path family where regularity outruns the matching number.

    r below 2 is skipped: the r = 0, 1 instances degenerate (a single edge or
    an empty graph) and are logged as unverified edge cases by the CLI.
    """
    if r_max < 2:
        raise ValueError("r_max must be >= 2")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    rows: list[SweepRow] = []
    for r in range(2, r_max + 1):
        bases = [("complete_plus_path", complete_graph(2 * r), 0),
                 ("complete_bipartite_plus_path", complete_bipartite_graph(r + 1, r + 1), 1)]
        for m in range(r, r + 3):
            for family, h, extra_mat in bases:
                g = h if m == r else attach_path(h, 1, 2 * (m - r))
                rows.append(SweepRow(family, f"r={r};m={m}", analyze(g), r, m + extra_mat))
    for ell in range(1, l_max + 1):
        report = analyze(two_triangles_path(ell), run_toric=True, toric_qmax=ell + 4)
        rows.append(SweepRow("two_triangles_path", f"l={ell}", report, ell + 2,
                             2 + math.ceil(ell / 2)))
    return rows


def question5_sweep(m: int, n_max: int, toric_qmax: int | None = None) -> dict:
    """Survey connected graphs with matching number exactly m on up to n_max
    vertices: maximum regularity among normal ones, and among non-normal ones
    that carry a principal-ideal certificate.

    Purely empirical and bounded; the summary never claims a general bound.
    Graphs are bucketed by their computed matching number. Non-normal graphs
    get toric analysis up to degree `toric_qmax`, by default dim + 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if toric_qmax is not None and toric_qmax < 2:
        raise ValueError("q_max must be >= 2")
    reports: list[AnalysisReport] = []
    for g in _connected_up_to(n_max):
        if matching_number(g) != m:
            continue
        qmax = toric_qmax if toric_qmax is not None else edge_polytope(g).dim + 2
        reports.append(analyze(g, run_toric=not is_normal(g), toric_qmax=qmax))
    non_normal = [r for r in reports if not r.normal]
    return {
        "m": m,
        "n_max": n_max,
        "scope": "empirical, bounded scope",
        "graphs_with_mat_m": len(reports),
        "normal_max_reg": max((r.reg for r in reports if r.normal), default=None),
        "non_normal_principal_max_reg": max(
            (r.reg for r in non_normal if r.reg is not None), default=None
        ),
        "toric_skipped_over_budget": sum(r.generator_profile is None for r in non_normal),
        "rows": reports,
    }
