"""The three benchmark workloads and the checks on their outputs.

Each workload runs once per call of `run()`, inside a fresh interpreter
started by worker.py, and goes through edgering's public entry points only.
Every `analyze()` call is timed by rebinding `edgering.analysis.analyze`, so
calls made inside the library (the verifier's loop) are timed as well; time
spent in the speed probe (speedprobe.py) during a call is left out. Entry
points are called through their modules, so the traced run's rebinding
reaches the benchmark's own calls too.

A workload returns an `Outcome`: how many graphs or instances it attempted,
which of them failed a check or raised, and the per-call analyze latencies.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from edgering import analysis, cli, enumeration, graphs, matching, normality
from edgering.analysis import AnalysisReport
from edgering.graphs import Graph, is_bipartite

import speedprobe
import tracing

# The six connected 7-vertex graphs that are not normal (two triangles at
# distance two); `analyze --toric` gives the toric module a workload on them.
NON_NORMAL_7 = (
    ((1, 2), (1, 7), (2, 7), (3, 4), (3, 6), (4, 6), (5, 6), (5, 7)),
    ((1, 2), (1, 6), (1, 7), (2, 6), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 7), (6, 7)),
    ((1, 3), (1, 6), (2, 4), (2, 5), (3, 6), (3, 7), (4, 5), (4, 7), (5, 7), (6, 7)),
    ((1, 2), (1, 4), (2, 4), (3, 5), (3, 6), (4, 7), (5, 6), (5, 7), (6, 7)),
    ((1, 2), (1, 3), (2, 3), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)),
    ((1, 2), (1, 3), (2, 3), (2, 7), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)),
)

# Sizes per scale. "smoke" is a reduced copy for the harness's own test; the
# expected census counts are the known numbers of connected graphs.
SCALES = {
    "full": {
        "atlas_nmax": 7, "atlas_expect": (995, 989),
        "survey_n": 8, "survey_expect": (11117, 10935), "survey_sample": 100,
        "rmax": 4, "lmax": 6, "toric_graphs": NON_NORMAL_7,
        # normal instances whose h* window is over the row budget; path(17)
        # and cycle(15) are left out because the interior search runs out of
        # memory on them (ROADMAP item 4)
        "interior": ("path(13)", "path(14)", "path(15)", "cycle(11)",
                     "complete_bipartite(6,6)", "attach_path(complete(8),1,4)"),
    },
    "smoke": {
        "atlas_nmax": 5, "atlas_expect": (30, 30),
        "survey_n": 6, "survey_expect": (112, 112), "survey_sample": 10,
        "rmax": 2, "lmax": 2, "toric_graphs": NON_NORMAL_7[:1],
        "interior": ("path(9)", "cycle(7)"),
    },
}

# the q5 bound dim + 2 for the non-normal 7-vertex graphs: none is bipartite,
# so dim = 6
TORIC_QMAX_7 = 8
DEFAULT_SEED = 0
OUT_DIR = Path(__file__).resolve().parent / "out"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Outcome:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed_ids: set = field(default_factory=set)
    latencies_s: list[float] = field(default_factory=list)

    def fail(self, item, message: str) -> None:
        self.failed_ids.add(item)
        if len(self.problems) < 20:
            self.problems.append(f"{item}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failed_ids)


def _timed_analyze(outcome: Outcome, reports: list):
    """Rebind analysis.analyze to a wrapper that records latency and report."""
    inner = analysis.analyze

    def timed(*args, **kwargs):
        probe0 = speedprobe.spent_s()
        t0 = time.perf_counter()
        report = inner(*args, **kwargs)
        outcome.latencies_s.append(time.perf_counter() - t0 - (speedprobe.spent_s() - probe0))
        reports.append(report)
        return report

    tracing.rebind(inner, timed)


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(1, g.d + 1), g.d)
    return Graph.of(g.d, ((perm[i - 1], perm[j - 1]) for i, j in g.edges))


def report_problems(r: AnalysisReport) -> list[str]:
    """Identities every report must satisfy, whatever the graph."""
    out = []
    if not (r.mu == r.d - r.mat == r.cover_size):
        out.append(f"mu={r.mu}, d-mat={r.d - r.mat}, cover={r.cover_size}")
    if r.normal:
        if r.reg is None or r.reg != r.dim + 1 - r.min_interior_q:
            out.append(f"reg={r.reg} != dim+1-q_min={r.dim + 1 - (r.min_interior_q or 0)}")
        if r.h_star is not None and len(r.h_star) - 1 != r.reg:
            out.append(f"deg h*={len(r.h_star) - 1} != reg={r.reg}")
        if r.verdict != "holds":
            out.append(f"verdict {r.verdict}")
    return out


def _load_reference(name: str):
    with open(REFERENCE_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def atlas(seed: int, sizes: dict) -> Outcome:
    """`edgering verify-theorem` over every connected graph up to atlas_nmax.

    The input is exhaustive, so the seed does not change it.
    """
    del seed
    out = Outcome()
    reports: list[AnalysisReport] = []
    _timed_analyze(out, reports)
    nmax = sizes["atlas_nmax"]
    checked, normal = sizes["atlas_expect"]
    out.attempted = checked
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"atlas{nmax}.json"
    path.unlink(missing_ok=True)
    try:
        rc = cli.main(["verify-theorem", "--nmax", str(nmax), "--json", str(path)])
    except Exception as exc:  # a raise fails every graph, it does not crash the harness
        rc = f"{type(exc).__name__}: {exc}"
    got = None
    if path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
        got = (payload["connected_graphs_checked"], payload["normal_graphs_verified"],
               len(payload["violations"]))
    if rc != 0 or got != (checked, normal, 0):
        for k in range(checked):
            out.fail(k, f"exit {rc}, counts {got}, expected {(checked, normal, 0)}")
    if len(reports) != normal:
        out.fail("analyze", f"{len(reports)} analyze calls, expected {normal}")
    for r in reports:
        for msg in report_problems(r):
            out.fail(r.edges, msg)
    return out


def census(n: int) -> list[tuple]:
    """(graph, mat, bipartite, normal) for every connected graph on n vertices."""
    return [(g, matching.matching_number(g), is_bipartite(g) is not None, normality.is_normal(g))
            for g in enumeration.connected_graphs(n)]


def sample(normal: list[tuple], seed: int, size: int) -> list[tuple]:
    """A seeded sample of census rows, each with a seeded relabelling.

    The rows are ordered by (bipartite, edge count) and one is drawn from
    each of `size` equal strata, so every seed gets the same mix of the two
    properties that set most of an analysis's cost.
    """
    rng = random.Random(seed)
    ordered = sorted(normal, key=lambda c: (c[2], c[0].m))
    picks = []
    for k in range(size):
        row = ordered[rng.randrange(k * len(ordered) // size, (k + 1) * len(ordered) // size)]
        picks.append((row, relabel(row[0], rng)))
    return picks


def survey(seed: int, sizes: dict) -> Outcome:
    """Enumerate and classify every connected graph on survey_n vertices, then
    analyze a seeded sample of relabelled normal graphs."""
    out = Outcome()
    reports: list[AnalysisReport] = []
    _timed_analyze(out, reports)
    n = sizes["survey_n"]
    sample_size = sizes["survey_sample"]
    out.attempted = sample_size + 1
    classes = census(n)
    normal = [c for c in classes if c[3]]
    if (len(classes), len(normal)) != sizes["survey_expect"]:
        out.fail("census", f"{len(classes)} classes, {len(normal)} normal; "
                           f"expected {sizes['survey_expect']}")
    for k, ((_, mat, bip, _), h) in enumerate(sample(normal, seed, sample_size)):
        try:
            r = analysis.analyze(h)
        except Exception as exc:  # a raise fails this graph, it does not crash the harness
            out.fail(k, f"{type(exc).__name__}: {exc}")
            continue
        problems = report_problems(r)
        if (r.mat, r.bipartite, r.normal) != (mat, bip, True):
            problems.append(f"mat/bipartite/normal {(r.mat, r.bipartite, r.normal)} "
                            f"!= census {(mat, bip, True)}")
        if r.h_star is None:
            problems.append("h* window skipped")
        for msg in problems:
            out.fail(k, msg)
    if seed == DEFAULT_SEED and sizes is SCALES["full"]:
        expected = _load_reference("survey8_seed0.json")
        for k, r in enumerate(reports):
            if k >= len(expected) or comparable(r) != expected[k]:
                out.fail(k, "report differs from the recorded reference")
    return out


def comparable(r: AnalysisReport) -> dict:
    d = r.to_dict()
    del d["seconds"]
    return d


def _paper_rows(sizes: dict):
    """(name, graph, expected reg, expected mat, toric bound) of the paper's
    constructions, as `edgering families --rmax R --lmax L` sweeps them."""
    for r in range(2, sizes["rmax"] + 1):
        for m in range(r, r + 3):
            tail = 2 * (m - r)
            kn = graphs.complete_graph(2 * r)
            kb = graphs.complete_bipartite_graph(r + 1, r + 1)
            yield (f"K{2 * r}+P{tail}", graphs.attach_path(kn, 1, tail) if tail else kn,
                   r, m, None)
            yield (f"K{r + 1},{r + 1}+P{tail}", graphs.attach_path(kb, 1, tail) if tail else kb,
                   r, m + 1, None)
    for ell in range(1, sizes["lmax"] + 1):
        yield (f"two_triangles_path({ell})", graphs.two_triangles_path(ell),
               ell + 2, 2 + math.ceil(ell / 2), ell + 4)


def toric_key(edges) -> str:
    return " ".join(f"{i}-{j}" for i, j in edges)


def families(seed: int, sizes: dict) -> Outcome:
    """The paper's families, toric analysis of the non-normal 7-vertex graphs,
    and normal instances whose h* window is over the row budget. The seed
    relabels vertices."""
    out = Outcome()
    reports: list[AnalysisReport] = []
    _timed_analyze(out, reports)
    ref = _load_reference("families.json")
    rng = random.Random(seed)
    jobs = []
    for name, g, reg, mat, qmax in _paper_rows(sizes):
        jobs.append((name, relabel(g, rng), qmax, {"reg": reg, "mat": mat}))
    for edges in sizes["toric_graphs"]:
        g = Graph(7, edges)
        key = toric_key(edges)
        jobs.append((key, relabel(g, rng), TORIC_QMAX_7, ref["toric"][key]))
    for spec in sizes["interior"]:
        jobs.append((spec, relabel(graphs.make_family(spec), rng), None, ref["interior"][spec]))
    out.attempted = len(jobs)
    for name, g, qmax, expected in jobs:
        try:
            r = analysis.analyze(g, run_toric=qmax is not None, toric_qmax=qmax)
        except Exception as exc:
            out.fail(name, f"{type(exc).__name__}: {exc}")
            continue
        got = family_fields(r)
        problems = report_problems(r) + [
            f"{k}={got[k]}, expected {v}" for k, v in expected.items() if got[k] != v
        ]
        for msg in problems:
            out.fail(name, msg)
    return out


def family_fields(r: AnalysisReport) -> dict:
    """The relabelling-invariant fields the families reference records."""
    return {
        "reg": r.reg,
        "mat": r.mat,
        "normal": r.normal,
        "min_interior_q": r.min_interior_q,
        "h_star_skipped": r.normal and r.h_star is None,
        "toric_degrees": list(r.generator_profile.degrees) if r.generator_profile else None,
    }


WORKLOADS = {"atlas7": atlas, "survey8": survey, "families": families}


def run(name: str, seed: int, scale: str) -> Outcome:
    return WORKLOADS[name](seed, SCALES[scale])
