"""Print sha256 digests of the program's outputs, to show that a change
leaves them byte-identical: run it on both commits and compare the lines.

    PYTHONPATH=src python tests/output_digests.py

Every line is also compared with the pinned digest in `PINNED`; the script
names each line that differs on stderr and then exits 1.

Digests (wall-clock `seconds` fields are dropped everywhere):

* analyze: `json.dumps(report, sort_keys=True) + "\\n"` of `analyze(g).to_dict()`
  for every connected graph with 2 <= n <= 7 and every 25th with n = 8;
* verify-theorem: `verify-theorem --nmax 7` JSON, dumped with sorted keys,
  then a newline, then its stdout;
* q5: `q5 --m 2 --nmax 6` stdout followed by its CSV;
* q5 m=3 nmax=7: `q5 --m 3 --nmax 7` stdout followed by its CSV, which
  covers the non-normal graphs (the m = 2 survey has none);
* codes n<=7, codes n=8: `repr` of the canonical codes, as
  `[connected_graph_bits(n) for n in range(1, 8)]` and `connected_graph_bits(8)`;
* automorphisms n<=7: `repr` of the automorphism counts of
  `connected_graphs(n)`, n = 1..7;
* window: per graph, `repr` of `(g.edges, lattice counts, interior counts,
  list(h_star(g)), min_interior_q(g))` plus a newline, counts for
  q = 0..dim + 2, over the normal graphs with 2 <= n <= 7 and every 25th
  normal graph with n = 8 (1,427 graphs);
* facets: per graph, `repr` of `(g.edges, p.dim, sorted tight-vertex index
  tuples of p.facets())` plus a newline, over the graphs of analyze. Tight
  sets do not depend on how a facet is written.
* toric: per graph, `repr` of `(g.edges, minimal_generator_degrees(g, b).degrees)`
  plus a newline, then per q = 1..4 `repr` of `(g.edges, q, fibers(g, q))` plus
  a newline, over the six non-normal connected graphs with n = 7 at
  b = dim + 2 and `two_triangles_path(l)`, l = 1..6, at b = l + 4.
* families: the stdout (CSV) and stderr of `families --rmax 4 --lmax 6`, then
  `json.dumps(row.to_dict())` plus a newline per row of `run_families(4, 6)`,
  with the keys in their own order.
* interior: `json.dumps(report, sort_keys=True) + "\\n"` of `analyze(g).to_dict()`
  for leafy and leafless normal instances at the row budget: `path(9..15)`,
  `star(12)`, `cycle(11)`, `complete_bipartite(6,6)`,
  `attach_path(complete(8),1,4)` and `attach_path(complete_bipartite(4,4),1,6)`.
  All but `path(9)`, `path(10)` and `star(12)` are over it, so their
  regularity comes from the interior threshold alone.
* predicted: per graph, `repr((g.edges, predicted_facets(g)))` plus a newline,
  over every connected graph with 2 <= n <= 7, then `path(13)`, `cycle(11)`,
  `attach_path(complete(8),1,4)` and `two_triangles_path(4)`. It pins the
  graph-side facet route, provenance strings included.

The analyze, window, facets and predicted lines are read in one walk over
the graphs, so each graph's facts are built once for all four while the
per-graph caches hold them. Takes under a minute; pytest does not collect
this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from edgering.analysis import analyze, run_families
from edgering.cli import main
from edgering.ehrhart import h_star, interior_count, lattice_count, min_interior_q
from edgering.enumeration import automorphism_count, connected_graph_bits, connected_graphs
from edgering.graphs import make_family, two_triangles_path
from edgering.normality import is_normal
from edgering.polytope import edge_polytope, predicted_facets
from edgering.toric import fibers, minimal_generator_degrees

PINNED = {
    "analyze": "1b0b6fd0fbb7a4aad8d69660ad21f69443455be68f5335934fad13f7fe3fb2f6",
    "verify-theorem": "2db4c5564b2d2ef322a1fe75de129ba1be2f116e36b6bc436b2e52d89923389b",
    "q5": "d1ec2099d4fb4349d62839a276a192c014df3f0cea7cc6edca9eef2673e5bd54",
    "q5 m=3 nmax=7": "7ae4ca502a06696298611d3c4afde54b6e634f3227cc9573cc1895d9046d3270",
    "codes n<=7": "3ec2a2962b7056261e9ea9349d562723f01ff4e96bade06aaadf2e4b0b5ecadf",
    "codes n=8": "29a211dbd6e124bd6f9250fe1ac425fec4d129432db730bd8e0815ed76ec0511",
    "automorphisms n<=7": "edfb1a967ea607f396a2a5803a5e11f20014667111de0386249e1cd5e18cfd42",
    "window": "6c0143a68581c36a876e8522336b8a2a1b792051dda7a11e4756aa5401c81506",
    "facets": "de5827d093ed60f3cc5cd5ddf60c91566632620d63ca4bfc11374088f98fcf38",
    "toric": "23ef35ebd96e99df6117bbb22478255d687f17fdabe513eae4ac609fe1f62b41",
    "families": "bfea9a53a44a8fb26daa3f538b22232fc3e06308008eddc0a936c9d87750ed8d",
    "interior": "597eca3e9629a506df104418c89282f2eabccd8de8bfa122e809eeec768e1ca3",
    "predicted": "f7796923d85f697b9c83608cb4ef309dc3c6cb4857a0a12ab1c1f67b43aa60b1",
}
INTERIOR_SPECS = [f"path({n})" for n in range(9, 16)] + [
    "star(12)", "cycle(11)", "complete_bipartite(6,6)", "attach_path(complete(8),1,4)",
    "attach_path(complete_bipartite(4,4),1,6)",
]
PREDICTED_SPECS = ["path(13)", "cycle(11)", "attach_path(complete(8),1,4)", "two_triangles_path(4)"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _families_digest() -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        stdout = _run(["families", "--rmax", "4", "--lmax", "6"])
    rows = "".join(json.dumps(row.to_dict()) + "\n" for row in run_families(4, 6))
    return _sha(stdout + err.getvalue() + rows)


def _analyze_line(g) -> str:
    report = analyze(g).to_dict()
    report.pop("seconds")
    return json.dumps(report, sort_keys=True) + "\n"


def _window_line(g) -> str:
    qs = range(edge_polytope(g).dim + 3)
    return repr((
        g.edges,
        [lattice_count(g, q) for q in qs],
        [interior_count(g, q) for q in qs],
        list(h_star(g)),
        min_interior_q(g),
    )) + "\n"


def _facets_line(g) -> str:
    p = edge_polytope(g)
    tight = sorted(p.tight_vertices(f) for f in p.facets())
    return repr((g.edges, p.dim, tight)) + "\n"


def _predicted_line(g) -> str:
    return repr((g.edges, predicted_facets(g))) + "\n"


GRAPH_LINES = {
    "analyze": _analyze_line,
    "window": _window_line,
    "facets": _facets_line,
    "predicted": _predicted_line,
}


def _graph_digests(names=tuple(GRAPH_LINES)) -> dict[str, str]:
    """The named digests of GRAPH_LINES in one walk over the connected graphs
    with 2 <= n <= 8: each graph is read once for every line it feeds, while
    the per-graph caches still hold it, and each digest takes its graphs in
    its own order. analyze and facets read every graph with n <= 7 and every
    25th with n = 8, window the normal ones among every graph with n <= 7
    and every 25th normal one with n = 8, and predicted every graph with
    n <= 7 and then PREDICTED_SPECS."""
    hashers = {name: hashlib.sha256() for name in names}

    def feed(name, g):
        if name in hashers:
            hashers[name].update(GRAPH_LINES[name](g).encode())

    for n in range(2, 9):
        normal = 0
        for i, g in enumerate(connected_graphs(n)):
            if n < 8 or i % 25 == 0:
                feed("analyze", g)
                feed("facets", g)
            if "window" in hashers and is_normal(g):
                if n < 8 or normal % 25 == 0:
                    feed("window", g)
                normal += 1
            if n < 8:
                feed("predicted", g)
    for spec in PREDICTED_SPECS:
        feed("predicted", make_family(spec))
    return {name: h.hexdigest() for name, h in hashers.items()}


def _analyze_digest(graphs) -> str:
    return _sha("".join(map(_analyze_line, graphs)))


def _verify_digest(tmp: str) -> str:
    path = os.path.join(tmp, "verify.json")
    stdout = _run(["verify-theorem", "--nmax", "7", "--json", path])
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("seconds")
    return _sha(json.dumps(payload, sort_keys=True) + "\n" + stdout)


def _q5_digest(tmp: str, m: int, n_max: int) -> str:
    path = os.path.join(tmp, f"q5_{m}_{n_max}.csv")
    stdout = _run(["q5", "--m", str(m), "--nmax", str(n_max), "--csv", path])
    with open(path, encoding="utf-8") as fh:
        return _sha(stdout + fh.read())


def _toric_digest() -> str:
    jobs = [(g, edge_polytope(g).dim + 2) for g in connected_graphs(7) if not is_normal(g)]
    jobs += [(two_triangles_path(ell), ell + 4) for ell in range(1, 7)]
    lines = []
    for g, bound in jobs:
        lines.append(repr((g.edges, minimal_generator_degrees(g, bound).degrees)) + "\n")
        lines.extend(repr((g.edges, q, fibers(g, q))) + "\n" for q in range(1, 5))
    return _sha("".join(lines))


def _digests():
    """(name, digest) for every output, in the order they are printed."""
    walked = _graph_digests()
    yield "analyze", walked["analyze"]
    with tempfile.TemporaryDirectory() as tmp:
        yield "verify-theorem", _verify_digest(tmp)
        yield "q5", _q5_digest(tmp, 2, 6)
        yield "q5 m=3 nmax=7", _q5_digest(tmp, 3, 7)
    yield "codes n<=7", _sha(repr([connected_graph_bits(n) for n in range(1, 8)]))
    yield "codes n=8", _sha(repr(connected_graph_bits(8)))
    counts = [[automorphism_count(g) for g in connected_graphs(n)] for n in range(1, 8)]
    yield "automorphisms n<=7", _sha(repr(counts))
    yield "window", walked["window"]
    yield "facets", walked["facets"]
    yield "toric", _toric_digest()
    yield "families", _families_digest()
    yield "interior", _analyze_digest(make_family(spec) for spec in INTERIOR_SPECS)
    yield "predicted", walked["predicted"]


def main_digests() -> int:
    differ = []
    for name, digest in _digests():
        print(name, digest, flush=True)
        if digest != PINNED[name]:
            differ.append(name)
    for name in differ:
        print(f"differs from the pinned digest: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main_digests())
