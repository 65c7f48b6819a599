#!/usr/bin/env python3
"""The edge polytope: dimension, exact facets, and the two independent ways
of computing them.

The hull route converts the vertex list to inequalities with exact integer
arithmetic. The prediction route reads facets off the graph structure:
coordinate halfspaces at vertices whose removal leaves no bipartite component
(or keeps the graph connected, in the bipartite case), and independent-set
hyperplanes. Each facet is one functional h with h . x >= 0 on every
dilation qP, brought to one canonical form, so the outputs are directly
comparable.

Run:  python demos/02_edge_polytope_facets.py
"""

from edgering import (
    complete_graph,
    contains,
    cycle_graph,
    edge_polytope,
    predicted_facets,
    star_graph,
    two_triangles_path,
)

print("=" * 70)
print("Edge polytopes and their facets, two ways")
print("=" * 70)

for name, g in [
    ("K3", complete_graph(3)),
    ("C4", cycle_graph(4)),
    ("K4", complete_graph(4)),
    ("star(5)", star_graph(5)),
    ("two_triangles_path(2)", two_triangles_path(2)),
]:
    p = edge_polytope(g)
    hull = p.facets()
    pred = predicted_facets(g)
    print(f"\n{name}: ambient d={p.d}, dim P = {p.dim}, vertices = {len(p.vertices)}")
    print(f"  hull equations: {[f'{c}.x = {r}' for c, r in p.hull_equations]}")
    print(f"  facets (hull route): {len(hull)}   facets (graph route): {len(pred)}")
    same = {f.normal for f in hull} == {f.normal for f in pred}
    print(f"  identical halfspace sets: {same}")
    for f in pred[:4]:
        print(f"    {f.normal} . x >= 0    [{f.provenance}]")
    if len(pred) > 4:
        print(f"    ... {len(pred) - 4} more")

# membership of a dilation point is decided exactly
p = edge_polytope(complete_graph(3))
for q, pt in [(3, (2, 2, 2)), (2, (2, 1, 1)), (1, (2, 1, -1))]:
    print(f"\nK3, q={q}, point {pt}: {contains(p, q, pt)}")
