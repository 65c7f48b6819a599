#!/usr/bin/env python3
"""Lattice-point counting, the h*-vector, and the regularity of normal edge
rings.

For a normal edge ring the Hilbert function equals the number of lattice
points of the dilated edge polytope, the h*-vector collects the numerator of
the counting series, and the regularity equals both the h* degree and
(dim P + 1) minus the least dilation with an interior lattice point.

Run:  python demos/03_counting_and_regularity.py
"""

from edgering import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_polytope,
    ehrhart_profile,
    hilbert_function,
    interior_lattice_points,
    lattice_points,
    min_interior_q,
    star_graph,
)

print("=" * 70)
print("Counting lattice points and reading off regularity")
print("=" * 70)

for name, g in [
    ("K3", complete_graph(3)),
    ("C4", cycle_graph(4)),
    ("K4", complete_graph(4)),
    ("K33", complete_bipartite_graph(3, 3)),
    ("star(5)", star_graph(5)),
]:
    prof = ehrhart_profile(g)
    dim = edge_polytope(g).dim
    counts = tuple(len(lattice_points(g, q)) for q in range(dim + 3))
    interior = tuple(len(interior_lattice_points(g, q)) for q in range(dim + 3))
    print(f"\n{name}:")
    print(f"  counts |qP|, q=0..{dim + 2}:      {counts}")
    print(f"  interior counts:            {interior}")
    print(f"  first interior dilation:    {prof.min_interior_q}")
    print(f"  h* = {prof.h_star}    degree s = {prof.s}    Krull dim = {dim + 1}")
    print(f"  reg = s = (dim+1) - min_interior_q = {prof.s}")

# the ring-side count (monomials of the edge ring) matches the geometric one
g = cycle_graph(4)
print("\nC4 Hilbert function vs geometric count, q = 0..5:")
print("  ", [hilbert_function(g, q) for q in range(6)])
print("  ", [len(lattice_points(g, q)) for q in range(6)])
print("closed form (q+1)^2:", [(q + 1) ** 2 for q in range(6)])

print("\nstar(5): every point of qP pins the center coordinate to q")
print(sorted(lattice_points(star_graph(5), 2))[:6], "...")
print("min interior dilation of star(d) is d - 1:",
      [min_interior_q(star_graph(d)) for d in (4, 5, 6)])
