#!/usr/bin/env python3
"""The non-normal two-triangle family and the bounded survey by matching
number.

Joining two triangles by a path of length l gives a defining ideal generated
by a single binomial of degree l + 3, so the regularity is l + 2 while the
matching number is only 2 + ceil(l / 2): the gap floor(l / 2) grows without
bound, which is why the normal-case inequalities need normality.

Run:  python demos/06_nonnormal_and_survey.py
"""

import math

from edgering import (
    fibers,
    matching_number,
    minimal_generator_degrees,
    question5_sweep,
    two_triangles_path,
)

print("=" * 70)
print("Two triangles joined by a path: regularity outruns the matching number")
print("=" * 70)
print(f"{'l':>3s} {'d':>3s} {'gen degree':>11s} {'reg cert':>9s} {'mat':>4s} {'reg - mat':>10s}")
for ell in (1, 2, 3, 4):
    g = two_triangles_path(ell)
    prof = minimal_generator_degrees(g, ell + 4)
    reg = prof.principal_reg
    mat = matching_number(g)
    assert prof.degrees == (ell + 3,)
    print(f"{ell:3d} {g.d:3d} {prof.degrees[0]:11d} {reg:9d} {mat:4d} {reg - mat:10d}")
print("(certificates are exact up to the stated degree bound l + 4)")

g = two_triangles_path(1)
fib = [f for f in fibers(g, 4) if len(f) > 1]
print(f"\nthe degree-4 binomial of the bridged instance lives in the fiber "
      f"{fib[0].multidegree}:")
for mono in fib[0].monomials:
    print("   ", mono)

print("\n" + "=" * 70)
print("Survey by matching number (empirical, bounded scope)")
print("=" * 70)
for m in (1, 2, 3):
    summary = question5_sweep(m, 6)
    print(
        f"  mat = {m}, d <= 6: {summary['graphs_with_mat_m']:4d} graphs, "
        f"max reg (normal) = {summary['normal_max_reg']}, "
        f"max reg (non-normal, principal certificate) = "
        f"{summary['non_normal_principal_max_reg']}"
    )

# every connected graph on up to 6 vertices is normal (two vertex-disjoint
# odd cycles need 6 vertices, and connecting disjoint triangles on exactly 6
# bridges them); d = 7 brings the first non-normal graphs
print("\n  widening to d <= 7 for mat = 3 (takes a few seconds):")
summary = question5_sweep(3, 7)
print(
    f"  mat = 3, d <= 7: {summary['graphs_with_mat_m']:4d} graphs, "
    f"max reg (normal) = {summary['normal_max_reg']}, "
    f"max reg (non-normal, principal certificate) = "
    f"{summary['non_normal_principal_max_reg']}"
)
print("  (observations at this scope only; no general bound is claimed)")
