#!/usr/bin/env python3
"""Exhaustive verification of the regularity bounds and the family sweeps.

For every connected graph with a normal edge ring: reg <= mat when the graph
is non-bipartite and reg <= mat - 1 when bipartite. The verifier enumerates
all connected graphs up to isomorphism and checks each one. The family sweep
then realizes every prescribed (reg, mat) pair with path-extended complete
and complete bipartite graphs.

Run:  python demos/05_bounds_exhaustive_and_families.py
"""

import time

from edgering import run_families, verify_theorem

print("=" * 70)
print("Exhaustive bound verification (all connected graphs, up to iso)")
print("=" * 70)

for n_max in (4, 5, 6):
    t0 = time.time()
    result = verify_theorem(n_max)
    print(
        f"  d <= {n_max}: {result.checked:4d} graphs checked ({result.normal} normal), "
        f"{len(result.violations)} violations  ({time.time() - t0:.1f}s)"
    )

print("\n" + "=" * 70)
print("Family sweep: reg = r with mat = m (non-bipartite) or m + 1 (bipartite)")
print("=" * 70)
rows = run_families(r_max=3, l_max=3)
print(f"{'family':32s} {'params':12s} {'mat':>4s} {'reg':>4s} {'expected':>9s} {'ok':>3s}")
for row in rows:
    exp = f"({row.expected_mat},{row.expected_reg})"
    ok = "yes" if row.match else "NO"
    print(f"{row.family:32s} {row.params:12s} {row.mat:4d} {row.reg!s:>4s} {exp:>9s} {ok:>3s}")
