"""Independent brute-force oracles used by the test suite.

These deliberately avoid the algorithms they check: matching and covering by
exhaustive search, membership by Caratheodory-style subset solving, facets by
candidate-hyperplane enumeration, dilation windows by scanning the whole box,
h* from the full window's counts without reciprocity, the interior
threshold without the pendant-vertex reduction, composition tables by the
recursion that keeps every cap as given, sumsets and fibers by
grouping edge multisets in a dict, generator counts by exact linear algebra
and fiber by fiber with a search of each gcd graph, labeled connected-graph
counts by the classical recurrence, stable colors one vertex at a time on
bit masks, automorphisms over all n! permutations, and connected graphs by
canonicalising every child of every parent one at a time, components and
2-colorings by breadth-first search over neighbour sets, the odd cycle
condition pair by pair over vertex sets, and the double description as
first written, edge by edge from a basis cone of one flood fill per basis
edge. One standalone rational kernel, `frac_rref`, serves every exact
oracle: ranks, null-space functionals and Caratheodory solves all read its
reduced rows and pivot columns, so the rational oracles share nothing with
the package implementation.

A few helpers only read the package for the tests: matching and cover
predicates, the tight vertices of a facet, and `connected_components` and
`automorphism_count`, the package's components and automorphism groups in
the form their oracles check.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np

from edgering.ehrhart import _candidate_blocks, _facet_matrix, _facet_min
from edgering.enumeration import _automorphisms, canonical_bits, edge_slots, graph_to_bits
from edgering.graphs import Graph, coloured_components, mask_vertices, neighbour_masks, vertex_mask
from edgering.polytope import (
    EdgePolytope,
    FacetInequality,
    canonical_inequality,
    edge_polytope,
    primitive,
)


# ---------------------------------------------------------------------------
# Matchings and covers
# ---------------------------------------------------------------------------

def is_matching(g: Graph, edges) -> bool:
    """Whether `edges` are edges of g, pairwise vertex-disjoint."""
    used: set[int] = set()
    for i, j in edges:
        if (min(i, j), max(i, j)) not in g.edges:
            return False
        if i in used or j in used:
            return False
        used.update((i, j))
    return True


def is_edge_cover(g: Graph, edges) -> bool:
    """Whether `edges` are edges of g that touch every vertex."""
    covered: set[int] = set()
    for i, j in edges:
        if (min(i, j), max(i, j)) not in g.edges:
            return False
        covered.update((i, j))
    return covered == set(g.vertices())


def brute_matching_number(g: Graph) -> int:
    """Exhaustive maximum matching size via subset recursion over vertices."""
    masks = [0] * (g.d + 1)
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i

    @lru_cache(maxsize=None)
    def best(avail: int) -> int:
        if avail == 0:
            return 0
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        out = best(rest)
        nbrs = masks[v] & avail
        while nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            out = max(out, 1 + best(rest & ~(1 << u)))
        return out

    full = sum(1 << v for v in g.vertices())
    result = best(full)
    best.cache_clear()
    return result


def brute_matching_number_subsets(g: Graph) -> int:
    """Literal enumeration over all edge subsets; only for tiny graphs."""
    assert g.m <= 16
    for size in range(g.d // 2, 0, -1):
        for sub in combinations(g.edges, size):
            used: set[int] = set()
            ok = True
            for i, j in sub:
                if i in used or j in used:
                    ok = False
                    break
                used.update((i, j))
            if ok:
                return size
    return 0


def brute_edge_cover_number(g: Graph) -> int | None:
    """Exhaustive minimum edge cover size; None if no cover exists."""
    assert g.m <= 16
    want = set(g.vertices())
    for size in range(1, g.m + 1):
        for sub in combinations(g.edges, size):
            covered: set[int] = set()
            for i, j in sub:
                covered.update((i, j))
            if covered == want:
                return size
    return None


# ---------------------------------------------------------------------------
# Neighbour sets: components, 2-colorings, cycles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def adjacency(g: Graph) -> tuple[frozenset[int], ...]:
    """Neighbor sets indexed by vertex (index 0 unused)."""
    adj: list[set[int]] = [set() for _ in range(g.d + 1)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return tuple(frozenset(s) for s in adj)


def connected_components(g: Graph) -> list[frozenset[int]]:
    """The package's components of g, `coloured_components` over all of G,
    as vertex sets ordered by least vertex: the reading that
    `bfs_components` checks."""
    return [frozenset(mask_vertices(comp))
            for comp, _ in coloured_components(neighbour_masks(g), vertex_mask(g))]


def bfs_components(g: Graph) -> list[frozenset[int]]:
    """Components by breadth-first search, ordered by minimum vertex."""
    adj = adjacency(g)
    seen: set[int] = set()
    parts: list[frozenset[int]] = []
    for root in g.vertices():
        if root in seen:
            continue
        comp = {root}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    queue.append(u)
        seen |= comp
        parts.append(frozenset(comp))
    return parts


def bfs_bipartition(g: Graph) -> int | None:
    """2-coloring by breadth-first search: the vertex mask of the left side,
    which holds each component's minimum vertex; None on an odd cycle."""
    adj = adjacency(g)
    color: dict[int, int] = {}
    for root in g.vertices():
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return sum(1 << v for v, c in color.items() if c == 0)


def pairwise_odd_cycle_condition(g: Graph, odd_cycles) -> bool:
    """Every two vertex-disjoint cycles of `odd_cycles` are joined by an
    edge, checked pair by pair over vertex sets."""
    adj = adjacency(g)
    for a, b in combinations(odd_cycles, 2):
        ca, cb = set(a), set(b)
        if not ca & cb and not any(u in adj[v] for v in ca for u in cb):
            return False
    return True


def all_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple cycle, one representative per rotation/reflection."""
    adj = adjacency(g)
    out: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        s, last = path[0], path[-1]
        for x in sorted(adj[last]):
            if x == s and len(path) >= 3:
                if path[1] < path[-1]:
                    out.append(tuple(path))
                continue
            if x <= s or x in path:
                continue
            path.append(x)
            extend(path)
            path.pop()

    for s in g.vertices():
        extend([s])
    return out


def has_odd_cycle(g: Graph) -> bool:
    return any(len(c) % 2 == 1 for c in all_cycles(g))


# ---------------------------------------------------------------------------
# Exact rational elimination (standalone)
# ---------------------------------------------------------------------------

def frac_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """(reduced rows, pivot columns) of a rational matrix, by Gauss-Jordan
    elimination left to right: each pivot is 1 and the only nonzero entry of
    its column, rows past the last pivot are zero, and a column is a pivot
    exactly when it is not in the span of the columns before it."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def frac_rank(rows) -> int:
    return len(frac_rref(rows)[1])


# ---------------------------------------------------------------------------
# Polytope membership and facets by brute force
# ---------------------------------------------------------------------------

def caratheodory_member(vertices, q: int, point) -> bool:
    """Is point / q a convex combination of the vertices?

    One RREF of the system [(v_k, 1) columns | (point / q, 1)] per vertex
    subset of size at most dim + 1: the subset holds point / q when its
    columns are exactly the pivots, so the solution is unique, and it is >= 0.
    """
    d = len(vertices[0])
    target = [Fraction(x, q) for x in point] + [Fraction(1)]
    for size in range(1, min(len(vertices), d + 1) + 1):
        for sub in combinations(vertices, size):
            cols = [list(v) + [1] for v in sub]
            red, pivots = frac_rref([[c[i] for c in cols] + [target[i]] for i in range(d + 1)])
            if pivots == list(range(size)) and all(row[size] >= 0 for row in red[:size]):
                return True
    return False


def _functional_through(pts, vertices):
    """An affine functional vanishing on pts and not on the hull of vertices,
    read off the null space of the rows (p, 1)."""
    d = len(vertices[0])
    red, pivots = frac_rref([list(p) + [1] for p in pts])
    for free_col in (c for c in range(d + 1) if c not in pivots):
        vec = [Fraction(0)] * (d + 1)
        vec[free_col] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][free_col]
        vals = [sum(vec[k] * v[k] for k in range(d)) + vec[d] for v in vertices]
        if any(x != 0 for x in vals):
            return vec, vals
    return None


def tight_vertices(p: EdgePolytope, facet: FacetInequality) -> tuple[int, ...]:
    """Indices into p.vertices where the facet functional vanishes."""
    return tuple(k for k, v in enumerate(p.vertices)
                 if sum(a * x for a, x in zip(facet.normal, v)) == 0)


def bruteforce_facets(vertices, dim: int) -> set[frozenset[int]]:
    """Facets as tight vertex index sets, by scanning hyperplanes spanned by
    dim-subsets of vertices. Exact but exponential; tiny instances only."""
    n = len(vertices)
    facets: set[frozenset[int]] = set()
    for sub in combinations(range(n), dim):
        pts = [vertices[i] for i in sub]
        base = pts[0]
        diffs = [[p[k] - base[k] for k in range(len(base))] for p in pts[1:]]
        if frac_rank(diffs) != dim - 1:
            continue
        hit = _functional_through(pts, vertices)
        if hit is None:
            continue
        _, vals = hit
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            tight = frozenset(i for i, v in enumerate(vals) if v == 0)
            pts_t = [vertices[i] for i in tight]
            base_t = pts_t[0]
            diffs_t = [[p[k] - base_t[k] for k in range(len(base_t))] for p in pts_t[1:]]
            if frac_rank(diffs_t) == dim - 1:
                facets.add(tight)
    return facets


# ---------------------------------------------------------------------------
# The initial DD cone and the DD, as first written
# ---------------------------------------------------------------------------

def flood_fill_basis_cone(g: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
    """(basis, rays) of an initial DD cone, one flood fill of F - k per
    basis edge k. The basis is the first one in edge order: a union-find
    with parity keeps every edge that leaves each component a tree or a
    tree plus one odd cycle (the even-cycle matroid of G), and F is the
    forest it forms. The ray of k = {i, j} alternates +-1 on the tree of
    F - k that holds i (else j), +1 at that endpoint and 0 elsewhere: 0 on
    every other basis edge and positive on k. No certificate."""
    parent, flip, cyclic = list(range(g.d + 1)), [0] * (g.d + 1), [False] * (g.d + 1)

    def find(v: int) -> tuple[int, int]:
        side = 0
        while parent[v] != v:
            side, v = side ^ flip[v], parent[v]
        return v, side

    basis, nb = [], [0] * (g.d + 1)
    for e, (i, j) in enumerate(g.edges):
        (a, s), (b, t) = find(i), find(j)
        if a == b and (cyclic[a] or s != t) or a != b and cyclic[a] and cyclic[b]:
            continue
        if a != b:
            parent[b], flip[b] = a, s ^ t ^ 1
        cyclic[a] = a == b or cyclic[a] or cyclic[b]
        basis.append(e)
        nb[i] |= 1 << j
        nb[j] |= 1 << i

    rays = []
    for i, j in (g.edges[e] for e in basis):
        nb[i] ^= 1 << j
        nb[j] ^= 1 << i
        trees = {end: (part, left) for part, left in coloured_components(nb, vertex_mask(g))
                 for end in (i, j) if part >> end & 1 and left is not None}
        end = i if i in trees else j
        part, left = trees.get(end, (0, 0))
        plus = left if left >> end & 1 else part & ~left
        rays.append(tuple(1 if plus >> v & 1 else -(part >> v & 1) for v in g.vertices()))
        nb[i] ^= 1 << j
        nb[j] ^= 1 << i
    return basis, rays


def reference_hull_facets(g: Graph) -> tuple[FacetInequality, ...]:
    """The DD facets of P(G) from the flood-fill cone, basis edges first,
    then edge by edge with the combinatorial adjacency test:
    one comprehension per ray class, the adjacency scan by index, and every
    combination weighted as it comes, then canonicalised and sorted."""
    p = edge_polytope(g)
    basis, rays = flood_fill_basis_cone(g)
    if p.dim < 1:
        return ()
    order = basis + [e for e in range(g.m) if e not in basis]
    n = len(rays)
    masks = [((1 << n) - 1) ^ (1 << k) for k in range(n)]
    edges = [g.edges[e] for e in order]
    for step in range(n, len(order)):
        i, j = edges[step]
        vals = [r[i - 1] + r[j - 1] for r in rays]
        bit = 1 << step
        plus = [k for k, v in enumerate(vals) if v > 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_masks = [m | bit if v == 0 else m for m, v in zip(masks, vals) if v >= 0]
        for kp in plus:
            for km in minus:
                common = masks[kp] & masks[km]
                if common.bit_count() < n - 2:
                    continue
                if any(common & om == common and other not in (kp, km)
                       for other, om in enumerate(masks)):
                    continue
                lam, mu = vals[kp], -vals[km]
                new_rays.append(primitive(mu * a + lam * b for a, b in zip(rays[kp], rays[km])))
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return tuple(sorted((canonical_inequality(p, r, "hull") for r in rays),
                        key=lambda f: f.normal))


def brute_window(g: Graph, q: int) -> tuple[set[tuple[int, ...]], set[tuple[int, ...]]]:
    """(lattice points, relative-interior points) of qP, q >= 1.

    Scans every vector of the box [0, q]^d, keeps those on the scaled affine
    hull and tests each facet functional h.x >= 0 of the edge polytope, in
    exact integers (h.x > 0 for the interior); no numpy.
    """
    p = edge_polytope(g)
    points: set[tuple[int, ...]] = set()
    interior: set[tuple[int, ...]] = set()
    for x in product(range(q + 1), repeat=g.d):
        if any(sum(c * v for c, v in zip(coeffs, x)) != q * rhs
               for coeffs, rhs in p.hull_equations):
            continue
        slack = [sum(a * v for a, v in zip(f.normal, x)) for f in p.facets()]
        if all(s >= 0 for s in slack):
            points.add(x)
            if all(s > 0 for s in slack):
                interior.add(x)
    return points, interior


def unreduced_min_interior_q(g: Graph) -> int | None:
    """The interior threshold scanned on G itself, with no pendant vertex
    stripped: the all-positive slice of every dilation q = ceil(d/2)..dim + 1
    of P(G) against G's own facet matrix; None when no dilation has an
    interior point. It shares the candidate enumerator and the facet kernel
    with the package (`brute_window` checks those), so it checks only the
    pyramid reduction."""
    h = _facet_matrix(g)
    for q in range((g.d + 1) // 2, edge_polytope(g).dim + 2):
        if any(np.any(_facet_min(h, block) > 0) for block in _candidate_blocks(g, q, 1)):
            return q
    return None


def hstar_from_counts(counts: list[int], dim: int) -> tuple[int, ...]:
    """h* read straight off the full window: h*_i = sum_j (-1)^j C(dim+1, j)
    counts[i - j] for i = 0..dim, trailing zeros dropped. Needs the counts at
    q = 0..dim; no reciprocity."""
    h = []
    for i in range(dim + 1):
        total = 0
        for j in range(i + 1):
            total += (-1) ** j * math.comb(dim + 1, j) * counts[i - j]
        h.append(total)
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return tuple(h)


def uncapped_compositions(total: int, parts: int, cap: int) -> np.ndarray:
    """All integer vectors of length `parts` with entries in [0, cap] summing
    to `total`, as an int16 array: the recursion on the first coordinate with
    the cap passed down as given, never lowered to the remaining total, and
    no cache."""
    if parts <= 1:
        fits = total == 0 if parts == 0 else 0 <= total <= cap
        return np.full((int(fits), parts), total, dtype=np.int16)
    blocks = [np.zeros((0, parts), dtype=np.int16)]
    for v in range(max(0, total - cap * (parts - 1)), min(cap, total) + 1):
        tail = uncapped_compositions(total - v, parts - 1, cap)
        blocks.append(np.column_stack([np.full(len(tail), v, dtype=np.int16), tail]))
    return np.concatenate(blocks)


def multidegree_classes(g: Graph, q: int) -> dict[tuple[int, ...], list[tuple]]:
    """Every degree-q edge multiset (a sorted tuple of edges) grouped in a
    Python dict by its multidegree, the sum of its edge vectors; plain tuples
    and ints, no numpy and no packed codes."""
    classes: dict[tuple[int, ...], list[tuple]] = {}
    for combo in combinations_with_replacement(g.edges, q):
        degree = [0] * g.d
        for i, j in combo:
            degree[i - 1] += 1
            degree[j - 1] += 1
        classes.setdefault(tuple(degree), []).append(combo)
    return classes


# ---------------------------------------------------------------------------
# Toric generator counts by exact linear algebra
# ---------------------------------------------------------------------------

def monomials_of_degree(m: int, q: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(m), q):
        expo = [0] * m
        for k in combo:
            expo[k] += 1
        out.append(tuple(expo))
    return out


def generator_count_oracle(g: Graph, q: int) -> int:
    """Minimal generators of the defining ideal in degree q: dimension of the
    degree-q relation space minus the dimension spanned there by monomial
    multiples of lower-degree relations, both via exact rank."""
    edge_vecs = []
    for i, j in g.edges:
        v = [0] * g.d
        v[i - 1] += 1
        v[j - 1] += 1
        edge_vecs.append(tuple(v))

    def multidegree(expo):
        out = [0] * g.d
        for k, e in enumerate(expo):
            if e:
                for t in range(g.d):
                    out[t] += e * edge_vecs[k][t]
        return tuple(out)

    def fibers_at(qq):
        groups: dict[tuple, list[tuple[int, ...]]] = {}
        for expo in monomials_of_degree(g.m, qq):
            groups.setdefault(multidegree(expo), []).append(expo)
        return groups

    monos_q = monomials_of_degree(g.m, q)
    index = {mo: k for k, mo in enumerate(monos_q)}
    relation_dim = sum(len(f) - 1 for f in fibers_at(q).values())

    rows: list[list[int]] = []
    for qq in range(2, q):
        for fiber in fibers_at(qq).values():
            if len(fiber) < 2:
                continue
            u0 = fiber[0]
            for u in fiber[1:]:
                for mult in monomials_of_degree(g.m, q - qq):
                    a = tuple(x + y for x, y in zip(u0, mult))
                    b = tuple(x + y for x, y in zip(u, mult))
                    row = [0] * len(monos_q)
                    row[index[a]] += 1
                    row[index[b]] -= 1
                    rows.append(row)
    lower_dim = frac_rank(rows) if rows else 0
    return relation_dim - lower_dim


def fiber_components(expo_block: np.ndarray) -> int:
    """Components of the graph joining the monomials of one fiber (rows of
    exponent vectors) that share an edge variable, by depth-first search."""
    support = expo_block > 0
    adj = (support.astype(np.int16) @ support.astype(np.int16).T) > 0
    n = len(expo_block)
    seen = [False] * n
    comps = 0
    for start in range(n):
        if seen[start]:
            continue
        comps += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for u in np.flatnonzero(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
    return comps


def fiber_generator_count(g: Graph, q: int) -> int:
    """Minimal generators in degree q, one fiber at a time: the sum over the
    multidegree classes of at least two monomials of (components - 1)."""
    column = {e: k for k, e in enumerate(g.edges)}
    total = 0
    for combos in multidegree_classes(g, q).values():
        if len(combos) < 2:
            continue
        block = np.zeros((len(combos), g.m), dtype=np.int64)
        for row, combo in enumerate(combos):
            for e in combo:
                block[row, column[e]] += 1
        total += fiber_components(block) - 1
    return total


# ---------------------------------------------------------------------------
# Counting labeled connected graphs (recurrence)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def labeled_connected_count(n: int) -> int:
    """Connected labeled graphs on n vertices via the classical recurrence."""
    if n == 1:
        return 1
    total = 2 ** math.comb(n, 2)
    rest = 0
    for k in range(1, n):
        rest += (
            math.comb(n - 1, k - 1)
            * labeled_connected_count(k)
            * 2 ** math.comb(n - k, 2)
        )
    return total - rest


# ---------------------------------------------------------------------------
# Graph enumeration: colors, automorphisms and children one at a time
# ---------------------------------------------------------------------------

def adj_masks(n: int, bits: int) -> list[int]:
    """Neighbor bit mask of each vertex of the graph with adjacency code bits."""
    masks = [0] * n
    for k, (i, j) in enumerate(edge_slots(n)):
        if bits >> k & 1:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def stable_colors(n: int, bits: int) -> list[int]:
    """Iterated neighbor-color refinement with canonical color ids: each
    round sorts the distinct (color, sorted neighbor colors) signatures."""
    masks = adj_masks(n, bits)
    colors = [bin(m).count("1") for m in masks]
    while True:
        sigs = []
        for v in range(n):
            nb = []
            m = masks[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                nb.append(colors[u])
            sigs.append((colors[v], tuple(sorted(nb))))
        ids = {sig: k for k, sig in enumerate(sorted(set(sigs)))}
        new = [ids[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def automorphism_count(g: Graph) -> int:
    """The order of the automorphism group, as the package's
    `_automorphisms` finds it: the reading that `labeled_connected_count`
    and `brute_automorphisms` check."""
    return len(_automorphisms(g.d, graph_to_bits(g)))


def brute_automorphisms(n: int, bits: int) -> set[tuple[int, ...]]:
    """Every permutation of 0..n-1 that maps each edge to an edge."""
    edges = {(i, j) for k, (i, j) in enumerate(edge_slots(n)) if bits >> k & 1}
    return {
        perm for perm in permutations(range(n))
        if all((min(perm[i], perm[j]), max(perm[i], perm[j])) in edges for i, j in edges)
    }


def unpruned_connected_graph_bits(n: int) -> tuple[int, ...]:
    """Canonical codes of the connected graphs on n vertices: vertex n
    attached to every nonempty neighborhood of every representative on
    n - 1 vertices, each child canonicalised on its own."""
    if n == 1:
        return (0,)
    index = {pair: k for k, pair in enumerate(edge_slots(n))}
    out = set()
    for old in unpruned_connected_graph_bits(n - 1):
        base = sum(1 << index[pair] for k, pair in enumerate(edge_slots(n - 1)) if old >> k & 1)
        for nb in range(1, 1 << (n - 1)):
            bits = base | sum(1 << index[(i, n - 1)] for i in range(n - 1) if nb >> i & 1)
            out.add(canonical_bits(n, bits))
    return tuple(sorted(out))
