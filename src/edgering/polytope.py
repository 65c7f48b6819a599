"""The edge polytope: exact dimension, facets, and dilation membership.

P lies on the hyperplane sum x = 2, where a facet a.x >= b of P reads
(2a - b).x >= 0. So one facet form serves every dilation qP: a primitive
integer functional h with h.x >= 0 on qP for every q, that is, a facet of
the cone spanned by the edge vectors. For a non-bipartite graph that cone is
full-dimensional and h is unique. For a bipartite graph with sides L and R it
spans the hyperplane (chi_L - chi_R).x = 0, so h is defined only modulo
chi_L - chi_R; the canonical representative has minimum 0 over L.

Facets are produced two independent ways. `edge_polytope` runs a
double description pass with the edge vectors as cone generators, in R^d
and entirely in integer arithmetic: a ray's value on edge {i, j} is
r_i + r_j, and for a bipartite graph each ray is a representative modulo
chi_L - chi_R. `predicted_facets()` instead builds the functionals
combinatorially from the graph: coordinate facets at vertices
whose removal leaves no bipartite component (non-bipartite case) or keeps the
graph connected (bipartite case), and hyperplane facets from independent sets
whose neighborhood structure is connected with a suitable complement. Both
outputs are brought to the canonical form, so they compare as sets.

The basis edges and the initial simplicial cone of the double description
are read off the graph (`_basis_cone`): the edge vectors' linear matroid is
the even-cycle matroid of G, and each initial ray alternates +-1 on a tree
of the basis forest. One BFS of each component of that forest gives every
ray in a few bit operations on its depth parity and subtree masks. A
certificate checks every ray against the basis, and the basis size against
the structural dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from operator import add

from .graphs import (
    GRAPH_CACHE,
    Graph,
    InvariantViolationError,
    NotConnectedError,
    coloured_components,
    is_bipartite,
    is_connected,
    mask_vertices,
    neighbour_masks,
    neighbourhood,
    vertex_mask,
)


@dataclass(frozen=True)
class FacetInequality:
    """A facet of the edge polytope as a functional: h.x >= 0 on every
    dilation qP, with equality exactly on the facet.

    The normal h is in the canonical form of `canonical_inequality`, so equal
    facets compare equal componentwise regardless of how they were found.
    `provenance` records which construction produced it.
    """

    normal: tuple[int, ...]
    provenance: str = "hull"


def primitive(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    vals = tuple(vec)
    g = gcd(*vals)
    return tuple(x // g for x in vals) if g > 1 else vals


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _edge_vector(d: int, e: tuple[int, int]) -> tuple[int, ...]:
    v = [0] * d
    v[e[0] - 1] = 1
    v[e[1] - 1] = 1
    return tuple(v)


@dataclass(frozen=True)
class EdgePolytope:
    """Convex hull of the edge vectors e_i + e_j of a connected graph, with
    the facets the double description found when it was built."""

    graph: Graph
    d: int
    vertices: tuple[tuple[int, ...], ...]
    dim: int
    hull_equations: tuple[tuple[tuple[int, ...], int], ...]
    _facets: tuple[FacetInequality, ...] = field(repr=False)

    def facets(self) -> tuple[FacetInequality, ...]:
        return self._facets

    def tight_vertices(self, facet: FacetInequality) -> tuple[int, ...]:
        """Indices (into self.vertices) where the facet functional vanishes."""
        return tuple(k for k, v in enumerate(self.vertices) if _dot(facet.normal, v) == 0)


@lru_cache(maxsize=GRAPH_CACHE)
def edge_polytope(g: Graph) -> EdgePolytope:
    """Construct the edge polytope of a connected graph with at least one edge."""
    if g.m == 0:
        raise ValueError("edge polytope needs at least one edge")
    if not is_connected(g):
        raise NotConnectedError("edge polytope is defined for connected graphs")
    verts = tuple(_edge_vector(g.d, e) for e in g.edges)
    bip = is_bipartite(g)
    basis, rays = _basis_cone(g)
    dim = len(basis) - 1
    expected = g.d - 2 if bip is not None else g.d - 1
    if dim != expected:
        raise InvariantViolationError(
            f"certified dimension {dim} != structural dimension {expected}"
        )
    equations: tuple[tuple[tuple[int, ...], int], ...] = ((tuple([1] * g.d), 2),)
    # sum x = 2 on every vertex, and chi_L.x = 1 when each edge has exactly
    # one end in the left side L
    holds = all(sum(v) == 2 for v in verts)
    if bip is not None:
        left = sum(1 << v for v in bip.left)
        equations += ((tuple(left >> v & 1 for v in g.vertices()), 1),)
        holds = holds and all((left >> i ^ left >> j) & 1 for i, j in g.edges)
    if not holds:
        raise InvariantViolationError("vertex violates an affine hull equation")
    chosen = set(basis)
    order = tuple(basis + [e for e in range(g.m) if e not in chosen])
    return EdgePolytope(g, g.d, verts, dim, equations, _hull_facets(g, equations, order, rays))


def _forest_bfs(nb: list[int], d: int):
    """One BFS of each component of the basis forest F (neighbour masks
    `nb` on vertices 1..d), from its least vertex: (parent, below, root,
    even, closing). parent[v] is v's BFS parent, 0 at a root; below[v] is
    the mask of v's BFS subtree, so below[root[v]] is v's component; even
    holds the vertices at even depth; closing maps the root of each
    component with a cycle to the edge (u, w), u < w, that the BFS tree
    leaves out, the only edge from a vertex to a seen one other than its
    parent."""
    parent, below, root = [0] * (d + 1), [0] * (d + 1), [0] * (d + 1)
    closing = {}
    even = seen = 0
    for r in range(1, d + 1):
        if seen >> r & 1:
            continue
        seen |= 1 << r
        even |= 1 << r
        order = [r]
        for v in order:
            root[v] = r
            back = nb[v] & seen & ~(1 << parent[v])
            if back:
                w = back.bit_length() - 1
                closing[r] = (v, w) if v < w else (w, v)
            fresh = nb[v] & ~seen
            seen |= fresh
            if not even >> v & 1:
                even |= fresh
            while fresh:
                low = fresh & -fresh
                c = low.bit_length() - 1
                parent[c] = v
                order.append(c)
                fresh ^= low
        for v in reversed(order):
            below[v] |= 1 << v
            below[parent[v]] |= below[v]
    return parent, below, root, even, closing


def _basis_cone(g: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
    """(basis, rays): the first basis of the edge vectors in edge order, and
    per basis edge a ray that is 0 on every other basis edge and positive on
    its own, the initial cone of the double description.

    The edge vectors' matroid is the even-cycle matroid of G: edges are
    independent when each component they form is a tree or holds one cycle,
    and that cycle is odd. A union-find with parity keeps every edge that
    leaves them so. A functional that vanishes on a connected edge set
    alternates on it, so it is 0 where the set holds an odd cycle: the ray of
    k = {i, j} alternates +-1 on the tree of F - k that holds i (else j), F
    the basis forest, is +1 at that endpoint and 0 elsewhere.

    Every ray is read off one BFS of each component of F (`_forest_bfs`),
    whose depth parity 2-colours the BFS tree. A component's cycle is odd,
    so the edge the tree leaves out, its closing edge, joins two vertices of
    one depth. For the closing edge, F - k is the BFS tree and takes its
    colouring. For another edge k on the cycle, F - k is the BFS tree less
    k plus the closing edge, which joins the subtree below k to the rest at
    one parity, so the colouring flips on that subtree. Any other edge cuts
    its component in two, and the ray lives on the side without the cycle
    (the side of i in a tree). Each ray is checked on every basis edge,
    which certifies the basis independent; a failure raises
    InvariantViolationError.
    """
    parent, flip, cyclic = list(range(g.d + 1)), [0] * (g.d + 1), [False] * (g.d + 1)

    def find(v: int) -> tuple[int, int]:
        """The root of v and the parity of v's side against it."""
        side = 0
        while parent[v] != v:
            side, v = side ^ flip[v], parent[v]
        return v, side

    basis, nb = [], [0] * (g.d + 1)
    for e, (i, j) in enumerate(g.edges):
        (a, s), (b, t) = find(i), find(j)
        if a == b and (cyclic[a] or s != t) or a != b and cyclic[a] and cyclic[b]:
            continue  # a second cycle in one component, or an even cycle
        if a != b:
            parent[b], flip[b] = a, s ^ t ^ 1
        cyclic[a] = a == b or cyclic[a] or cyclic[b]
        basis.append(e)
        nb[i] |= 1 << j
        nb[j] |= 1 << i

    edges = [g.edges[e] for e in basis]
    up, below, root, even, closing = _forest_bfs(nb, g.d)
    vertices = g.vertices()
    rays = []
    for k, (i, j) in enumerate(edges):
        part, colour = below[root[i]], even
        cycle = closing.get(root[i])
        if (i, j) != cycle:
            sub = below[j] if up[j] == i else below[i]
            if cycle is None:
                part = sub if sub >> i & 1 else part & ~sub
            elif sub >> cycle[0] & 1 != sub >> cycle[1] & 1:
                colour ^= sub  # k on the cycle
            else:
                part = part & ~sub if sub >> cycle[0] & 1 else sub
        end = i if part >> i & 1 else j
        plus = part & (colour if colour >> end & 1 else ~colour)
        ray = tuple([1 if plus >> v & 1 else -(part >> v & 1) for v in vertices])
        vals = [ray[a - 1] + ray[b - 1] for a, b in edges]
        if vals[k] <= 0 or any(vals[:k] + vals[k + 1:]):
            raise InvariantViolationError(f"initial ray of basis edge {(i, j)} fails the certificate")
        rays.append(ray)
    return basis, rays


def canonical_inequality(p: EdgePolytope, normal, provenance: str) -> FacetInequality:
    """The canonical form of the functional h.x >= 0 on the cone over P.

    For a bipartite graph, h is first shifted by a multiple of chi_L - chi_R,
    which vanishes on every edge vector, until its minimum over the left
    side L (the second hull equation chi_L.x = 1) is 0. Then h is made
    primitive.
    """
    return _canonical(p.hull_equations, normal, provenance)


def _canonical(equations, normal, provenance: str) -> FacetInequality:
    """`canonical_inequality` against the hull equations of P."""
    h = list(normal)
    if len(equations) > 1:
        chi = equations[1][0]
        t = min(x for x, c in zip(h, chi) if c)
        h = [x - t if c else x + t for x, c in zip(h, chi)]
    h = primitive(h)
    if not any(h):
        raise ValueError("functional vanishes on every edge vector, not a facet candidate")
    return FacetInequality(h, provenance)


# ---------------------------------------------------------------------------
# Hull-side facet computation (double description)
# ---------------------------------------------------------------------------

def _hull_facets(g: Graph, equations, order: tuple[int, ...], rays: list[tuple[int, ...]]
                 ) -> tuple[FacetInequality, ...]:
    """Facets of the cone over P, whose affine hull has the `equations`, the
    extreme rays of its dual cone, built incrementally one edge inequality
    at a time with the combinatorial adjacency test. The DD takes the edges
    in `order`, the basis edges of `_basis_cone` first, and starts from the
    simplicial cone of its `rays`.

    The initial cone is simplicial, so every intermediate cone is pointed
    (modulo chi_L - chi_R when G is bipartite) and each new ray comes from
    exactly one adjacent pair. A ray's mask holds its zero set over the
    edges processed so far, as bits on positions in `order`; an extreme
    ray is the only ray on the face its zero set cuts out, so no two rays
    share a mask, and a pair is adjacent when no third ray's mask holds
    their common zero set.
    """
    n = len(rays)
    if n < 2:
        return ()
    masks = [((1 << n) - 1) ^ (1 << k) for k in range(n)]
    ends = [(i - 1, j - 1) for i, j in (g.edges[e] for e in order)]
    for step in range(n, len(order)):
        i, j = ends[step]
        bit = 1 << step
        plus, minus, new_rays, new_masks = [], [], [], []
        for r, m in zip(rays, masks):
            v = r[i] + r[j]
            if v > 0:
                plus.append((r, m, v))
            elif v < 0:
                minus.append((r, m, -v))
                continue
            else:
                m |= bit
            new_rays.append(r)
            new_masks.append(m)
        for a, ma, lam in plus:
            for b, mb, mu in minus:
                common = ma & mb
                if common.bit_count() < n - 2:
                    continue
                for om in masks:
                    if common & om == common and om != ma and om != mb:
                        break
                else:
                    # both parents are >= 0 on every processed edge, so the
                    # combination vanishes exactly where both do, and on this
                    # one; primitive(c x) = primitive(x) for c > 0, so equal
                    # weights just add the parents
                    new_rays.append(primitive(
                        map(add, a, b) if lam == mu else [mu * x + lam * y for x, y in zip(a, b)]
                    ))
                    new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    if len(equations) > 1:
        facets = [_canonical(equations, r, "hull") for r in rays]
    elif all(map(any, rays)):
        # already canonical: the initial rays hold a +1 and every combination
        # was made primitive
        facets = [FacetInequality(r, "hull") for r in rays]
    else:
        raise InvariantViolationError("double description produced a vanishing ray")
    facets.sort(key=lambda f: f.normal)
    if len({f.normal for f in facets}) != len(facets):
        raise InvariantViolationError("double description produced a facet twice")
    return tuple(facets)


# ---------------------------------------------------------------------------
# Graph-side facet prediction
# ---------------------------------------------------------------------------

def _linked(nb: tuple[int, ...], t: int) -> bool:
    """Whether the edges at the independent vertex mask t connect t and its
    neighbourhood N(t). Every vertex of N(t) lies on such an edge, so they do
    exactly when a flood fill over t, two steps at a time through shared
    neighbours, reaches all of t."""
    reach = t & -t
    while True:
        grow = reach | neighbourhood(nb, neighbourhood(nb, reach)) & t
        if grow == reach:
            return reach == t
        reach = grow


def predicted_facets(g: Graph) -> tuple[FacetInequality, ...]:
    """Facets predicted from the graph structure alone (no hull computation).

    Non-bipartite case: x_i >= 0 whenever every component of g - i is
    non-bipartite, plus, for every independent set T whose incident bipartite
    graph is connected and whose complement has only non-bipartite components,
    the inequality sum_{N(T)} x - sum_T x >= 0.

    Bipartite case: x_i >= 0 whenever g - i is connected, plus the analogous
    independent-set inequalities with a nonempty connected complement.
    """
    if not is_connected(g):
        raise NotConnectedError("facet prediction is defined for connected graphs")
    p = edge_polytope(g)
    if p.dim < 1:
        return ()
    bip = is_bipartite(g)
    found: dict[tuple, FacetInequality] = {}

    def record(normal, provenance):
        f = canonical_inequality(p, normal, provenance)
        found.setdefault(f.normal, f)

    nb = neighbour_masks(g)
    everything = vertex_mask(g)

    def admissible(removed: int) -> bool:
        # whether each component of g minus the removed vertices is bipartite
        parts = [left is not None for _, left in coloured_components(nb, everything & ~removed)]
        return not any(parts) if bip is None else len(parts) == 1

    for i in g.vertices():
        if admissible(1 << i):
            normal = [0] * g.d
            normal[i - 1] = 1
            record(normal, f"coordinate({i})")

    for t in range(2, everything + 1, 2):
        nbhd = neighbourhood(nb, t)
        if t & nbhd:  # T is not independent
            continue
        if not _linked(nb, t) or not admissible(t | nbhd):
            continue
        normal = [0] * g.d
        for v in mask_vertices(nbhd):
            normal[v - 1] = 1
        for v in mask_vertices(t):
            normal[v - 1] = -1
        kind = "fundamental" if bip is None else "acceptable"
        record(normal, f"{kind}({mask_vertices(t)},{mask_vertices(nbhd)})")

    return tuple(sorted(found.values(), key=lambda f: f.normal))


# ---------------------------------------------------------------------------
# Dilation membership
# ---------------------------------------------------------------------------

def contains(p: EdgePolytope, q: int, point) -> str:
    """Classify an integer point against the dilation q * P.

    Returns "interior" (relative to the affine span), "boundary", or
    "outside". All arithmetic is exact.
    """
    if q < 1:
        raise ValueError("dilation factor q must be >= 1")
    pt = tuple(point)
    if len(pt) != p.d:
        raise ValueError(f"point has {len(pt)} coordinates, expected {p.d}")
    if any(_dot(coeffs, pt) != q * rhs for coeffs, rhs in p.hull_equations):
        return "outside"
    vals = [_dot(f.normal, pt) for f in p.facets()]
    if any(v < 0 for v in vals):
        return "outside"
    return "interior" if all(v > 0 for v in vals) else "boundary"
