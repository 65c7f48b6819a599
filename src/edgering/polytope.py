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

The double description adds G's vertices one at a time in BFS order
(`_hull_facets`): each vertex's edge to its parent, and the first edge that
closes an odd cycle, make the cone a pyramid, and every other edge is one DD
step. Each lift is certified where it happens.
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


@lru_cache(maxsize=GRAPH_CACHE)
def edge_polytope(g: Graph) -> EdgePolytope:
    """Construct the edge polytope of a connected graph with at least one edge."""
    if g.m == 0:
        raise ValueError("edge polytope needs at least one edge")
    if not is_connected(g):
        raise NotConnectedError("edge polytope is defined for connected graphs")
    verts = tuple(_edge_vector(g.d, e) for e in g.edges)
    left = is_bipartite(g)
    dim = g.d - 2 if left is not None else g.d - 1
    equations: tuple[tuple[tuple[int, ...], int], ...] = ((tuple([1] * g.d), 2),)
    # sum x = 2 on every vertex, and chi_L.x = 1 when each edge has exactly
    # one end in the left side L
    holds = all(sum(v) == 2 for v in verts)
    if left is not None:
        equations += ((tuple(left >> v & 1 for v in g.vertices()), 1),)
        holds = holds and all((left >> i ^ left >> j) & 1 for i, j in g.edges)
    if not holds:
        raise InvariantViolationError("vertex violates an affine hull equation")
    return EdgePolytope(g, g.d, verts, dim, equations, _hull_facets(g, equations, dim))


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

def _hull_facets(g: Graph, equations, dim: int) -> tuple[FacetInequality, ...]:
    """Facets of the cone over P, of dimension dim + 1 and with the affine
    hull `equations`: the extreme rays of its dual cone, built one vertex v
    at a time in BFS order from vertex 1, one edge from v back to an earlier
    vertex at a time, the edge to v's BFS parent first.

    A ray is a functional on the vertices placed so far, 0 on the others.
    While the placed graph is bipartite its edge vectors span the hyperplane
    line.x = 0, line = chi_E - chi_O with E and O its even and odd BFS
    layers, and a ray is a representative modulo the line. A ray's mask
    holds its zero set over the edges taken so far, bit t for the t-th edge.

    - The edge {u, v} to v's parent: e_u + e_v is the only generator with
      x_v != 0, so the cone becomes a pyramid with that apex. Every old ray
      h extends by h_v = -h_u, which vanishes on the apex, and x_v >= 0 is
      the new ray.
    - The first edge {w, v} inside one BFS layer, while the placed graph is
      bipartite, leaves the hyperplane: a pyramid step too. Every old ray h
      is moved along the line until it vanishes on the apex, to
      primitive(2h - h(e) s line) with s = line_v, and s line is the new
      ray.
    - Every other edge is one double description step (`_dd_step`).

    Each lift is certified where it happens: every old ray vanishes on the
    apex and the new ray is positive on it, the line vanishes on every edge
    taken before the odd-cycle step, and that step runs exactly when the
    cone comes out of dimension d, that is when G is not bipartite. A
    failure raises InvariantViolationError.
    """
    if dim < 1:
        return ()
    nb = neighbour_masks(g)
    line = [0] * g.d
    line[0] = 1
    rays, masks, taken = [], [], []
    rank = odd = 0
    queue, done = [1], 1 << 1
    for u in queue:
        for v in mask_vertices(nb[u] & ~done):
            queue.append(v)
            done |= 1 << v
            line[v - 1] = -line[u - 1]
            for w in (u, *mask_vertices(nb[v] & done & ~(1 << u))):
                a, b = w - 1, v - 1
                bit = 1 << len(taken)
                taken.append((a, b))
                if w == u:
                    rays = [(*r[:b], -r[a], *r[b + 1:]) for r in rays]
                    new = [0] * g.d
                    new[b] = 1
                elif not odd and line[a] == line[b]:
                    if any(line[i] + line[j] for i, j in taken[:-1]):
                        raise InvariantViolationError(
                            f"the BFS layers do not 2-colour the edges before {(w, v)}")
                    s = line[b]
                    rays = [r if not (h := r[a] + r[b]) else
                            primitive([2 * x - h * s * y for x, y in zip(r, line)]) for r in rays]
                    new = [s * y for y in line]
                    odd = 1
                else:
                    rays, masks = _dd_step(rays, masks, a, b, bit, rank)
                    continue
                if any(r[a] + r[b] for r in rays) or new[a] + new[b] <= 0:
                    raise InvariantViolationError(
                        f"pyramid step over edge {(w, v)} fails the certificate")
                rays.append(tuple(new))
                masks = [m | bit for m in masks] + [bit - 1]
                rank += 1
    if rank != dim + 1:
        raise InvariantViolationError(
            f"the lift built a cone of dimension {rank}, not {dim + 1}")
    if len(equations) > 1:
        facets = [_canonical(equations, r, "hull") for r in rays]
    elif all(map(any, rays)):
        # already canonical: a pyramid step keeps a ray primitive, and every
        # other ray is a unit vector, +-line or made primitive
        facets = [FacetInequality(r, "hull") for r in rays]
    else:
        raise InvariantViolationError("double description produced a vanishing ray")
    facets.sort(key=lambda f: f.normal)
    if len({f.normal for f in facets}) != len(facets):
        raise InvariantViolationError("double description produced a facet twice")
    return tuple(facets)


def _dd_step(rays, masks, a: int, b: int, bit: int, rank: int):
    """One double description step: the rays and masks of the cone of
    dimension `rank` cut by the edge inequality x_a + x_b >= 0, whose bit is
    `bit`, with the combinatorial adjacency test.

    The cone is pointed (modulo the line while G's placed part is
    bipartite), so each new ray comes from exactly one adjacent pair. An
    extreme ray is the only ray on the face its zero set cuts out, so no two
    rays share a mask, and a pair is adjacent when no third ray's mask holds
    their common zero set, which has at least rank - 2 edges.
    """
    plus, minus, new_rays, new_masks = [], [], [], []
    for r, m in zip(rays, masks):
        x = r[a] + r[b]
        if x > 0:
            plus.append((r, m, x))
        elif x < 0:
            minus.append((r, m, -x))
            continue
        else:
            m |= bit
        new_rays.append(r)
        new_masks.append(m)
    for p, mp, lam in plus:
        for q, mq, mu in minus:
            common = mp & mq
            if common.bit_count() < rank - 2:
                continue
            for om in masks:
                if common & om == common and om != mp and om != mq:
                    break
            else:
                # both parents are >= 0 on every edge taken, so the
                # combination vanishes exactly where both do, and on this
                # one; primitive(c x) = primitive(x) for c > 0, so equal
                # weights just add the parents
                new_rays.append(primitive(
                    map(add, p, q) if lam == mu else [mu * x + lam * y for x, y in zip(p, q)]
                ))
                new_masks.append(common | bit)
    return new_rays, new_masks


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
