"""Lattice points of dilated edge polytopes, the edge ring's Hilbert function,
the h*-vector, and the regularity of normal edge rings.

Two independent counting routes are kept apart deliberately:

* `lattice_points` enumerates integer vectors satisfying the scaled affine
  hull equations inside the coordinate box and filters by the facet
  inequalities (geometric route);
* `idp_points` accumulates sums of q edge vectors by an iterated sumset
  (ring route; these are the degree-q monomials of the edge ring).

The two agree exactly when the ring is normal, and the comparison is itself
the integer-decomposition test `check_idp`.

One enumerator, `_shape_blocks`, yields the integer vectors on the scaled
hull within a box, streamed in blocks of about `_BLOCK_ROWS` rows. It works
on a shape, d plus the side sizes when G is bipartite, laid out left side
first; `_candidate_blocks` places its columns in G's own order, for the
points, and the interior search scans the layout of G's leaf core, a vertex
mask of G. The box (lo = 0) holds every lattice point of qP, the
all-positive slice (lo = 1) every relative-interior point. Every block is
tested against one facet kernel, `_facet_min`: the facet normals h of P,
h.x >= 0 on every dilation, built once per graph, give through float64
products and a min over facets both the lattice points (min >= 0) and the
relative-interior points (min > 0) of every dilation. No product has more
than `_PRODUCT_MADDS` = 2**18 multiply-adds: with numpy 2.4.6 and
scipy-openblas 0.3.31 every product shape tried at that size ran on one
thread, while larger ones could start a second BLAS thread that spins
against the Python thread, which on two cores cost both CPU time and wall
time.

h* reads one fixed window per shape, packed into one read-only float64
(d, R) stack cached for `_PACKED_SHAPES` shapes, and permutes the columns of
G's facet matrix to the shape's layout; h.x is a sum over columns, so the
counts are exact. `_window_counts` counts the whole window with one
`_facet_min` call and one `np.bincount` over the count each hit belongs to.
Under the default `ROW_BUDGET` the window always fits one block: at most
10,945 rows (d = 9). A window that does not fit is streamed one count at a
time through `lattice_count` and `interior_count`, which take one dilation,
the box or the all-positive slice, in G's own columns against G's own facet
matrix, so memory stays bounded by a block. The points themselves, behind
`lattice_points`, `interior_lattice_points` and `check_idp`, come from the
whole box in G's own columns, a route independent of the packed stacks.

The h*-vector is the numerator of the Ehrhart series, sum |qP| t^q =
h*(t) / (1 - t)^(dim + 1). `h_star` reads h* from both ends with one
convolution: the lattice counts at q <= a give h*_0..h*_a, and the interior
counts at q <= b, which Ehrhart reciprocity makes the same series read from
the top, give h*_(dim + 1 - b)..h*_(dim + 1). Interior points are
all-positive, so the interior counts scan only the small all-positive slice.
The window is fixed, b = min(dim, MAX_Q) and a = dim + 3 - b: a = 3 and
b = dim up to dim = 15, and h* reaches dim = 27. Where the two ends overlap
or leave 0..dim they must agree or be 0: 4 equations, checked on every
graph.

Coordinates in a dilation q*P are bounded by q <= 15, so points are packed
into single integers base 16 for deduplication; `_radix_weights` is the one
encoder and refuses any point set whose codes could leave int64. The codes of
the edge vectors come from `_edge_codes`, which the ring-side sums and the
toric module's fibers share.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import (
    GRAPH_CACHE,
    Graph,
    is_bipartite,
    mask_vertices,
    neighbour_masks,
    vertex_mask,
)
from .normality import is_normal
from .polytope import InvariantViolationError, edge_polytope

MAX_Q = 15
# candidate rows the h* window may enumerate; read at call time
ROW_BUDGET = 6_000_000
# candidate rows per facet-kernel block
_BLOCK_ROWS = 1 << 16
# multiply-adds per facet product: in numpy 2.4.6 with scipy-openblas 0.3.31
# on a 2-vCPU machine, every product shape tried at or under 2**18 ran on one
# thread, while a larger one can start a second BLAS thread that spins
# against the Python thread (cpu/wall 1.98 at 30 facets, d = 8, 3,500 rows)
_PRODUCT_MADDS = 1 << 18
# shapes whose packed h* stack is cached
_PACKED_SHAPES = 16
# composition tables cached: a families run builds 159 and an atlas7 run 95,
# so neither evicts one
_COMPOSITION_TABLES = 256


class NotNormalError(ValueError):
    """The requested quantity is only defined for normal edge rings."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured size budget."""


# ---------------------------------------------------------------------------
# Integer-vector plumbing
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int, cap: int) -> np.ndarray:
    """All integer vectors of length `parts` with entries in [0, cap] summing
    to `total`, as a read-only (N, parts) array.

    A cap at or above the total removes no rows, so the table is cached
    under min(cap, total) and shared by every such cap."""
    return _capped_compositions(total, parts, min(cap, total))


@lru_cache(maxsize=_COMPOSITION_TABLES)
def _capped_compositions(total: int, parts: int, cap: int) -> np.ndarray:
    if parts <= 1:
        fits = total == 0 if parts == 0 else 0 <= total <= cap
        arr = np.full((int(fits), parts), total, dtype=np.int16)
    else:
        arr = np.concatenate([np.zeros((0, parts), dtype=np.int16)] + [
            _prepend(v, _compositions(total - v, parts - 1, cap))
            for v in range(max(0, total - cap * (parts - 1)), min(cap, total) + 1)
        ])
    arr.setflags(write=False)
    return arr


def _prepend(v: int, tail: np.ndarray) -> np.ndarray:
    """The rows of tail, each with v prepended."""
    block = np.empty((len(tail), tail.shape[1] + 1), dtype=np.int16)
    block[:, 0] = v
    block[:, 1:] = tail
    return block


def _count(total: int, parts: int, cap: int) -> int:
    """len(_compositions(total, parts, cap)) for parts >= 1, by
    inclusion-exclusion over the coordinates that exceed the cap."""
    return sum(
        (-1) ** k * math.comb(parts, k) * math.comb(total - k * (cap + 1) + parts - 1, parts - 1)
        for k in range(parts + 1)
        if total - k * (cap + 1) >= 0
    )


def _composition_blocks(total: int, parts: int, cap: int, rows: int):
    """The rows of _compositions(total, parts, cap), in the same order, in
    blocks of at most max(rows, 1) rows: while there are more, the first
    coordinate is fixed and the rest split. Whatever fits is the one cached
    array itself, not a copy."""
    if parts <= 1 or _count(total, parts, cap) <= rows:
        yield _compositions(total, parts, cap)
        return
    for v in range(max(0, total - cap * (parts - 1)), min(cap, total) + 1):
        for tail in _composition_blocks(total - v, parts - 1, cap, rows):
            yield _prepend(v, tail)


def _radix_weights(d: int, cap: int) -> np.ndarray:
    """Weights 16**i, i < d, of the base-16 code of a point in [0, cap]^d.

    The largest code is cap * (16**d - 1) / 15; a point set whose codes could
    leave int64 raises BudgetExceededError instead of wrapping.
    """
    if cap * (16 ** d - 1) // 15 >= 1 << 63:
        raise BudgetExceededError(
            f"base-16 codes of {d} coordinates up to {cap} do not fit in int64"
        )
    return 16 ** np.arange(d, dtype=np.int64)


def _edge_codes(g: Graph, cap: int) -> np.ndarray:
    """The base-16 codes of G's edge vectors, as points in [0, cap]^d."""
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2) - 1
    return _radix_weights(g.d, cap)[ends].sum(axis=1)


def _pack(points: np.ndarray) -> np.ndarray:
    weights = _radix_weights(points.shape[1], int(points.max(initial=0)))
    return points.astype(np.int64) @ weights


def _unpack(codes: np.ndarray, d: int) -> np.ndarray:
    """The points of base-16 codes of d coordinates, as an int64 (N, d) array."""
    return (codes[:, None] >> 4 * np.arange(d)) & 15


@lru_cache(maxsize=GRAPH_CACHE)
def _facet_matrix(g: Graph) -> np.ndarray:
    """The facet normals h of P, h.x >= 0 on every dilation, as the rows of a
    matrix H, so one H serves every q; h*'s packed window reads it with its
    columns permuted to the layout of G's shape, which changes no h.x."""
    fs = edge_polytope(g).facets()
    h = np.array([f.normal for f in fs], dtype=np.int64).reshape(-1, g.d)
    # the points, the counts and h*'s window validate q <= MAX_Q, and the
    # interior search stops at q = dim + 1, so with 0 <= x <= max(MAX_Q,
    # dim + 1) every partial sum of H @ x is an integer of magnitude below
    # 2**53: the float64 product is exact, in any column order and however
    # the candidates are split between products
    top = max(MAX_Q, edge_polytope(g).dim + 1)
    if int(np.abs(h).max(initial=0)) * top * g.d >= 1 << 53:
        raise BudgetExceededError(
            f"facet values of {g.d} coordinates up to {top} are not exact in float64"
        )
    out = h.astype(np.float64)
    out.setflags(write=False)
    return out


def _facet_min(h: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Least facet value h.x, over the rows h of a facet matrix, of each
    candidate row of a dilation qP: >= 0 inside qP, > 0 in its relative
    interior; +inf when P has no facets.

    Evaluated facets-major, a run of rows at a time, with at most
    _PRODUCT_MADDS multiply-adds in each product h @ x: the product stays on
    the calling thread, and the float64 working set is bounded however many
    candidates there are. Float64 rows, such as the transpose of a packed
    (d, R) stack, are read in place.
    """
    out = np.empty(len(cand))
    step = max(1, _PRODUCT_MADDS // max(h.size, 1))
    for s in range(0, len(cand), step):
        block = cand[s:s + step].T.astype(np.float64, copy=False)
        np.minimum.reduce(h @ block, axis=0, initial=np.inf, out=out[s:s + step])
    return out


def _layout(g: Graph, kept: int | None = None) -> tuple[tuple[int, int] | None, np.ndarray]:
    """(sides, order) of the vertices in the mask `kept`, all of G by
    default: their side sizes when G is bipartite (None otherwise), and their
    columns of G in the layout of that shape, left side first: coordinate k
    of the layout is column order[k] of G."""
    kept = vertex_mask(g) if kept is None else kept
    bip = is_bipartite(g)
    if bip is None:
        return None, np.array(mask_vertices(kept)) - 1
    left, right = mask_vertices(kept & bip), mask_vertices(kept & ~bip)
    return (len(left), len(right)), np.array(left + right) - 1


def _candidate_blocks(g: Graph, q: int, lo: int):
    """Integer vectors with lo <= x_i <= q satisfying the hull equations of
    qP, in G's columns, in blocks of about _BLOCK_ROWS rows: lo = 0 gives
    every candidate of the points, lo = 1 the all-positive slice."""
    sides, order = _layout(g)
    return _shape_blocks(g.d, sides, order, q, lo)


def _shape_blocks(d: int, sides: tuple[int, int] | None, cols: np.ndarray, q: int, lo: int):
    """The candidates of `_candidate_blocks` for a graph on d vertices,
    bipartite with these side sizes or not (None), with coordinate k of the
    layout at column cols[k]: G's order gives G's own columns, arange(d) the
    layout itself.

    The hull is sum x = 2q, or sum x = q on each side of a bipartition. A
    bipartite block joins a block of left-side rows with every row of the
    right side, so the left side is split to keep it near _BLOCK_ROWS rows.
    """
    if sides is None:
        for block in _composition_blocks(2 * q - lo * d, d, q - lo, _BLOCK_ROWS):
            yield block + lo if lo else block
        return
    left, right = cols[:sides[0]], cols[sides[0]:]
    rcomp = _compositions(q - lo * len(right), len(right), q - lo)
    rows = _BLOCK_ROWS // max(len(rcomp), 1)
    for lcomp in _composition_blocks(q - lo * len(left), len(left), q - lo, rows):
        block = np.zeros((len(lcomp) * len(rcomp), d), dtype=np.int16)
        block[:, left] = np.repeat(lcomp, len(rcomp), axis=0)
        block[:, right] = np.tile(rcomp, (len(lcomp), 1))
        block += lo
        yield block


def window_row_cost(g: Graph, q_max: int) -> int:
    """Candidate rows of the whole box of candidates up to q_max: exact for
    bipartite G, else an upper bound that ignores the cap q (6 at d = 3,
    q = 1, where there are 3).

    This is the row budget's gate. `h_star` reads it at q_max = dim + 2, the
    full window, not at the far fewer rows it evaluates, so that h* is
    skipped on exactly the graphs where the full window skipped it."""
    return _shape_row_cost(g.d, _layout(g)[0], q_max)


@lru_cache(maxsize=None)
def _shape_row_cost(d: int, sides: tuple[int, int] | None, q_max: int) -> int:
    """`window_row_cost` of every graph on d vertices, bipartite with these
    side sizes or not (None)."""
    # non-bipartite: the box without its cap q; bipartite: the box itself
    return sum(_count(2 * q, d, 2 * q) if sides is None else _candidate_rows(d, sides, q, 0)
               for q in range(1, q_max + 1))


def _check_dilation(q: int) -> None:
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q > MAX_Q:
        raise BudgetExceededError(f"dilation {q} exceeds the supported bound {MAX_Q}")


def _lattice_classified(g: Graph, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, strict) for qP: the lattice points as an int array, in no
    particular order, plus a boolean mask marking relative-interior points.

    The whole box of candidates in G's own columns, one block at a time,
    against G's facet matrix: the route of the points, and the tests'
    reference for every count. 0P is the origin, never interior, which K2's
    facetless P would otherwise make it."""
    _check_dilation(q)
    h = _facet_matrix(g)
    points, strict = [], []
    for cand in _candidate_blocks(g, q, 0):
        m = _facet_min(h, cand)
        inside = m >= 0
        points.append(cand[inside])
        strict.append((m[inside] > 0) & (q > 0))
    return np.concatenate(points), np.concatenate(strict)


def lattice_points(g: Graph, q: int) -> set[tuple[int, ...]]:
    """Integer points of the dilation q * P, enumerated geometrically."""
    pts, _ = _lattice_classified(g, q)
    return set(map(tuple, pts.tolist()))


def interior_lattice_points(g: Graph, q: int) -> set[tuple[int, ...]]:
    """Lattice points in the relative interior of q * P."""
    pts, strict = _lattice_classified(g, q)
    return set(map(tuple, pts[strict].tolist()))


def _window(d: int, sides: tuple[int, int] | None) -> tuple[int, int]:
    """(a, b): `h_star` reads lattice counts at q <= a and interior counts at
    q <= b on every connected graph on d vertices, bipartite with these side
    sizes or not (None), whose P has dim = d - 2 if bipartite, else d - 1.
    b = min(dim, MAX_Q) and a = dim + 3 - b leave a + b + 1 - dim = 4 spare reciprocity
    equations; beyond dim = 27, a > MAX_Q raises BudgetExceededError."""
    dim = d - 1 if sides is None else d - 2
    b = min(dim, MAX_Q)
    _check_dilation(dim + 3 - b)
    return dim + 3 - b, b


@lru_cache(maxsize=_PACKED_SHAPES)
def _packed(d: int, sides: tuple[int, int] | None) -> tuple[np.ndarray, ...] | None:
    """h*'s window of a shape (see `_window`), the box at q = 0..a and the
    all-positive slice at q = ceil(d/2)..b, in the layout of the shape, as
    one read-only float64 (d, R) stack, one candidate per column, with the
    floor and the owner of each candidate: the lo of its dilation (a
    candidate counts where its facet minimum is >= its floor: h.x is an
    integer, so >= 1 is > 0) and the index of its count in `_window_counts`,
    q in the box and a + 1 + q in the slice. None when the window does not
    fit one block of _BLOCK_ROWS rows."""
    a, b = _window(d, sides)
    dilations = [*((q, 0) for q in range(a + 1)), *((q, 1) for q in range((d + 1) // 2, b + 1))]
    rows = [_candidate_rows(d, sides, q, lo) for q, lo in dilations]
    if sum(rows) > _BLOCK_ROWS:
        return None
    cols = np.arange(d)
    blocks = [block for q, lo in dilations for block in _shape_blocks(d, sides, cols, q, lo)]
    out = (
        np.ascontiguousarray(np.concatenate(blocks).T, dtype=np.float64),
        np.repeat(np.array([lo for _, lo in dilations], dtype=np.uint8), rows),
        np.repeat(np.array([q + lo * (a + 1) for q, lo in dilations], dtype=np.uint8), rows),
    )
    for arr in out:
        arr.setflags(write=False)
    return out


def _window_counts(g: Graph) -> tuple[list[int], list[int]]:
    """h*'s window of G: |qP| at q = 0..a and |relint qP| at q = 0..b, for
    the (a, b) of `_window`. One `_facet_min` call over the packed stack of
    G's shape, with G's facet matrix permuted to its layout, and one
    `np.bincount` count it; a window that does not fit one block is streamed
    one count at a time."""
    sides, order = _layout(g)
    a, b = _window(g.d, sides)
    packed = _packed(g.d, sides)
    if packed is None:
        return ([lattice_count(g, q) for q in range(a + 1)],
                [interior_count(g, q) for q in range(b + 1)])
    stack, floor, owner = packed
    hits = _facet_min(_facet_matrix(g)[:, order], stack.T) >= floor
    counts = np.bincount(owner[hits], minlength=a + b + 2).tolist()
    return counts[:a + 1], counts[a + 1:]


def _streamed_count(g: Graph, q: int, lo: int) -> int:
    """The candidates of `_candidate_blocks(g, q, lo)` whose facet minimum is
    >= lo, streamed one block at a time against G's facet matrix."""
    _check_dilation(q)
    h = _facet_matrix(g)
    return sum(int(np.count_nonzero(_facet_min(h, block) >= lo))
               for block in _candidate_blocks(g, q, lo))


def lattice_count(g: Graph, q: int) -> int:
    """|qP|, counted on the box of candidates."""
    return _streamed_count(g, q, 0)


def interior_count(g: Graph, q: int) -> int:
    """|relint qP|, counted on the all-positive slice, which holds every
    relative-interior point (see `min_interior_q`) and is empty at q = 0."""
    return _streamed_count(g, q, 1)


# ---------------------------------------------------------------------------
# Ring-side counting (sums of edge vectors)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=GRAPH_CACHE)
def _idp_packed(g: Graph, q: int) -> np.ndarray:
    _check_dilation(q)
    if q == 0:
        arr = np.zeros(1, dtype=np.int64)
        arr.setflags(write=False)
        return arr
    # sums of q edge vectors have coordinates at most q
    prev = _idp_packed(g, q - 1)
    sums = (prev[:, None] + _edge_codes(g, q)[None, :]).ravel()
    arr = np.unique(sums)
    arr.setflags(write=False)
    return arr


def idp_points(g: Graph, q: int) -> set[tuple[int, ...]]:
    """All distinct sums of q edge vectors (the degree-q monomial exponents)."""
    return set(map(tuple, _unpack(_idp_packed(g, q), g.d).tolist()))


def hilbert_function(g: Graph, q: int) -> int:
    """Number of degree-q monomials of the edge ring."""
    return len(_idp_packed(g, q))


def check_idp(g: Graph, q_max: int) -> bool:
    """True iff every lattice point of qP is a sum of q edge vectors, q <= q_max."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    for q in range(1, q_max + 1):
        pts, _ = _lattice_classified(g, q)
        geo = np.sort(_pack(pts))
        ring = _idp_packed(g, q)
        if len(geo) != len(ring) or not np.array_equal(geo, ring):
            return False
    return True


# ---------------------------------------------------------------------------
# Interior threshold and regularity
# ---------------------------------------------------------------------------

def _leaf_core(g: Graph) -> int:
    """The mask of the vertices left after deleting degree-1 vertices one at
    a time while more than two vertices remain: every vertex off a pendant
    tree of a connected G, or the two ends of one edge when G is a tree."""
    nb = neighbour_masks(g)
    degree = [m.bit_count() for m in nb]
    kept, left = vertex_mask(g), g.d
    leaves = [v for v in g.vertices() if degree[v] == 1]
    while leaves and left > 2:
        v = leaves.pop()
        kept ^= 1 << v
        left -= 1
        u = (nb[v] & kept).bit_length() - 1
        degree[u] -= 1
        if degree[u] == 1:
            leaves.append(u)
    return kept


def min_interior_q(g: Graph) -> int:
    """Least q >= 1 whose dilation contains an interior lattice point.

    Defined for normal edge rings. A relative-interior point of qP is a
    positive combination of all edge vectors, and every vertex of a connected
    G with d >= 2 lies on an edge, so every coordinate of such a point is
    positive, hence >= 1 for a lattice point. Only the all-positive slice of
    each dilation is scanned. There sum x = 2q with every x_i >= 1, so the
    search starts at ceil(d / 2), which assumes no bound on the threshold, and
    must succeed by dim P + 1.

    Pendant vertices are stripped first. If v is a leaf with neighbour u,
    e_u + e_v is the only vertex of P(G) with x_v != 0, so P(G) is a pyramid
    over P(G - v) with its apex at lattice height 1: a lattice point of
    relint qP(G) is y + k (e_u + e_v) with 0 < k < q and y in
    relint (q - k)P(G - v), hence min_interior_q(G) = min_interior_q(G - v) + 1.
    The scan therefore runs on the core C, the vertex mask `_leaf_core`
    keeps, in C's layout `_layout(g, kept)` (C keeps every cycle of G, so it
    is bipartite exactly when G is), and adds the number of leaves stripped;
    no second graph is built and no second DD runs. P(G) is an iterated
    pyramid over P(C), whose facets are those containing all of P(C), which
    vanish on every edge of C, and the pyramids over the facets of P(C).
    So the rows of G's matrix that are nonzero on some edge inside C,
    permuted to C's layout, are facet normals of P(C), one per facet.
    """
    if not is_normal(g):
        raise NotNormalError("interior threshold is computed for normal edge rings only")
    kept = _leaf_core(g)
    sides, order = _layout(g, kept)
    h = _facet_matrix(g)
    if kept != vertex_mask(g):
        ends = np.array([(i, j) for i, j in g.edges if kept >> i & kept >> j & 1]) - 1
        h = h[np.any(h[:, ends[:, 0]] + h[:, ends[:, 1]] != 0, axis=1)]
    h, d = h[:, order], len(order)
    leaves, cols = g.d - d, np.arange(d)
    for q in range((d + 1) // 2, edge_polytope(g).dim - leaves + 2):
        if any(np.any(_facet_min(h, block) > 0) for block in _shape_blocks(d, sides, cols, q, 1)):
            return q + leaves
    raise InvariantViolationError(
        "no interior lattice point found by dim + 1; input is non-normal or a bug"
    )


def _candidate_rows(d: int, sides: tuple[int, int] | None, q: int, lo: int) -> int:
    """The rows `_candidate_blocks(g, q, lo)` yields for a graph on d vertices,
    bipartite with these side sizes or not (None)."""
    if sides is None:
        return _count(2 * q - lo * d, d, q - lo)
    return math.prod(_count(q - lo * s, s, q - lo) for s in sides)


@lru_cache(maxsize=None)
def _signed_binomials(dim: int) -> tuple[int, ...]:
    """(-1)^j C(dim + 1, j), j = 0..dim + 1: the coefficients of (1 - t)^(dim + 1)."""
    return tuple((-1) ** j * math.comb(dim + 1, j) for j in range(dim + 2))


def _numerator(values: list[int], dim: int) -> list[int]:
    """The coefficients of t^0..t^(len(values) - 1) in (1 - t)^(dim + 1) times
    the series sum values[q] t^q."""
    c = _signed_binomials(dim)
    return [sum(map(operator.mul, c, values[i::-1])) for i in range(len(values))]


def _binom_poly(n: int, k: int) -> int:
    """Binomial coefficient as a polynomial in n, valid for negative n."""
    num = 1
    for t in range(k):
        num *= n - t
    return num // math.factorial(k)


def ehrhart_polynomial_value(h_star_vec, dim: int, q: int) -> int:
    """Evaluate the counting polynomial determined by an h*-vector; defined
    for negative q as well (reciprocity checks)."""
    return sum(h_star_vec[i] * _binom_poly(q + dim - i, dim) for i in range(len(h_star_vec)))


def h_star(g: Graph) -> tuple[int, ...]:
    """h*-vector of the edge polytope of a normal graph.

    The lattice counts |qP| are the series h*(t) / (1 - t)^(dim + 1), so one
    convolution reads h*_0..h*_a off the counts at q <= a. By Ehrhart
    reciprocity the interior counts |relint qP| (0 at q = 0) are the series
    t^(dim + 1) h*(1/t) / (1 - t)^(dim + 1), so the same convolution reads
    h*_(dim + 1) down to h*_(dim + 1 - b) off the counts at q <= b. The
    lattice counts scan the whole box of candidates; the interior counts
    scan only its all-positive slice, which is empty when 2q < d. The
    window is fixed by dim, b = min(dim, MAX_Q) and a = dim + 3 - b (see
    `_window`), and `_window_counts` counts it all at once, on the packed
    stack of G's shape. Every index both ends name must agree, and every
    index outside 0..dim must be 0: a + b + 1 - dim = 4 equations beyond the
    dim + 1 entries; a failure raises InvariantViolationError. h*_0 = 1 and
    nonnegativity are enforced as runtime diagnostics.

    This is the one place the row budget is read: before any count,
    BudgetExceededError is raised when window_row_cost(g, dim + 2) exceeds
    it, or when dim > 27 puts a beyond MAX_Q.
    """
    if not is_normal(g):
        raise NotNormalError("h* is computed for normal edge rings only")
    dim = edge_polytope(g).dim
    sides, _ = _layout(g)
    cost, budget = _shape_row_cost(g.d, sides, dim + 2), ROW_BUDGET
    if cost > budget:
        raise BudgetExceededError(
            f"enumeration of {cost} candidate rows exceeds the budget {budget}"
        )
    lattice, interior = _window_counts(g)
    low, high = _numerator(lattice, dim), _numerator(interior, dim)
    h: list[int | None] = [None] * (dim + 1)
    for i, x in [*enumerate(low), *((dim + 1 - k, x) for k, x in enumerate(high))]:
        want = h[i] if 0 <= i <= dim else 0
        if want is None:
            h[i] = x
        elif x != want:
            raise InvariantViolationError(
                f"window counts break Ehrhart reciprocity: h*_{i} reads {x} where the "
                f"other counts or dim = {dim} require {want}"
            )
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    if h[0] != 1:
        raise InvariantViolationError(f"h*_0 = {h[0]} != 1")
    if any(x < 0 for x in h):
        raise InvariantViolationError(f"negative h* entry in {tuple(h)}; contradicts normality")
    return tuple(h)


@dataclass(frozen=True)
class EhrhartProfile:
    """The normal route's record of one edge polytope: the interior threshold
    and s = dim P + 1 - threshold (the regularity) always, and h* when the
    window fits the row budget (None otherwise)."""

    min_interior_q: int
    h_star: tuple[int, ...] | None
    s: int


def ehrhart_profile(g: Graph) -> EhrhartProfile:
    """Counting profile of a normal graph: the interior threshold always, and
    h* unless `h_star` refuses the window over the row budget, which is
    recorded as h_star = None.

    This is the one place where the two regularity routes meet: when the
    window runs, the h* degree is checked against the interior threshold.
    """
    p = edge_polytope(g)
    q_min = min_interior_q(g)  # raises NotNormalError for a non-normal graph
    s = p.dim + 1 - q_min
    try:
        h = h_star(g)
    except BudgetExceededError:
        return EhrhartProfile(q_min, None, s)
    if len(h) - 1 != s:
        raise InvariantViolationError(
            f"h* degree {len(h) - 1} != (dim+1) - interior threshold {s}"
        )
    return EhrhartProfile(q_min, h, s)
