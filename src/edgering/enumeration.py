"""Exhaustive enumeration of small connected graphs up to isomorphism.

Graphs on n vertices are generated by attaching vertex n to nonempty
neighborhoods S of every representative P on n - 1 vertices (every connected
graph has a non-cut vertex, so nothing is missed) and deduplicated by a
canonical form: the minimum adjacency code over vertex orderings compatible
with the stable color refinement. Two graphs receive the same code exactly
when they are isomorphic, because a code reconstructs its graph.

Orbit rule: only the S that are least (as bit masks) in their orbit under
Aut(P) are attached. A sigma in Aut(P), extended by n -> n, is an isomorphism
from P + S to P + sigma(S), so the pruned children have the same set of codes.
The kept children of a whole level are canonicalised in one batch.

Color refinement runs on a whole (K, n, n) stack of adjacency matrices. A
vertex's signature is its color followed by its neighbors' colors in
ascending order, padded with -1 for the non-neighbors; every entry is shifted
by 1 and the n + 1 digits are packed base 16 into an int64 (colors are below
n <= 8). A color class never spans two degrees, so signatures with the same
color carry the same number of pads, and the packed codes order exactly as
the tuples (color, sorted neighbor colors) do: ranking them within each graph
gives the ids of sorting its distinct signatures. Rounds stop once no
graph's partition splits; for a graph that settled earlier a further round
is the identity, so every graph gets the ids it would get alone.

One evaluator, `_codes`, gives the adjacency codes of a stack of graphs under
an array of vertex orderings. `_canonical_codes` takes their minimum over
the products of the color classes' permutations while there are at most
1536, else over all n! orderings, for the graphs of each class-size tuple
together in gathers of about 65,536 code rows; `canonical_bits` is its
one-row call. `_automorphisms` keeps the color-preserving permutations that
reproduce the graph's own code; the orbit rule reads them. All refuse n
outside 1..MAX_N with ValueError rather than build an n!-row table."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, permutations, product
from math import factorial

import numpy as np

from .graphs import Graph

MAX_N = 8
# the canonical form searches the color-class orderings while there are at
# most this many, all n! orderings otherwise: changing it changes every code
_ORDER_LIMIT = 1536
# bounds the adjacency entries per color-refinement block and the code rows
# per gather, so peak memory does not grow with the number of graphs
_BLOCK_ROWS = 1 << 16


@lru_cache(maxsize=None)
def edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    """Fixed bit order for vertex pairs (i < j), 0-based."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def graph_to_bits(g: Graph) -> int:
    slots = edge_slots(g.d)
    index = {pair: k for k, pair in enumerate(slots)}
    bits = 0
    for i, j in g.edges:
        bits |= 1 << index[(i - 1, j - 1)]
    return bits


def bits_to_graph(n: int, bits: int) -> Graph:
    slots = edge_slots(n)
    edges = [(i + 1, j + 1) for k, (i, j) in enumerate(slots) if bits >> k & 1]
    return Graph(n, tuple(edges))


def _check_n(n: int) -> None:
    if not (1 <= n <= MAX_N):
        raise ValueError(f"supported range is 1..{MAX_N} vertices")


@lru_cache(maxsize=None)
def _orderings(sizes: tuple[int, ...]) -> np.ndarray:
    """Every ordering of the positions 0..n-1, n = sum(sizes), that permutes
    each consecutive run of the given sizes within itself, one per row;
    sizes (n,) gives all n! orderings."""
    starts = accumulate(sizes, initial=0)
    runs = [permutations(range(a, a + size)) for a, size in zip(starts, sizes)]
    table = np.array([sum(pieces, ()) for pieces in product(*runs)], dtype=np.intp)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _slot_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, second, weight) of every edge slot: its two positions and 2**k."""
    pairs = np.array(edge_slots(n), dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1], 1 << np.arange(len(pairs), dtype=np.int64)


def _adjacency(n: int, bits: int) -> np.ndarray:
    """Boolean adjacency matrix of the graph `bits`; n outside 1..MAX_N is
    refused."""
    _check_n(n)
    first, second, weight = _slot_arrays(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[first, second] = adj[second, first] = (bits >> np.arange(len(weight))) & 1
    return adj


def _gather_index(orders: np.ndarray) -> np.ndarray:
    """Flat position i * n + j of the vertices at the positions of each edge
    slot (i, j), under each vertex ordering, one per row of orders."""
    n = orders.shape[1]
    first, second, _ = _slot_arrays(n)
    index = np.empty((len(orders), len(first)), dtype=np.intp)
    # column by column: an n! table needs no second (R, slots) temporary
    for k, (i, j) in enumerate(zip(first, second)):
        index[:, k] = orders[:, i] * n + orders[:, j]
    return index


def _codes(adj: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Adjacency code of each graph of a (G, n, n) stack under each of the R
    vertex orderings whose `_gather_index` is given, shape (G, R): bit k is
    set when the vertices at positions i < j, (i, j) = edge_slots(n)[k], are
    adjacent."""
    weight = _slot_arrays(adj.shape[1])[2]
    return np.einsum("grk,k->gr", adj.reshape(len(adj), -1)[:, index], weight)


def _dense_ranks(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each entry among the distinct values of its row, and each
    row's number of distinct values minus one."""
    order = np.argsort(codes, axis=1, kind="stable")
    ordered = np.take_along_axis(codes, order, axis=1)
    steps = np.zeros(codes.shape, dtype=np.int64)
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranked = np.cumsum(steps, axis=1)
    ranks = np.empty_like(ranked)
    np.put_along_axis(ranks, order, ranked, axis=1)
    return ranks, ranked[:, -1]


def _stable_colors(adj: np.ndarray) -> np.ndarray:
    """Stable color ids of each graph of a (K, n, n) stack, one row per graph:
    iterated neighbor-color refinement from the degrees."""
    n = adj.shape[1]
    place = 16 ** np.arange(n, -1, -1, dtype=np.int64)
    colors = adj.sum(axis=2, dtype=np.int64)
    _, classes = _dense_ranks(colors)
    while True:
        neighbors = np.where(adj, colors[:, None, :], -1)
        neighbors.sort(axis=2)
        signatures = np.concatenate([colors[:, :, None], neighbors], axis=2) + 1
        new, new_classes = _dense_ranks(signatures @ place)
        if np.array_equal(new_classes, classes):
            return new
        colors, classes = new, new_classes


def _color_sorted(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each graph of a (K, n, n) stack with its vertices in stable color
    order, ties by vertex index, and its color class sizes in color order,
    padded with zeros."""
    k, n, _ = adj.shape
    step = max(1, _BLOCK_ROWS // (n * n))
    colors = np.concatenate([_stable_colors(adj[a:a + step]) for a in range(0, k, step)])
    by_color = np.argsort(colors, axis=1, kind="stable")
    ordered = adj[np.arange(k)[:, None, None], by_color[:, :, None], by_color[:, None, :]]
    return ordered, (colors[:, :, None] == np.arange(n)).sum(axis=1, dtype=np.int8)


def _canonical_codes(adj: np.ndarray) -> np.ndarray:
    """Canonical code of each graph of a nonempty (K, n, n) stack."""
    k, n, _ = adj.shape
    _check_n(n)
    adj, class_sizes = _color_sorted(adj)
    factorials = np.array([factorial(size) for size in range(n + 1)])[class_sizes]
    # color classes too coarse to prune: search all n! orderings
    coarse = factorials.prod(axis=1) > _ORDER_LIMIT
    class_sizes[coarse] = 0
    class_sizes[coarse, 0] = n
    keys, group = np.unique(class_sizes, axis=0, return_inverse=True)
    group = group.reshape(-1)
    out = np.empty(k, dtype=np.int64)
    for j, key in enumerate(keys):
        index = _gather_index(_orderings(tuple(int(size) for size in key if size)))
        members = np.flatnonzero(group == j)
        step = max(1, _BLOCK_ROWS // len(index))
        for a in range(0, len(members), step):
            rows = members[a:a + step]
            out[rows] = _codes(adj[rows], index).min(axis=1)
    return out


def canonical_bits(n: int, bits: int) -> int:
    """Canonical adjacency code; equal codes mean isomorphic graphs."""
    return int(_canonical_codes(_adjacency(n, bits)[None])[0])


def _automorphisms(n: int, bits: int) -> np.ndarray:
    """Automorphisms of the graph `bits`, one per row mapping vertex i to
    row[i]. With the vertices in color order they are the rows of the color
    classes' ordering table that reproduce the code of row 0, the identity."""
    adj = _adjacency(n, bits)
    colors = _stable_colors(adj[None])[0]
    by_color = np.argsort(colors, kind="stable")
    table = _orderings(tuple(np.bincount(colors).tolist()))
    codes = _codes(adj[np.ix_(by_color, by_color)][None], _gather_index(table))[0]
    return by_color[table[codes == codes[0]]][:, np.argsort(by_color)]


@lru_cache(maxsize=None)
def connected_graph_bits(n: int) -> tuple[int, ...]:
    """Canonical codes of all connected graphs on exactly n vertices."""
    _check_n(n)
    if n == 1:
        return (0,)
    p = n - 1
    masks = np.arange(1, 1 << p)
    members = ((masks[:, None] >> np.arange(p)) & 1).astype(bool)
    parents, kept = [], []
    for bits in connected_graph_bits(p):
        # image of every neighborhood mask under every automorphism
        images = members @ (1 << _automorphisms(p, bits)).T
        kept.append(members[images.min(axis=1) == masks])
        parents.append(_adjacency(p, bits))
    kept_count = [len(keep) for keep in kept]
    children = np.zeros((sum(kept_count), n, n), dtype=bool)
    children[:, :p, :p] = np.repeat(parents, kept_count, axis=0)
    children[:, p, :p] = children[:, :p, p] = np.concatenate(kept)
    return tuple(sorted(set(_canonical_codes(children).tolist())))


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    return [bits_to_graph(n, bits) for bits in connected_graph_bits(n)]
