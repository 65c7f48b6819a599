"""Exhaustive enumeration of small connected graphs up to isomorphism.

Graphs on n vertices are generated by attaching vertex n to every nonempty
neighborhood of every representative on n - 1 vertices (every connected graph
has a non-cut vertex, so nothing is missed) and deduplicated by a canonical
form: the minimum adjacency code over vertex orderings compatible with the
stable color refinement. Two graphs receive the same code exactly when they
are isomorphic, because a code reconstructs its graph.

One evaluator, `_codes`, gives a graph's adjacency codes under a whole array
of vertex orderings. `canonical_bits` takes their minimum over the products
of the color classes' permutations while there are at most 1536, else over
all n! orderings; `automorphism_count` counts the color-preserving rows of
that n! table that reproduce the graph's code. Both refuse n outside
1..MAX_N with ValueError rather than build an n!-row table."""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, permutations, product
from math import factorial, prod

import numpy as np

from .graphs import Graph

MAX_N = 8
# canonical_bits searches the color-class orderings while there are at most
# this many, all n! orderings otherwise: changing it changes every code
_ORDER_LIMIT = 1536


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


def _adj_masks(n: int, bits: int) -> list[int]:
    masks = [0] * n
    for k, (i, j) in enumerate(edge_slots(n)):
        if bits >> k & 1:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def _stable_colors(n: int, masks: list[int]) -> list[int]:
    """Iterated neighbor-color refinement with canonical color ids."""
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


def _codes(n: int, bits: int, orders: np.ndarray) -> np.ndarray:
    """Adjacency code of the graph `bits` under each vertex ordering, one per
    row of orders: bit k is set when the vertices at positions i < j, (i, j) =
    edge_slots(n)[k], are adjacent."""
    first, second, weight = _slot_arrays(n)
    adj = np.zeros((n, n), dtype=np.int64)
    adj[first, second] = adj[second, first] = (bits >> np.arange(len(weight))) & 1
    return adj[orders[:, first], orders[:, second]] @ weight


def _colors(n: int, bits: int) -> list[int]:
    """Stable colors of the graph `bits`; n outside 1..MAX_N is refused."""
    if not (1 <= n <= MAX_N):
        raise ValueError(f"supported range is 1..{MAX_N} vertices")
    return _stable_colors(n, _adj_masks(n, bits))


@lru_cache(maxsize=1 << 20)
def canonical_bits(n: int, bits: int) -> int:
    """Canonical adjacency code; equal codes mean isomorphic graphs."""
    colors = _colors(n, bits)
    by_color = sorted(range(n), key=colors.__getitem__)
    sizes = tuple(colors.count(c) for c in sorted(set(colors)))
    if prod(factorial(size) for size in sizes) > _ORDER_LIMIT:
        # color classes too coarse to prune; search all n! orderings
        sizes = (n,)
    orders = np.array(by_color, dtype=np.intp)[_orderings(sizes)]
    return int(_codes(n, bits, orders).min())


@lru_cache(maxsize=None)
def connected_graph_bits(n: int) -> tuple[int, ...]:
    """Canonical codes of all connected graphs on exactly n vertices."""
    if not (1 <= n <= MAX_N):
        raise ValueError(f"supported range is 1..{MAX_N} vertices")
    if n == 1:
        return (0,)
    prev = connected_graph_bits(n - 1)
    prev_slot_count = len(edge_slots(n - 1))
    slots = edge_slots(n)
    index = {pair: k for k, pair in enumerate(slots)}
    # bits of the (n-1)-graph occupy the same slot order prefix only if the
    # slot enumeration nests; it does not, so remap explicitly
    remap = [index[(i, j)] for (i, j) in edge_slots(n - 1)]
    new_vertex_slots = [index[(i, n - 1)] for i in range(n - 1)]
    out: set[int] = set()
    for old in prev:
        base = 0
        for k in range(prev_slot_count):
            if old >> k & 1:
                base |= 1 << remap[k]
        for nb in range(1, 1 << (n - 1)):
            bits = base
            m = nb
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                bits |= 1 << new_vertex_slots[i]
            out.add(canonical_bits(n, bits))
    return tuple(sorted(out))


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    return [bits_to_graph(n, bits) for bits in connected_graph_bits(n)]


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group: the orderings among all n! that keep
    every vertex's stable color and reproduce the graph's own code."""
    n = g.d
    bits = graph_to_bits(g)
    colors = np.array(_colors(n, bits))
    table = _orderings((n,))
    keep = table[np.all(colors[table] == colors, axis=1)]
    return int(np.count_nonzero(_codes(n, bits, keep) == bits))
