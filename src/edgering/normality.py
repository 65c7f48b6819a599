"""Normality of the edge ring via the odd cycle condition.

The condition is checked over chordless odd cycles only: every odd cycle
contains a chordless one on a subset of its vertices, and requiring a
bridging edge for all disjoint chordless pairs is the standard reduction.
Tests cross-check this predicate against the integer-decomposition detector
on every small graph.

Both steps run on the graph's neighbour bitmasks (`graphs.neighbour_masks`):
the cycle search carries one mask of blocked vertices, and two cycles are
disjoint and unbridged when one's vertex mask misses the other's closed
neighbourhood.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (
    GRAPH_CACHE,
    Graph,
    NotConnectedError,
    is_bipartite,
    is_connected,
    mask_vertices,
    neighbour_masks,
    neighbourhood,
)


def chordless_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All chordless cycles, one representative per rotation/reflection class.

    Each cycle is reported as a vertex tuple starting at its minimum vertex,
    oriented so the second vertex is smaller than the last.

    A depth-first search from each start s grows chordless paths above s.
    It carries one mask, `blocked`: the vertices up to s, the path, and the
    neighbours of the path's internal vertices. The path's last vertex may
    go on to any neighbour outside it, which touches only its predecessor.
    """
    nb = neighbour_masks(g)
    cycles: list[tuple[int, ...]] = []

    def extend(path: list[int], blocked: int) -> None:
        start, last = 1 << path[0], path[-1]
        grow = nb[last] & ~blocked
        while grow:
            low = grow & -grow
            grow ^= low
            x = low.bit_length() - 1
            if nb[x] & start:
                if path[1] < x:
                    cycles.append((*path, x))
                # extending past x would leave the chord {s, x} in any larger cycle
                continue
            path.append(x)
            extend(path, blocked | low | nb[last])
            path.pop()

    for s in g.vertices():
        below = (2 << s) - 1
        for u in mask_vertices(nb[s] & ~below):
            extend([s, u], below | 1 << u)
    return sorted(cycles)


def enumerate_minimal_odd_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Chordless odd cycles of g, each reported once."""
    return [c for c in chordless_cycles(g) if len(c) % 2 == 1]


def satisfies_odd_cycle_condition(g: Graph) -> bool:
    """True iff every pair of vertex-disjoint chordless odd cycles is bridged by an edge.

    Cycle b is disjoint from cycle a and unbridged to it exactly when b's
    vertex mask misses a's closed neighbourhood."""
    if not is_connected(g):
        raise NotConnectedError("odd cycle condition is defined for connected graphs")
    nb = neighbour_masks(g)
    masks = [sum(1 << v for v in c) for c in enumerate_minimal_odd_cycles(g)]
    for a, ma in enumerate(masks):
        closed = ma | neighbourhood(nb, ma)
        if any(not mb & closed for mb in masks[a + 1:]):
            return False
    return True


@lru_cache(maxsize=GRAPH_CACHE)
def is_normal(g: Graph) -> bool:
    """Normality of the edge ring: bipartite graphs qualify outright,
    otherwise the odd cycle condition decides."""
    if not is_connected(g):
        raise NotConnectedError("normality is defined for connected graphs")
    if is_bipartite(g) is not None:
        return True
    return satisfies_odd_cycle_condition(g)
