"""Normality of the edge ring via the odd cycle condition.

The condition is checked over chordless odd cycles only: every odd cycle
contains a chordless one on a subset of its vertices, and requiring a
bridging edge for all disjoint chordless pairs is the standard reduction.
Tests cross-check this predicate against the integer-decomposition detector
on every small graph.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, NotConnectedError, adjacency, is_bipartite, is_connected


def chordless_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All chordless cycles, one representative per rotation/reflection class.

    Each cycle is reported as a vertex tuple starting at its minimum vertex,
    oriented so the second vertex is smaller than the last.
    """
    adj = adjacency(g)
    cycles: list[tuple[int, ...]] = []

    def extend(path: list[int], on_path: set[int]) -> None:
        s = path[0]
        last = path[-1]
        internal = path[1:-1]
        for x in sorted(adj[last]):
            if x <= s or x in on_path:
                continue
            # chordlessness: the new vertex may only touch its predecessor
            if any(x in adj[p] for p in internal):
                continue
            if s in adj[x]:
                if path[1] < x:
                    cycles.append(tuple(path) + (x,))
                # extending past x would leave the chord {s, x} in any larger cycle
                continue
            path.append(x)
            on_path.add(x)
            extend(path, on_path)
            path.pop()
            on_path.remove(x)

    for s in g.vertices():
        for u in sorted(adj[s]):
            if u > s:
                extend([s, u], {s, u})
    return sorted(cycles)


def enumerate_minimal_odd_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Chordless odd cycles of g, each reported once."""
    return [c for c in chordless_cycles(g) if len(c) % 2 == 1]


def satisfies_odd_cycle_condition(g: Graph) -> bool:
    """True iff every pair of vertex-disjoint chordless odd cycles is bridged by an edge."""
    if not is_connected(g):
        raise NotConnectedError("odd cycle condition is defined for connected graphs")
    cycles = enumerate_minimal_odd_cycles(g)
    adj = adjacency(g)
    for a in range(len(cycles)):
        ca = set(cycles[a])
        for b in range(a + 1, len(cycles)):
            cb = set(cycles[b])
            if ca & cb:
                continue
            if not any(u in adj[v] for v in ca for u in cb):
                return False
    return True


@lru_cache(maxsize=16384)
def is_normal(g: Graph) -> bool:
    """Normality of the edge ring: bipartite graphs qualify outright,
    otherwise the odd cycle condition decides."""
    if not is_connected(g):
        raise NotConnectedError("normality is defined for connected graphs")
    if is_bipartite(g) is not None:
        return True
    return satisfies_odd_cycle_condition(g)
