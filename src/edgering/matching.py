"""Maximum matching in general graphs and minimum edge covers.

The matching routine is an augmenting-path search with blossom contraction,
so it is exact on non-bipartite graphs. Covers are built by extending a
maximum matching with one pendant edge per unmatched vertex, which realizes
the identity |cover| = d - mat(G) for graphs without isolated vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .graphs import GRAPH_CACHE, Graph, InvariantViolationError, neighbour_masks


class IsolatedVertexError(ValueError):
    """No edge cover exists when some vertex has no incident edge."""


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges."""

    edges: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class EdgeCover:
    """A set of edges whose endpoints cover every vertex."""

    edges: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.edges)


def _augment_from(root: int, n: int, adj: list[list[int]], match: list[int]) -> bool:
    """Grow an alternating tree from `root`, contracting blossoms on the fly.

    Returns True when an augmenting path was found and the matching flipped.
    """
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_blossom = [False] * n
    in_queue[root] = True
    queue = deque([root])

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, stem: int, child: int) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # Odd cycle reached: contract the blossom down to its stem.
                stem = lowest_common_base(v, to)
                for i in range(n):
                    in_blossom[i] = False
                mark_path(v, stem, to)
                mark_path(to, stem, v)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not in_queue[i]:
                            in_queue[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # Augment along root..to.
                    u = to
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return True
                in_queue[match[to]] = True
                queue.append(match[to])
    return False


@lru_cache(maxsize=GRAPH_CACHE)
def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of g; ties broken deterministically."""
    n = g.d
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in g.edges:
        adj[i - 1].append(j - 1)
        adj[j - 1].append(i - 1)
    for lst in adj:
        lst.sort()
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            _augment_from(v, n, adj, match)
    pairs = frozenset(
        (v + 1, match[v] + 1) for v in range(n) if match[v] > v
    )
    return Matching(pairs)


def matching_number(g: Graph) -> int:
    return len(maximum_matching(g))


def min_edge_cover(g: Graph) -> EdgeCover:
    """A minimum edge cover: a maximum matching plus a pendant edge per exposed vertex."""
    nb = neighbour_masks(g)
    for v in g.vertices():
        if not nb[v]:
            raise IsolatedVertexError(f"vertex {v} is isolated, no edge cover exists")
    matched = maximum_matching(g)
    covered: set[int] = set()
    edges = set(matched.edges)
    for i, j in matched.edges:
        covered.update((i, j))
    for v in g.vertices():
        if v not in covered:
            u = (nb[v] & -nb[v]).bit_length() - 1  # the least neighbour
            edges.add((min(v, u), max(v, u)))
    cover = EdgeCover(frozenset(edges))
    if len(cover) != g.d - len(matched):
        raise InvariantViolationError("cover construction violated |cover| = d - mat")
    return cover

