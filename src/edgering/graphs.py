"""Finite simple graphs on vertices 1..d: parsing, families, structure queries.

Graphs are immutable values; every operation in this module is pure, so
instances can be shared freely across workers. A `Graph` hashes its
`(d, edges)` once, when it is built, so the cached layers look it up at the
cost of reading one field.

Every structure query reads one form of the graph, `neighbour_masks(g)`: a
tuple of Python ints with bit v set in entry u when {u, v} is an edge (index
0 and bit 0 unused). A vertex set is a mask in the same bits, and so is a
bipartition: `is_bipartite` returns its left side. Components and
2-colorings are one layered flood fill, `coloured_components`, inside a
vertex mask, so callers can ask them of an induced subgraph without building
it; `is_connected` is a plain flood fill from vertex 1. No query builds a
second `Graph`.

Every cache keyed on a graph, here and in the layers above, holds
`GRAPH_CACHE` entries: an analysis re-reads its graph's facts only while it
runs, so a run keeps the last few graphs, not every graph it has analysed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

GRAPH_CACHE = 64


class GraphParseError(ValueError):
    """Malformed edge-list text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotConnectedError(ValueError):
    """Raised when an operation requires a connected graph."""


class InvariantViolationError(RuntimeError):
    """An internal cross-check failed; indicates a bug, never bad user input."""


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph: vertex set {1, ..., d}, sorted edge tuple."""

    d: int
    edges: tuple[tuple[int, int], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.d, self.edges)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(d: int, edges) -> "Graph":
        """Build a graph, normalizing edge order and dropping duplicates."""
        if d < 1:
            raise ValueError("vertex count must be at least 1")
        seen = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"loop edge ({i},{j}) is not allowed")
            if not (1 <= i <= d and 1 <= j <= d):
                raise ValueError(f"edge ({i},{j}) out of range 1..{d}")
            seen.add(_norm_edge(i, j))
        return Graph(d, tuple(sorted(seen)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.d + 1)


@lru_cache(maxsize=GRAPH_CACHE)
def neighbour_masks(g: Graph) -> tuple[int, ...]:
    """Neighbour bitmask of each vertex: bit v of entry u is set when {u, v}
    is an edge (index 0 and bit 0 unused)."""
    nb = [0] * (g.d + 1)
    for i, j in g.edges:
        nb[i] |= 1 << j
        nb[j] |= 1 << i
    return tuple(nb)


def vertex_mask(g: Graph) -> int:
    """The mask of the whole vertex set, bits 1..d."""
    return (1 << (g.d + 1)) - 2


def mask_vertices(mask: int) -> list[int]:
    """The vertices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def neighbourhood(nb: tuple[int, ...], mask: int) -> int:
    """The union of the neighbour masks of the vertices in mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= nb[low.bit_length() - 1]
        mask ^= low
    return out


def coloured_components(nb: tuple[int, ...], inside: int):
    """The components of the subgraph induced on the vertex mask `inside`,
    in order of least vertex, each as (component, left): left holds the even
    BFS layers from that least vertex, or is None when an edge joins two
    vertices of one layer, that is when the component has an odd cycle."""
    while inside:
        layer = seen = inside & -inside
        left, even, odd = 0, True, False
        while layer:
            if even:
                left |= layer
            grow = neighbourhood(nb, layer) & inside
            odd = odd or bool(grow & layer)
            layer = grow & ~seen
            seen |= layer
            even = not even
        yield seen, None if odd else left
        inside &= ~seen


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: first line "d m", then m lines "i j" with i < j.

    Duplicate edge lines collapse to one edge. Loops, out-of-range indices and
    malformed lines are rejected with their line number.
    """
    lines = text.splitlines()
    entries = [(no + 1, ln.strip()) for no, ln in enumerate(lines) if ln.strip()]
    if not entries:
        raise GraphParseError("empty input, expected header 'd m'", 1)
    head_no, head = entries[0]
    parts = head.split()
    if len(parts) != 2:
        raise GraphParseError(f"expected header 'd m', got {head!r}", head_no)
    try:
        d, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"non-integer header {head!r}", head_no) from None
    if d < 1:
        raise GraphParseError(f"vertex count {d} must be positive", head_no)
    if m < 0:
        raise GraphParseError(f"edge count {m} must be nonnegative", head_no)
    body = entries[1:]
    if len(body) < m:
        raise GraphParseError(f"expected {m} edge lines, found {len(body)}", len(lines) + 1)
    if len(body) > m:
        extra_no, extra = body[m]
        raise GraphParseError(f"unexpected extra line {extra!r}", extra_no)
    edges = set()
    for no, ln in body:
        toks = ln.split()
        if len(toks) != 2:
            raise GraphParseError(f"expected 'i j', got {ln!r}", no)
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(f"non-integer edge {ln!r}", no) from None
        if i == j:
            raise GraphParseError(f"loop edge ({i},{j})", no)
        if not (i < j):
            raise GraphParseError(f"edge ({i},{j}) must satisfy i < j", no)
        if not (1 <= i and j <= d):
            raise GraphParseError(f"edge ({i},{j}) out of range 1..{d}", no)
        edges.add((i, j))
    return Graph(d, tuple(sorted(edges)))


def render_graph(g: Graph) -> str:
    """Inverse of parse_graph: the canonical edge-list text of a graph."""
    out = [f"{g.d} {g.m}"]
    out.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(out) + "\n"


@lru_cache(maxsize=GRAPH_CACHE)
def is_bipartite(g: Graph) -> int | None:
    """The vertex mask of the left side of a 2-coloring, or None when G has
    an odd cycle.

    Disconnected input is allowed; each component is colored with its minimum
    vertex on the left side, and sides are merged across components.
    """
    left = 0
    for _, part in coloured_components(neighbour_masks(g), vertex_mask(g)):
        if part is None:
            return None
        left |= part
    return left


def is_connected(g: Graph) -> bool:
    # a connected graph on d vertices has at least d - 1 edges; deciding that
    # first keeps a huge vertex count with few edges from allocating anything
    if g.m < g.d - 1:
        return False
    nb = neighbour_masks(g)
    seen = frontier = 1 << 1  # a flood fill from vertex 1
    while frontier:
        frontier = neighbourhood(nb, frontier) & ~seen
        seen |= frontier
    return seen == vertex_mask(g)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    return Graph(n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph with sides 1..a and a+1..a+b."""
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite(a,b) needs a, b >= 1")
    return Graph(a + b, tuple((i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle(n) needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph(n, tuple(sorted(edges)))


def path_graph(n: int) -> Graph:
    """Path on n vertices (n - 1 edges)."""
    if n < 1:
        raise ValueError("path(n) needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(1, n)))


def star_graph(d: int) -> Graph:
    """Star on d vertices: center 1: edges {1,2}, ..., {1,d}."""
    if d < 2:
        raise ValueError("star(d) needs d >= 2")
    return Graph(d, tuple((1, j) for j in range(2, d + 1)))


def attach_path(base: Graph, vertex: int, length: int) -> Graph:
    """Glue a path with `length` new edges (and `length` new vertices) at `vertex`."""
    if not (1 <= vertex <= base.d):
        raise ValueError(f"attachment vertex {vertex} not in 1..{base.d}")
    if length < 1:
        raise ValueError("attach_path needs length >= 1")
    d = base.d + length
    edges = list(base.edges)
    prev = vertex
    for k in range(base.d + 1, d + 1):
        edges.append(_norm_edge(prev, k))
        prev = k
    return Graph(d, tuple(sorted(edges)))


def two_triangles_path(ell: int) -> Graph:
    """Two disjoint triangles joined by a path with ell edges between them.

    Triangles {1,2,3} and {4,5,6}; the path runs from 3 to 4 through ell - 1
    fresh vertices, so the graph has 6 + ell - 1 vertices and 7 + ell - 1 edges.
    """
    if ell < 1:
        raise ValueError("two_triangles_path(ell) needs ell >= 1")
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    d = 6 + ell - 1
    chain = [3] + list(range(7, 7 + ell - 1)) + [4]
    for a, b in zip(chain, chain[1:]):
        edges.append(_norm_edge(a, b))
    return Graph(d, tuple(sorted(edges)))


def _split_args(body: str) -> list[str]:
    args: list[str] = []
    depth = 0
    cur = ""
    for ch in body:
        if ch == "," and depth == 0:
            args.append(cur.strip())
            cur = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur += ch
    if cur.strip():
        args.append(cur.strip())
    return args


def make_family(spec: str) -> Graph:
    """Build a graph from a family spec string.

    Accepted forms: complete(n), complete_bipartite(a,b), cycle(n), path(n),
    star(d), two_triangles_path(l), attach_path(base_spec, vertex, length).
    """
    spec = spec.strip()
    if not spec.endswith(")") or "(" not in spec:
        raise ValueError(f"bad family spec {spec!r}")
    name, body = spec.split("(", 1)
    name = name.strip()
    body = body[:-1]
    args = _split_args(body)
    simple = {
        "complete": (complete_graph, 1),
        "complete_bipartite": (complete_bipartite_graph, 2),
        "cycle": (cycle_graph, 1),
        "path": (path_graph, 1),
        "star": (star_graph, 1),
        "two_triangles_path": (two_triangles_path, 1),
    }
    if name in simple:
        fn, arity = simple[name]
        if len(args) != arity:
            raise ValueError(f"{name} expects {arity} argument(s), got {len(args)}")
        return fn(*(int(a) for a in args))
    if name == "attach_path":
        if len(args) != 3:
            raise ValueError("attach_path expects (base_spec, vertex, length)")
        return attach_path(make_family(args[0]), int(args[1]), int(args[2]))
    raise ValueError(f"unknown family {name!r}")
