import copy
import pickle
import random

import pytest

import edgering.graphs
from edgering.graphs import (
    Graph,
    GraphParseError,
    attach_path,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    is_bipartite,
    is_connected,
    make_family,
    parse_graph,
    path_graph,
    render_graph,
    star_graph,
    two_triangles_path,
)
from oracles import adjacency, bfs_bipartition, bfs_components, has_odd_cycle


def test_parse_triangle():
    g = parse_graph("3 3\n1 2\n2 3\n1 3\n")
    assert g.d == 3
    assert g.edges == ((1, 2), (1, 3), (2, 3))


def test_parse_four_cycle():
    g = parse_graph("4 4\n1 2\n2 3\n3 4\n1 4\n")
    assert g == cycle_graph(4)


def test_parse_rejects_loop_with_line_number():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("2 1\n1 1\n")
    assert exc.value.line == 2


def test_parse_rejects_out_of_range():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("3 1\n1 5\n")
    assert exc.value.line == 2


def test_parse_rejects_reversed_and_malformed():
    with pytest.raises(GraphParseError):
        parse_graph("3 1\n2 1\n")
    with pytest.raises(GraphParseError):
        parse_graph("3 1\nfoo bar\n")
    with pytest.raises(GraphParseError):
        parse_graph("3 2\n1 2\n")
    with pytest.raises(GraphParseError):
        parse_graph("3 1\n1 2\n2 3\n")


def test_parse_collapses_duplicate_lines():
    g = parse_graph("3 3\n1 2\n1 2\n2 3\n")
    assert g.edges == ((1, 2), (2, 3))


def test_round_trip_random_graphs():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(1, 9)
        pool = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        edges = [e for e in pool if rng.random() < 0.4]
        g = Graph.of(d, edges)
        assert parse_graph(render_graph(g)) == g


def test_bipartite_examples():
    # the left side, as a vertex mask, holds each component's least vertex
    assert is_bipartite(cycle_graph(4)) == 1 << 1 | 1 << 3
    assert is_bipartite(complete_graph(3)) is None
    assert is_bipartite(star_graph(5)) == 1 << 1
    assert is_bipartite(Graph.of(4, [(2, 3)])) == 1 << 1 | 1 << 2 | 1 << 4


def test_bipartite_matches_odd_cycle_search_exhaustively():
    # every graph on up to 6 vertices, not only connected ones
    rng = random.Random(11)
    for d in range(1, 6):
        pool = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        for mask in range(1 << len(pool)):
            edges = [pool[k] for k in range(len(pool)) if mask >> k & 1]
            g = Graph.of(d, edges)
            assert (is_bipartite(g) is not None) == (not has_odd_cycle(g))
    for _ in range(100):
        d = rng.randint(6, 7)
        pool = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        edges = [e for e in pool if rng.random() < 0.4]
        g = Graph.of(d, edges)
        assert (is_bipartite(g) is not None) == (not has_odd_cycle(g))


def test_components():
    assert connected_components(complete_graph(2)) == [frozenset({1, 2})]
    assert connected_components(Graph.of(3, [])) == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]
    parts = connected_components(connected_components_probe())
    assert len(parts) == 2


def test_too_few_edges_is_not_connected_before_any_adjacency(monkeypatch):
    # d vertices need d - 1 edges to be connected; a huge vertex count with
    # few edges is refused before one mask per vertex is built
    def refuse(g):
        raise AssertionError("neighbour masks were built")

    monkeypatch.setattr(edgering.graphs, "neighbour_masks", refuse)
    assert is_connected(Graph(10**9, ())) is False
    assert is_connected(Graph(4, ((1, 2), (3, 4)))) is False


def k5_subgraphs():
    """Every edge subset of K5 on its 5 vertices, disconnected ones included,
    and a relabelled copy of each."""
    rng = random.Random(19)
    pool = complete_graph(5).edges
    for mask in range(1 << len(pool)):
        g = Graph.of(5, [pool[k] for k in range(len(pool)) if mask >> k & 1])
        perm = rng.sample(range(1, 6), 5)
        yield g
        yield Graph.of(5, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


def test_mask_queries_against_bfs_oracles():
    for g in k5_subgraphs():
        assert connected_components(g) == bfs_components(g)
        assert is_bipartite(g) == bfs_bipartition(g)
        assert is_connected(g) == (len(bfs_components(g)) == 1)


def test_graph_value_semantics():
    g = two_triangles_path(2)
    same = Graph.of(g.d, reversed(g.edges))
    assert same == g and same is not g and hash(same) == hash(g) == hash((g.d, g.edges))
    assert g != Graph.of(g.d, g.edges[1:]) and g != Graph(g.d + 1, g.edges)
    assert repr(Graph(3, ((1, 2),))) == "Graph(d=3, edges=((1, 2),))"
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert twin == g and hash(twin) == hash(g)
        assert {twin: 1}[g] == 1
    with pytest.raises(AttributeError):
        g.d = 4


def connected_components_probe() -> Graph:
    # two triangles joined by one bridge, bridge endpoints removed
    return Graph.of(4, [(1, 2), (3, 4)])


def test_components_cover_and_disjoint():
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(1, 8)
        pool = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        edges = [e for e in pool if rng.random() < 0.3]
        g = Graph.of(d, edges)
        parts = connected_components(g)
        seen: set[int] = set()
        for part in parts:
            assert not (seen & part)
            seen |= part
        assert seen == set(range(1, d + 1))


def test_families():
    assert complete_graph(4).m == 6
    assert complete_bipartite_graph(2, 2).m == 4
    assert is_bipartite(complete_bipartite_graph(2, 2)) is not None
    assert star_graph(4).edges == ((1, 2), (1, 3), (1, 4))
    assert path_graph(4).m == 3
    g = two_triangles_path(1)
    assert (g.d, g.m) == (6, 7)
    g = two_triangles_path(3)
    assert (g.d, g.m) == (8, 9)
    assert is_connected(g)
    g = attach_path(complete_graph(4), 1, 2)
    assert (g.d, g.m) == (6, 8)
    with pytest.raises(ValueError):
        attach_path(complete_graph(4), 9, 2)
    with pytest.raises(ValueError):
        two_triangles_path(0)


def test_two_triangles_structure():
    from itertools import combinations

    for ell in range(2, 6):
        g = two_triangles_path(ell)
        assert is_connected(g)
        assert is_bipartite(g) is None
        adj = adjacency(g)
        tri = [
            frozenset((a, b, c))
            for a, b, c in combinations(g.vertices(), 3)
            if b in adj[a] and c in adj[a] and c in adj[b]
        ]
        assert tri == [frozenset({1, 2, 3}), frozenset({4, 5, 6})]


def test_family_spec_parser():
    assert make_family("complete(4)") == complete_graph(4)
    assert make_family("complete_bipartite(2,3)") == complete_bipartite_graph(2, 3)
    assert make_family("two_triangles_path(2)") == two_triangles_path(2)
    assert make_family("attach_path(complete(4),1,2)") == attach_path(complete_graph(4), 1, 2)
    with pytest.raises(ValueError):
        make_family("hedgehog(4)")
    with pytest.raises(ValueError):
        make_family("complete(4")
