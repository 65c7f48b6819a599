import math
import random

import pytest

from edgering.enumeration import connected_graphs
from edgering.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    star_graph,
    two_triangles_path,
)
from edgering.matching import (
    IsolatedVertexError,
    matching_number,
    maximum_matching,
    min_edge_cover,
)
from oracles import (
    brute_edge_cover_number,
    brute_matching_number,
    brute_matching_number_subsets,
    is_edge_cover,
    is_matching,
)


def test_examples():
    assert matching_number(complete_graph(3)) == 1
    assert matching_number(complete_graph(6)) == 3
    assert matching_number(path_graph(4)) == 2
    assert matching_number(complete_bipartite_graph(3, 3)) == 3
    assert matching_number(cycle_graph(4)) == 2
    for ell in range(1, 7):
        assert matching_number(two_triangles_path(ell)) == 2 + math.ceil(ell / 2)


def test_matching_is_valid_certificate():
    for g in [complete_graph(6), two_triangles_path(3), star_graph(6), cycle_graph(7)]:
        m = maximum_matching(g)
        assert is_matching(g, m.edges)


def test_blossom_vs_oracle_exhaustive_small():
    for n in range(2, 8):
        for g in connected_graphs(n):
            assert matching_number(g) == brute_matching_number(g)


def test_blossom_vs_oracle_random_d10():
    rng = random.Random(20240817)
    count = 0
    while count < 1000:
        d = rng.randint(2, 10)
        pool = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        edges = [e for e in pool if rng.random() < 0.35]
        g = Graph.of(d, edges)
        count += 1
        assert matching_number(g) == brute_matching_number(g)


def test_oracles_agree_on_tiny_graphs():
    # the subset-DP oracle itself is checked against literal subset search
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randint(2, 7)
        pool = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        edges = [e for e in pool if rng.random() < 0.35][:16]
        g = Graph.of(d, edges)
        assert brute_matching_number(g) == brute_matching_number_subsets(g)


def test_min_edge_cover_examples():
    assert len(min_edge_cover(complete_graph(3))) == 2
    assert len(min_edge_cover(cycle_graph(4))) == 2
    assert len(min_edge_cover(star_graph(4))) == 3


def test_gallai_identity_exhaustive():
    for n in range(2, 8):
        for g in connected_graphs(n):
            cover = min_edge_cover(g)
            assert is_edge_cover(g, cover.edges)
            assert len(cover) + matching_number(g) == g.d


def test_cover_matches_bruteforce_minimum():
    checked = 0
    for n in range(2, 7):
        for g in connected_graphs(n):
            if g.m > 14:
                continue
            checked += 1
            assert len(min_edge_cover(g)) == brute_edge_cover_number(g)
    assert checked > 100


def test_isolated_vertex_rejected():
    g = Graph.of(3, [(1, 2)])
    with pytest.raises(IsolatedVertexError):
        min_edge_cover(g)


def test_gallai_random_d10():
    rng = random.Random(99)
    done = 0
    while done < 200:
        d = rng.randint(2, 10)
        pool = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        edges = [e for e in pool if rng.random() < 0.5]
        g = Graph.of(d, edges)
        if not is_connected(g):
            continue
        done += 1
        assert len(min_edge_cover(g)) == g.d - matching_number(g)
