import pytest

from edgering.ehrhart import check_idp
from edgering.enumeration import connected_graphs
from edgering.graphs import (
    Graph,
    NotConnectedError,
    complete_graph,
    cycle_graph,
    star_graph,
    two_triangles_path,
)
from edgering.normality import (
    chordless_cycles,
    enumerate_minimal_odd_cycles,
    is_normal,
    satisfies_odd_cycle_condition,
)
from oracles import adjacency, all_cycles, pairwise_odd_cycle_condition


def test_odd_cycle_enumeration_examples():
    assert enumerate_minimal_odd_cycles(complete_graph(3)) == [(1, 2, 3)]
    assert enumerate_minimal_odd_cycles(cycle_graph(4)) == []
    assert enumerate_minimal_odd_cycles(two_triangles_path(2)) == [(1, 2, 3), (4, 5, 6)]


def test_chordless_cycles_against_filtered_all_cycles():
    # a cycle is chordless iff no non-consecutive pair is an edge
    def chordless(g, cyc):
        k = len(cyc)
        for a in range(k):
            for b in range(a + 1, k):
                consecutive = (b == a + 1) or (a == 0 and b == k - 1)
                if not consecutive and cyc[b] in adjacency(g)[cyc[a]]:
                    return False
        return True

    for n in range(3, 8):
        for g in connected_graphs(n):
            expected = sorted(c for c in all_cycles(g) if chordless(g, c))
            assert chordless_cycles(g) == expected


def test_odd_cycle_condition_against_pairwise_oracle():
    for n in range(1, 8):
        for g in connected_graphs(n):
            odd = enumerate_minimal_odd_cycles(g)
            assert satisfies_odd_cycle_condition(g) == pairwise_odd_cycle_condition(g, odd)


def test_odd_cycle_condition():
    assert satisfies_odd_cycle_condition(complete_graph(4))
    assert satisfies_odd_cycle_condition(cycle_graph(4))
    assert satisfies_odd_cycle_condition(two_triangles_path(1))
    for ell in range(2, 6):
        assert not satisfies_odd_cycle_condition(two_triangles_path(ell))


def test_is_normal_examples():
    assert is_normal(cycle_graph(4))
    assert is_normal(complete_graph(3))
    assert is_normal(star_graph(5))
    assert is_normal(two_triangles_path(1))
    assert not is_normal(two_triangles_path(2))


def test_bipartite_always_normal():
    for n in range(2, 7):
        for g in connected_graphs(n):
            from edgering.graphs import is_bipartite

            if is_bipartite(g) is not None:
                assert is_normal(g)


def test_disconnected_rejected():
    g = Graph.of(4, [(1, 2), (3, 4)])
    with pytest.raises(NotConnectedError):
        is_normal(g)
    with pytest.raises(NotConnectedError):
        satisfies_odd_cycle_condition(g)


def test_normality_agrees_with_idp_small():
    # the two independent normality detectors agree (d <= 6 here; d = 7 in
    # the acceptance suite)
    for n in range(2, 7):
        for g in connected_graphs(n):
            if g.m == 0:
                continue
            from edgering.polytope import edge_polytope

            dim = edge_polytope(g).dim
            assert is_normal(g) == check_idp(g, dim + 2)
