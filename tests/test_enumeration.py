import random
from hashlib import sha256
from itertools import permutations
from math import factorial

import pytest

import edgering.enumeration
from edgering.enumeration import (
    MAX_N,
    automorphism_count,
    bits_to_graph,
    canonical_bits,
    connected_graph_bits,
    connected_graphs,
    edge_slots,
    graph_to_bits,
)
from edgering.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
)
from oracles import labeled_connected_count


def test_counts_match_orbit_identity():
    # sum over representatives of n!/|Aut| must equal the labeled count from
    # the classical recurrence; this certifies completeness and no duplicates
    for n in range(1, 7):
        reps = connected_graphs(n)
        total = sum(factorial(n) // automorphism_count(g) for g in reps)
        assert total == labeled_connected_count(n)


def test_counts_match_orbit_identity_n7():
    reps = connected_graphs(7)
    assert len(reps) == 853
    total = sum(factorial(7) // automorphism_count(g) for g in reps)
    assert total == labeled_connected_count(7)


def test_all_reps_connected_and_canonical():
    for n in range(2, 7):
        for g in connected_graphs(n):
            assert is_connected(g)
            bits = graph_to_bits(g)
            assert canonical_bits(n, bits) == bits


def _relabeled(n, bits, perm):
    pool = edge_slots(n)
    index = {p: k for k, p in enumerate(pool)}
    permuted = 0
    for k, (i, j) in enumerate(pool):
        if bits >> k & 1:
            a, b = perm[i], perm[j]
            permuted |= 1 << index[(a, b) if a < b else (b, a)]
    return permuted


def test_canonical_invariant_under_relabeling():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(2, 7)
        bits = 0
        for k in range(len(edge_slots(n))):
            if rng.random() < 0.4:
                bits |= 1 << k
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_bits(n, bits) == canonical_bits(n, _relabeled(n, bits, perm))
    # regular graphs have one stable color class, so their canonical form is
    # searched over all n! orderings; random graphs almost never are
    for g in [cycle_graph(7), complete_graph(7), complete_bipartite_graph(4, 4)]:
        bits = graph_to_bits(g)
        for _ in range(5):
            perm = list(range(g.d))
            rng.shuffle(perm)
            assert canonical_bits(g.d, _relabeled(g.d, bits, perm)) == canonical_bits(g.d, bits)


def test_codes_and_automorphism_counts_are_pinned():
    # graph labels and the order of connected_graphs feed every report, so
    # the canonical codes and the automorphism counts must never change
    codes = repr([connected_graph_bits(n) for n in range(1, 8)])
    counts = repr([[automorphism_count(g) for g in connected_graphs(n)] for n in range(1, 8)])
    assert sha256(codes.encode()).hexdigest() == (
        "3ec2a2962b7056261e9ea9349d562723f01ff4e96bade06aaadf2e4b0b5ecadf"
    )
    assert sha256(counts.encode()).hexdigest() == (
        "edfb1a967ea607f396a2a5803a5e11f20014667111de0386249e1cd5e18cfd42"
    )


def test_out_of_range_n_is_refused_before_any_table(monkeypatch):
    def no_table(sizes):
        raise AssertionError(f"ordering table built for {sizes}")

    monkeypatch.setattr(edgering.enumeration, "_orderings", no_table)
    for n in (0, MAX_N + 1):
        with pytest.raises(ValueError, match="supported range"):
            canonical_bits(n, 0)
    with pytest.raises(ValueError, match="supported range"):
        automorphism_count(path_graph(MAX_N + 1))


def test_canonical_code_encodes_an_isomorphic_graph():
    # the code is an adjacency encoding of some relabeling of the input
    rng = random.Random(9)
    for _ in range(80):
        n = rng.randint(2, 6)
        pool = edge_slots(n)
        bits = 0
        for k in range(len(pool)):
            if rng.random() < 0.5:
                bits |= 1 << k
        g = bits_to_graph(n, bits)
        canon = bits_to_graph(n, canonical_bits(n, bits))
        assert canon.m == g.m
        found = False
        for perm in permutations(range(1, n + 1)):
            relabeled = frozenset(
                (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
                for i, j in g.edges
            )
            if relabeled == frozenset(canon.edges):
                found = True
                break
        assert found


def test_distinct_codes_separate_nonisomorphic_graphs():
    # path versus star on 4 vertices: same size, different structure
    p4 = Graph.of(4, [(1, 2), (2, 3), (3, 4)])
    s4 = Graph.of(4, [(1, 2), (1, 3), (1, 4)])
    assert canonical_bits(4, graph_to_bits(p4)) != canonical_bits(4, graph_to_bits(s4))


def test_known_small_counts():
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_bits_round_trip():
    g = Graph.of(5, [(1, 2), (2, 3), (4, 5)])
    assert bits_to_graph(5, graph_to_bits(g)) == g
