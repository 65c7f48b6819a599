import random
from hashlib import sha256
from itertools import permutations
from math import factorial

import numpy as np
import pytest

import edgering.enumeration
from edgering.enumeration import (
    MAX_N,
    _adjacency,
    _automorphisms,
    _canonical_codes,
    _stable_colors,
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
from oracles import (
    automorphism_count,
    brute_automorphisms,
    labeled_connected_count,
    stable_colors,
    unpruned_connected_graph_bits,
)


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
            _canonical_codes(np.zeros((1, n, n), dtype=bool))
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


def _random_bits(rng, n):
    density = rng.random()
    return sum(1 << k for k in range(len(edge_slots(n))) if rng.random() < density)


def _assert_colors_match_oracle(n, codes):
    # one batch per n: graphs that settle early must keep their ids while
    # the others refine further
    batch = _stable_colors(np.array([_adjacency(n, bits) for bits in codes]))
    assert [row.tolist() for row in batch] == [stable_colors(n, bits) for bits in codes]


def test_batch_colors_match_oracle_on_connected_graphs():
    for n in range(1, 8):
        _assert_colors_match_oracle(n, connected_graph_bits(n))


def test_batch_colors_match_oracle_on_random_graphs():
    rng = random.Random(15)
    for n in range(1, MAX_N + 1):
        # the empty graph and most sparse draws are disconnected
        codes = [0, (1 << len(edge_slots(n))) - 1] + [_random_bits(rng, n) for _ in range(200)]
        _assert_colors_match_oracle(n, codes)


def test_automorphisms_match_brute_force():
    rng = random.Random(16)
    for n in range(1, 7):
        for bits in list(connected_graph_bits(n)) + [_random_bits(rng, n) for _ in range(10)]:
            found = [tuple(row) for row in _automorphisms(n, bits).tolist()]
            assert len(found) == len(set(found))
            assert set(found) == brute_automorphisms(n, bits)


def test_orbit_representative_counts_are_pinned(monkeypatch):
    # children kept per level, summed over parents, against 3, 14, 90, 651
    # and 7,056 children without the orbit rule
    connected_graph_bits(7)
    kept = []
    canonical_codes = edgering.enumeration._canonical_codes

    def counting(adj):
        kept.append(len(adj))
        return canonical_codes(adj)

    monkeypatch.setattr(edgering.enumeration, "_canonical_codes", counting)
    for n in range(3, 8):
        assert connected_graph_bits.__wrapped__(n) == connected_graph_bits(n)
    assert kept == [2, 8, 44, 333, 3771]


def test_orbit_pruning_keeps_every_code():
    for n in range(1, 7):
        assert connected_graph_bits(n) == unpruned_connected_graph_bits(n)
