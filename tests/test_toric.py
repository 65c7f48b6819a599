import math
import random

import numpy as np
import pytest

from edgering import toric
from edgering.analysis import analyze
from edgering.ehrhart import BudgetExceededError, _capped_compositions, hilbert_function
from edgering.enumeration import connected_graphs
from edgering.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    two_triangles_path,
)
from edgering.normality import is_normal
from edgering.polytope import edge_polytope
from edgering.toric import _common_variable, _components, fibers, minimal_generator_degrees
from oracles import fiber_components, fiber_generator_count, generator_count_oracle


def test_fibers_examples():
    assert fibers(complete_graph(3), 2) == []
    assert fibers(complete_graph(3), 4) == []
    fs = fibers(cycle_graph(4), 2)
    assert len(fs) == 1
    assert fs[0].multidegree == (1, 1, 1, 1)
    assert len(fs[0].monomials) == 2
    fs = fibers(two_triangles_path(1), 4)
    assert any(len(f) == 2 for f in fs)


def test_fiber_partition_identity():
    # fibers partition the degree-q monomials: sizes sum to C(m + q - 1, q),
    # and distinct multidegrees count the ring's Hilbert function
    for g in [cycle_graph(4), complete_graph(4), two_triangles_path(1)]:
        for q in (2, 3):
            multi = fibers(g, q)
            total = math.comb(g.m + q - 1, q)
            excess = sum(len(f) - 1 for f in multi)
            assert hilbert_function(g, q) + excess == total


def test_fiber_codes_are_exact():
    # exponent times weight 16**(i-1) + 16**(j-1) must be formed in int64: in
    # a narrower type the codes wrap silently and distinct fibers merge
    bridge = Graph.of(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (5, 8)])
    for g, q, narrow in [(complete_graph(4), 9, 2 ** 15), (bridge, 9, 2 ** 31)]:
        for level, _ in toric._levels(g, q):
            pass
        rows, codes, _ = toric._shared_fibers(level)
        expo = [[row.count(k) for k in range(g.m)] for row in toric._multisets(g.m, q, rows).tolist()]
        terms = [[e * (16 ** (i - 1) + 16 ** (j - 1)) for e, (i, j) in zip(row, g.edges)]
                 for row in expo]
        assert max(max(t) for t in terms) >= narrow
        assert codes.tolist() == [sum(t) for t in terms]


def test_levels_enumerate_each_multiset_once():
    # level q holds every degree-q edge multiset exactly once, and its
    # support bits are the edges it uses
    for g, q_max in [(cycle_graph(5), 4), (two_triangles_path(1), 3)]:
        for q, (codes, supp) in enumerate(toric._levels(g, q_max), 1):
            ks = toric._multisets(g.m, q, np.arange(len(codes)))
            assert len(codes) == math.comb(g.m + q - 1, q)
            assert len({tuple(row) for row in ks.tolist()}) == len(codes)
            assert (np.diff(ks, axis=1) >= 0).all()
            for row, bits in zip(ks.tolist(), supp.tolist()):
                assert {k for k in range(g.m) if bits[k // 64] >> (k % 64) & 1} == set(row)


def test_minimal_generator_degrees_examples():
    assert minimal_generator_degrees(cycle_graph(4), 4).degrees == (2,)
    assert minimal_generator_degrees(complete_graph(3), 4).degrees == ()
    assert minimal_generator_degrees(complete_graph(4), 4).degrees == (2, 2)


def test_edgeless_graph_has_no_generators():
    # with no edge variables the defining ideal is zero: no fiber, and no
    # generator at any degree
    g = Graph.of(3, [])
    assert minimal_generator_degrees(g, 3) == toric.GeneratorProfile((), 3)
    assert all(fibers(g, q) == [] for q in range(1, 4))


def test_two_triangle_family_generator_degrees():
    for ell in (1, 2, 3, 4):
        g = two_triangles_path(ell)
        prof = minimal_generator_degrees(g, ell + 4)
        assert prof.degrees == (ell + 3,)
        assert prof.complete_up_to == ell + 4


def test_principal_regularity():
    assert minimal_generator_degrees(two_triangles_path(2), 9).principal_reg == 4
    assert minimal_generator_degrees(cycle_graph(4), 6).principal_reg == 1
    assert minimal_generator_degrees(complete_graph(4), 4).principal_reg is None
    assert minimal_generator_degrees(complete_graph(3), 4).principal_reg is None


def _fiber_search_jobs():
    """Every non-normal connected graph with n <= 7 up to the q5 bound
    dim + 2, and the two-triangle family up to l + 4."""
    jobs = [(g, edge_polytope(g).dim + 2)
            for n in range(2, 8) for g in connected_graphs(n) if not is_normal(g)]
    assert len(jobs) == 6
    return jobs + [(two_triangles_path(ell), ell + 4) for ell in range(1, 6)]


def test_generator_counts_match_fiber_by_fiber_search():
    for g, q_max in _fiber_search_jobs():
        degrees = minimal_generator_degrees(g, q_max).degrees
        for q in range(2, q_max + 1):
            assert degrees.count(q) == fiber_generator_count(g, q), (g, q)


def test_fibers_with_a_common_variable_are_one_component():
    # the count links only fibers with no common edge variable; every fiber
    # it drops must be a single gcd component, checked by depth-first search
    dropped = kept = 0
    for g, q_max in _fiber_search_jobs():
        for q, (codes, supp) in enumerate(toric._levels(g, q_max), 1):
            rows, _, fiber = toric._shared_fibers(codes)
            common = _common_variable(supp[rows], fiber)
            ks = toric._multisets(g.m, q, rows)
            expo = np.zeros((len(rows), g.m), dtype=np.int64)
            np.add.at(expo, (np.arange(len(rows))[:, None], ks), 1)
            starts = np.flatnonzero(np.diff(fiber, prepend=0))
            ends = np.append(starts[1:], len(rows))
            for f in np.flatnonzero(common):
                assert fiber_components(expo[starts[f]:ends[f]]) == 1, (g, q, f)
            dropped += int(common.sum())
            kept += int((~common).sum())
    assert dropped > kept > 0


def test_chained_fiber_with_no_common_variable_counts_zero(monkeypatch):
    # one fiber u = x0 x1, v = x1 x2, w = x2 x3: no variable divides all
    # three, yet u - v - w joins them, so it adds no generator; the fiber
    # x0 x1, x0 x2 shares x0 and never reaches the components
    linked = []
    components = toric._components
    monkeypatch.setattr(toric, "_components", lambda a, b, n: linked.append(n) or components(a, b, n))
    codes = np.array([7, 7, 7, 8, 8])
    supp = np.array([[0b0011], [0b0110], [0b1100], [0b0011], [0b0101]], dtype=np.uint64)
    assert _common_variable(supp, np.array([1, 1, 1, 2, 2])).tolist() == [False, True]
    assert toric._generator_count(4, codes, supp) == 0
    # without v the chained fiber splits into two components: one generator
    assert toric._generator_count(4, codes[[0, 2, 3, 4]], supp[[0, 2, 3, 4]]) == 1
    assert linked == [3, 2]


def test_levels_with_nothing_to_link_count_zero(monkeypatch):
    linked = []
    monkeypatch.setattr(toric, "_components", lambda a, b, n: linked.append(n) or n)
    supp = np.array([[0b01], [0b10], [0b11]], dtype=np.uint64)
    # no two rows share a multidegree
    assert toric._generator_count(2, np.array([5, 1, 9]), supp) == 0
    # every fiber has a common variable
    assert toric._generator_count(2, np.array([4, 4, 4, 6, 6]), supp[[0, 2, 2, 1, 2]]) == 0
    assert linked == []


def test_generator_counts_of_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.seed(2019)
    @hypothesis.settings(max_examples=50, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 6))
        # a random spanning tree, then any further edges
        tree = {(data.draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
        rest = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in tree]
        extra = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
        g = Graph.of(n, sorted(tree | set(extra)))
        q_max = data.draw(st.integers(2, 5))
        degrees = minimal_generator_degrees(g, q_max).degrees
        for q in range(2, q_max + 1):
            assert degrees.count(q) == fiber_generator_count(g, q), (g, q)

    check()


def _shuffled_path(nodes, rng):
    order = list(nodes)
    rng.shuffle(order)
    return order[:-1], order[1:]


def test_components_of_a_path_shaped_chain():
    # monomials 0..n-1 each sharing a variable with the next in a shuffled
    # order, so the least label has to travel the whole chain
    rng = random.Random(3)
    for n in (2, 3, 17, 1024):
        a, b = _shuffled_path(range(n), rng)
        assert _components(np.array(a), np.array(b), n) == 1


def test_components_of_disjoint_pieces():
    rng = random.Random(5)
    nodes = list(range(600))
    rng.shuffle(nodes)
    sizes = (1, 1, 2, 5, 40, 97, 200, 254)
    a, b = [], []
    start = 0
    for size in sizes:
        piece = nodes[start:start + size]
        start += size
        pa, pb = _shuffled_path(piece, rng)
        # chords inside the piece change nothing
        a += pa + [rng.choice(piece) for _ in range(size // 3)]
        b += pb + [rng.choice(piece) for _ in range(size // 3)]
    assert start == 600
    assert _components(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), 600) == len(sizes)
    assert _components(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 7) == 7


def test_generator_counts_match_linear_algebra_oracle():
    cases = [
        (cycle_graph(4), 3),
        (complete_graph(4), 3),
        (Graph.of(4, [(1, 2), (1, 3), (2, 3), (1, 4)]), 3),
        (cycle_graph(5), 4),
    ]
    for g, q_hi in cases:
        prof = minimal_generator_degrees(g, q_hi)
        by_degree = {q: prof.degrees.count(q) for q in range(2, q_hi + 1)}
        for q in range(2, q_hi + 1):
            assert by_degree[q] == generator_count_oracle(g, q), (g, q)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        minimal_generator_degrees(complete_graph(7), 12, budget=1000)
    with pytest.raises(BudgetExceededError):
        fibers(complete_graph(7), 12)


def test_budget_refuses_before_counting_any_degree(monkeypatch):
    # K7 has 21 edges: degree 2 needs C(22, 2) = 231 multisets and degree 3
    # needs C(23, 3) = 1771; C4 at degree 16 needs only C(19, 16) = 969
    counted = []
    monkeypatch.setattr(toric, "_generator_count", lambda *level: counted.append(level) or 0)
    message = "degree 3 needs 1771 edge multisets, over the budget 1000"
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        minimal_generator_degrees(complete_graph(7), 12, budget=1000)
    with pytest.raises(BudgetExceededError, match="^degree 16 exceeds the supported bound 15$"):
        minimal_generator_degrees(cycle_graph(4), 16)
    assert counted == []


def test_code_overflow_names_the_first_failing_degree():
    # 17 vertices: base-16 codes leave int64 at every degree, and the message
    # names the first one counted, which analyze copies into its notes
    report = analyze(path_graph(17), run_toric=True, toric_qmax=3)
    assert report.generator_profile is None
    assert "toric analysis aborted: base-16 codes of 17 coordinates up to 2 do not fit in int64" \
        in report.notes
    with pytest.raises(BudgetExceededError, match="^base-16 codes of 16 coordinates up to 8 do not"):
        minimal_generator_degrees(path_graph(16), 9)


def test_support_bits_past_one_word():
    # K12 has 66 edge variables, two words of support bits
    g = complete_graph(12)
    assert g.m == 66
    degrees = minimal_generator_degrees(g, 3).degrees
    assert degrees.count(2) == fiber_generator_count(g, 2) == 990
    assert degrees.count(3) == fiber_generator_count(g, 3) == 0


def test_toric_route_builds_no_composition_tables():
    before = _capped_compositions.cache_info().currsize
    minimal_generator_degrees(two_triangles_path(3), 7)
    fibers(cycle_graph(6), 4)
    assert _capped_compositions.cache_info().currsize == before


def test_mat_vs_reg_gap_grows():
    # reg - mat = floor(ell / 2) along the two-triangle family
    for ell in (1, 2, 3, 4):
        g = two_triangles_path(ell)
        reg = minimal_generator_degrees(g, ell + 4).principal_reg
        from edgering.matching import matching_number

        assert reg - matching_number(g) == ell // 2
