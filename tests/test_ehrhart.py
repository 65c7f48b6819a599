import math

import numpy as np
import pytest

import edgering.ehrhart
from edgering.analysis import analyze, run_families, verify_theorem
from edgering.cli import main
from edgering.ehrhart import (
    BudgetExceededError,
    NotNormalError,
    _compositions,
    check_idp,
    ehrhart_polynomial_value,
    h_star,
    hilbert_function,
    idp_points,
    interior_count,
    interior_lattice_points,
    lattice_count,
    lattice_points,
    min_interior_q,
    window_row_cost,
)
from edgering.enumeration import connected_graphs
from edgering.graphs import (
    Graph,
    attach_path,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_bipartite,
    mask_vertices,
    path_graph,
    star_graph,
    two_triangles_path,
)
from edgering.matching import matching_number
from edgering.normality import is_normal
from edgering.polytope import InvariantViolationError, contains, edge_polytope
from edgering.toric import fibers
from oracles import (
    brute_window,
    hstar_from_counts,
    multidegree_classes,
    uncapped_compositions,
    unreduced_min_interior_q,
)


@pytest.fixture
def block_rows(monkeypatch):
    """Sets _BLOCK_ROWS for one test. The packed stacks are cached by shape,
    not by block size, so they are dropped before and after."""
    def set_rows(rows):
        monkeypatch.setattr(edgering.ehrhart, "_BLOCK_ROWS", rows)
        edgering.ehrhart._packed.cache_clear()
    yield set_rows
    edgering.ehrhart._packed.cache_clear()


def test_lattice_points_examples():
    assert lattice_points(complete_graph(3), 1) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert len(lattice_points(cycle_graph(4), 2)) == 9
    assert lattice_points(complete_graph(4), 0) == {(0, 0, 0, 0)}


def test_lattice_points_agree_with_contains():
    for g in [complete_graph(4), cycle_graph(6), star_graph(5), two_triangles_path(2)]:
        p = edge_polytope(g)
        for q in (1, 2, 3):
            pts = lattice_points(g, q)
            interior = interior_lattice_points(g, q)
            for pt in pts:
                assert contains(p, q, pt) in ("interior", "boundary")
            for pt in interior:
                assert contains(p, q, pt) == "interior"


def test_idp_points_examples():
    g = complete_graph(3)
    assert idp_points(g, 1) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert len(idp_points(g, 2)) == 6
    assert idp_points(g, 0) == {(0, 0, 0)}


def test_hilbert_function_closed_forms():
    k3 = complete_graph(3)
    c4 = cycle_graph(4)
    for q in range(7):
        assert hilbert_function(k3, q) == math.comb(q + 2, 2)
        assert hilbert_function(c4, q) == (q + 1) ** 2
    assert hilbert_function(two_triangles_path(2), 0) == 1


def test_monotone_sumset():
    for g in [complete_graph(4), two_triangles_path(2)]:
        for q in range(4):
            prev = idp_points(g, q)
            nxt = idp_points(g, q + 1)
            for pt in prev:
                for i, j in g.edges:
                    moved = list(pt)
                    moved[i - 1] += 1
                    moved[j - 1] += 1
                    assert tuple(moved) in nxt


def test_check_idp():
    assert check_idp(cycle_graph(4), 4)
    assert check_idp(complete_graph(4), 4)
    assert not check_idp(two_triangles_path(2), 4)


def test_nonnormal_hole_is_witnessed():
    g = two_triangles_path(2)
    gap = [
        q
        for q in range(1, 5)
        if len(lattice_points(g, q)) != hilbert_function(g, q)
    ]
    assert gap
    q = gap[0]
    missing = lattice_points(g, q) - idp_points(g, q)
    assert missing


def test_min_interior_q_examples():
    assert min_interior_q(complete_graph(3)) == 3
    assert min_interior_q(cycle_graph(4)) == 2
    for d in (4, 5):
        assert min_interior_q(star_graph(d)) == d - 1
    with pytest.raises(NotNormalError):
        min_interior_q(two_triangles_path(2))


def test_interior_search_beyond_the_window_bound(monkeypatch):
    # the interior search runs up to q = dim + 1 = 16, past the window's
    # MAX_Q, so the facet kernel's exactness bound must cover q = 16. star(17)
    # is scanned on its K2 core, once, and offset by its 15 stripped leaves;
    # the leafless K_{2,16} is scanned itself, up to q = 16
    assert edgering.ehrhart.MAX_Q < 16
    real_blocks = edgering.ehrhart._shape_blocks
    scanned = []

    def blocks(d, sides, q, lo):
        scanned.append((d, sides, q, lo))
        return real_blocks(d, sides, q, lo)

    monkeypatch.setattr(edgering.ehrhart, "_shape_blocks", blocks)
    assert min_interior_q(star_graph(17)) == 16
    assert scanned == [(2, (1, 1), 1, 1)]
    assert min_interior_q(complete_bipartite_graph(2, 16)) == 16
    assert scanned[-1] == (18, (2, 16), 16, 1)


def test_leaf_core():
    leaf_core = edgering.ehrhart._leaf_core
    for tree in (path_graph(7), star_graph(6), path_graph(3)):
        assert leaf_core(tree).bit_count() == 2
    assert mask_vertices(leaf_core(complete_graph(2))) == [1, 2]
    assert mask_vertices(leaf_core(cycle_graph(6))) == list(range(1, 7))
    assert mask_vertices(leaf_core(attach_path(complete_graph(4), 1, 2))) == [1, 2, 3, 4]


def test_min_interior_q_matches_unreduced_scan():
    # the pyramid reduction against the scan of G itself, on every normal
    # connected graph with at most 7 vertices and on leafy instances up to d = 13
    caterpillar = Graph.of(10, [(1, 2), (2, 3), (3, 4), (1, 5), (1, 6), (2, 7), (3, 8),
                               (4, 9), (4, 10)])
    leafy = [path_graph(n) for n in range(2, 14)] + [star_graph(d) for d in range(2, 13)]
    leafy += [attach_path(complete_graph(4), 1, k) for k in range(1, 7)]
    leafy += [attach_path(complete_bipartite_graph(3, 3), 1, k) for k in range(1, 6)]
    leafy.append(caterpillar)
    small = [g for n in range(2, 8) for g in connected_graphs(n) if is_normal(g)]
    for g in small + leafy:
        assert min_interior_q(g) == unreduced_min_interior_q(g), g


def test_cross_check_guards_the_reduced_route(monkeypatch, capsys):
    # a core one vertex too small gives a wrong threshold, which the h* degree
    # catches wherever the window runs
    real = edgering.ehrhart._leaf_core
    # kept & kept - 1 drops the least vertex of the core
    monkeypatch.setattr(edgering.ehrhart, "_leaf_core", lambda g: real(g) & real(g) - 1)
    with pytest.raises(InvariantViolationError):
        analyze(attach_path(complete_graph(4), 1, 2))
    assert main(["analyze", "--family", "attach_path(complete(4),1,2)"]) == 3
    assert "internal error: h* degree" in capsys.readouterr().err


def test_h_star_examples():
    assert h_star(complete_graph(3)) == (1,)
    assert h_star(cycle_graph(4)) == (1, 1)
    assert h_star(complete_graph(4)) == (1, 2, 1)
    assert h_star(complete_bipartite_graph(3, 3)) == (1, 4, 1)
    for d in (4, 5, 6):
        assert h_star(star_graph(d)) == (1,)
    with pytest.raises(NotNormalError):
        h_star(two_triangles_path(3))


def test_counts_window_consistency():
    # the h* polynomial reproduces the two spare window counts
    for g in [complete_graph(4), cycle_graph(5), complete_bipartite_graph(2, 3)]:
        p = edge_polytope(g)
        counts = [lattice_count(g, q) for q in range(p.dim + 3)]
        assert counts[0] == 1
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        h = h_star(g)
        for q in range(p.dim + 3):
            assert ehrhart_polynomial_value(h, p.dim, q) == counts[q]


def test_reciprocity():
    # interior counts equal the counting polynomial at negative arguments
    for g in [complete_graph(4), cycle_graph(4), complete_graph(3), star_graph(5)]:
        p = edge_polytope(g)
        h = h_star(g)
        for q in range(1, p.dim + 3):
            lhs = interior_count(g, q)
            rhs = (-1) ** p.dim * ehrhart_polynomial_value(h, p.dim, -q)
            assert lhs == rhs


def test_window_matches_brute_force_box_scan():
    # the homogenised facet kernel against exact per-facet tests, both point
    # sets and both counts, for every connected graph on at most 5 vertices.
    # The counts are Python ints, whose repr the window digest pins
    for n in range(2, 6):
        for g in connected_graphs(n):
            for q in range(1, edge_polytope(g).dim + 3):
                points, interior = brute_window(g, q)
                assert lattice_points(g, q) == points
                assert interior_lattice_points(g, q) == interior
                counts = lattice_count(g, q), interior_count(g, q)
                assert counts == (len(points), len(interior))
                assert all(type(c) is int for c in counts)


def test_origin_and_the_facetless_polytope():
    # 0P is the origin and has no interior point: the box at q = 0 is one zero
    # row, and the all-positive slice is empty. K2's P is one point with no
    # facet, so at q >= 1 its one lattice point is also interior
    for n in range(2, 6):
        for g in connected_graphs(n):
            assert lattice_count(g, 0) == 1
            assert interior_count(g, 0) == 0
            assert lattice_points(g, 0) == {(0,) * g.d}
            assert interior_lattice_points(g, 0) == set()
    k2 = complete_graph(2)
    assert edge_polytope(k2).dim == 0 and not edge_polytope(k2).facets()
    for q in (1, 2):
        assert (lattice_count(k2, q), interior_count(k2, q)) == (1, 1)
        assert lattice_points(k2, q) == interior_lattice_points(k2, q) == {(q, q)}


def test_inexact_facet_products_are_refused(monkeypatch, capsys):
    # with dilations up to 2**50, K8's facet values could leave the integers
    # float64 holds exactly; the facet matrix refuses them with
    # BudgetExceededError, not an assert that python -O drops, and the CLI
    # reports that as an exhausted budget (exit 4)
    monkeypatch.setattr(edgering.ehrhart, "MAX_Q", 2 ** 50)
    edgering.ehrhart._facet_matrix.cache_clear()
    try:
        with pytest.raises(BudgetExceededError, match="float64"):
            edgering.ehrhart._facet_matrix(complete_graph(8))
        assert main(["analyze", "--family", "complete(8)"]) == 4
        assert "not exact in float64" in capsys.readouterr().err
    finally:
        edgering.ehrhart._facet_matrix.cache_clear()


def test_reciprocity_failure_is_an_invariant_violation(monkeypatch):
    # C4 (d = 4, dim = 2) reads its interior counts from the slice at q = 2
    real = edgering.ehrhart._window_counts

    def counts(*view):
        lattice, interior = real(*view)
        return lattice, [c + (q == 2) for q, c in enumerate(interior)]

    monkeypatch.setattr(edgering.ehrhart, "_window_counts", counts)
    with pytest.raises(InvariantViolationError, match="reciprocity"):
        h_star(cycle_graph(4))


def test_regularity_examples():
    assert analyze(complete_graph(4)).reg == 2
    assert analyze(complete_bipartite_graph(3, 3)).reg == 2
    assert analyze(cycle_graph(4)).reg == 1
    assert analyze(complete_graph(2)).reg == 0
    # the normal route's reg is not read off a non-normal graph
    assert analyze(two_triangles_path(2)).reg is None


def test_regularity_formula_identity_small():
    for n in range(2, 7):
        for g in connected_graphs(n):
            if g.m == 0:
                continue
            if not is_normal(g):
                continue
            p = edge_polytope(g)
            s = analyze(g).reg
            assert s == p.dim + 1 - min_interior_q(g)
            assert s == len(h_star(g)) - 1


def test_profile():
    prof = analyze(cycle_graph(4))
    assert prof.h_star == (1, 1)
    assert prof.reg == 1
    assert prof.min_interior_q == 2


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(edgering.ehrhart, "ROW_BUDGET", 1000)
    g = complete_bipartite_graph(6, 6)
    with pytest.raises(BudgetExceededError):
        h_star(g)
    # the regularity fallback still answers via the interior threshold
    prof = analyze(g)
    assert prof.h_star is None
    assert (prof.min_interior_q, prof.reg) == (6, 5)


@pytest.mark.parametrize("g", [complete_bipartite_graph(3, 3), cycle_graph(5)], ids=["K33", "C5"])
def test_budget_boundary(monkeypatch, g):
    # h_star is the one place the row budget is read: a budget of exactly the
    # window's row cost admits h*, one row less refuses it
    cost = window_row_cost(g, edge_polytope(g).dim + 2)
    monkeypatch.setattr(edgering.ehrhart, "ROW_BUDGET", cost)
    assert analyze(g).h_star == h_star(g)
    monkeypatch.setattr(edgering.ehrhart, "ROW_BUDGET", cost - 1)
    assert analyze(g).h_star is None
    with pytest.raises(BudgetExceededError, match=f"^enumeration of {cost} candidate rows"):
        h_star(g)


def test_one_cross_check_site(monkeypatch, capsys):
    # an interior threshold one too high must be caught by `analyze`, where
    # the h* degree is compared with it, and so by every route that reports it
    real = edgering.ehrhart.min_interior_q
    monkeypatch.setattr(edgering.ehrhart, "min_interior_q", lambda g: real(g) + 1)
    with pytest.raises(InvariantViolationError, match="h\\* degree"):
        analyze(complete_graph(4))
    assert main(["analyze", "--family", "complete(4)"]) == 3
    assert "internal error: h* degree" in capsys.readouterr().err


def test_planted_counterexample_is_reported(monkeypatch, capsys):
    # the interior search starts at ceil(d/2), not at the bound's mu = d - mat,
    # so an interior point of qP at q = mu - 1 is looked at and, with the h*
    # window over the row budget, reported as a violation (exit 2). The plant
    # sits in the leafless K_{2,4}, which the search scans itself: mu = 4,
    # and the search starts at 3
    monkeypatch.setattr(edgering.ehrhart, "ROW_BUDGET", 0)
    k24 = complete_bipartite_graph(2, 4)
    mu = k24.d - matching_number(k24)
    assert (k24.d + 1) // 2 == mu - 1 == 3
    planted = np.ones((1, k24.d), dtype=np.int16)
    real_blocks = edgering.ehrhart._shape_blocks
    real_min = edgering.ehrhart._facet_min

    def blocks(d, sides, q, lo):
        yield from real_blocks(d, sides, q, lo)
        # K_{2,4} is the only leafless shape on 6 vertices with sides {2, 4}:
        # each vertex of the larger side needs both of the smaller
        if d == k24.d and sorted(sides or ()) == [2, 4] and (q, lo) == (mu - 1, 1):
            yield planted

    monkeypatch.setattr(edgering.ehrhart, "_shape_blocks", blocks)
    monkeypatch.setattr(edgering.ehrhart, "_facet_min",
                        lambda h, cand: np.ones(1) if cand is planted else real_min(h, cand))
    assert main(["verify-theorem", "--nmax", "6"]) == 2
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert line.startswith("violation: ")
    assert "'d': 6, 'edge_count': 8" in line and "'min_interior_q': 3" in line


@pytest.mark.parametrize("call", [lattice_points, interior_lattice_points, lattice_count,
                                  interior_count, idp_points, hilbert_function])
def test_negative_q_is_refused(call):
    with pytest.raises(ValueError, match="nonnegative"):
        call(complete_graph(4), -1)


@pytest.mark.parametrize("call", [lattice_count, interior_count, lattice_points,
                                  interior_lattice_points, idp_points, hilbert_function])
def test_q_over_max_is_refused(call):
    g = complete_graph(4)
    call(g, edgering.ehrhart.MAX_Q)
    with pytest.raises(BudgetExceededError, match="supported bound"):
        call(g, edgering.ehrhart.MAX_Q + 1)


@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(5), complete_bipartite_graph(2, 3),
                               path_graph(5)], ids=["K4", "C5", "K23", "P5"])
def test_blocked_window_matches_brute_force(block_rows, g):
    # seven-row blocks split every window, every count and every interior
    # search
    block_rows(7)
    for q in range(1, edge_polytope(g).dim + 3):
        points, interior = brute_window(g, q)
        assert lattice_points(g, q) == points
        assert interior_lattice_points(g, q) == interior
        assert lattice_count(g, q) == len(points)
        assert interior_count(g, q) == len(interior)
        # the lo = 1 slice is exactly the all-positive part of the lo = 0 rows
        sides = edgering.ehrhart._layout(g)[0]
        blocks = [list(edgering.ehrhart._shape_blocks(g.d, sides, q, lo)) for lo in (0, 1)]
        rows = [np.concatenate(b) for b in blocks]
        assert len(blocks[0]) > 1 or len(rows[0]) <= 7
        assert set(map(tuple, rows[1].tolist())) == {
            row for row in map(tuple, rows[0].tolist()) if min(row) >= 1}
        assert len(rows[1]) == len(set(map(tuple, rows[1].tolist())))


@pytest.mark.parametrize("rows", [edgering.ehrhart._BLOCK_ROWS, 7], ids=["real", "tiny"])
def test_restricted_interior_matches_full_enumeration(block_rows, rows):
    # the interior search scans only all-positive vectors; cross-check the
    # resulting threshold against the points of the whole box. Tiny blocks
    # split each search, bipartite or not, into many blocks.
    block_rows(rows)
    for g in [complete_graph(4), complete_graph(5), cycle_graph(6), star_graph(6),
              complete_bipartite_graph(2, 4), complete_bipartite_graph(3, 3), path_graph(7),
              cycle_graph(7), two_triangles_path(1)]:
        p = edge_polytope(g)
        q_min = min_interior_q(g)
        firsts = [q for q in range(1, p.dim + 2) if interior_lattice_points(g, q)]
        assert firsts and firsts[0] == q_min


@pytest.mark.parametrize("d", [16, 17, 19, 20])
def test_point_codes_fit_int64_or_raise(d):
    # base-16 codes of d coordinates up to 2 fit int64 for d <= 16 only
    for g in [path_graph(d), cycle_graph(d), attach_path(complete_graph(4), 1, d - 4)]:
        if d > 16:
            for call in (hilbert_function, idp_points, check_idp, fibers):
                with pytest.raises(BudgetExceededError, match="int64"):
                    call(g, 2)
            continue
        classes = multidegree_classes(g, 2)
        assert idp_points(g, 2) == set(classes)
        assert hilbert_function(g, 2) == len(classes)
        assert check_idp(g, 2)
        got = [(f.multidegree, list(f.monomials)) for f in fibers(g, 2)]
        assert got == sorted((k, v) for k, v in classes.items() if len(v) > 1)
    if d == 16:
        # at d = 16 the codes fit only while coordinates stay below 8
        with pytest.raises(BudgetExceededError, match="int64"):
            hilbert_function(path_graph(16), 8)


def test_half_window_matches_full_window():
    # h* from the split's lattice and slice counts plus reciprocity equals h*
    # read straight off the point counts of the whole box at q = 0..dim
    small = [g for n in range(2, 7) for g in connected_graphs(n) if is_normal(g)]
    larger = [cycle_graph(7), complete_graph(6), complete_bipartite_graph(3, 4), path_graph(8)]
    dims = set()
    for g in small + larger:
        dim = edge_polytope(g).dim
        dims.add(dim)
        counts = [len(lattice_points(g, q)) for q in range(dim + 1)]
        assert h_star(g) == hstar_from_counts(counts, dim), g
    assert {0, 1, 2, 3} <= dims  # K2, both parities of dim


def _window_dilations(d, dim):
    """The dilations (q, lo) h* reads on a graph of dim <= 15 on d vertices:
    the box at q = 0..3 and the all-positive slice at q = ceil(d/2)..dim."""
    return [(q, 0) for q in range(4)] + [(q, 1) for q in range((d + 1) // 2, dim + 1)]


@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(5), complete_bipartite_graph(3, 3),
                               cycle_graph(7)], ids=["K4", "C5", "K33", "C7"])
def test_h_star_counts_only_the_half_window(monkeypatch, g):
    # h* reads the box at q = 0..3 and the all-positive slice at
    # q = ceil(d/2)..dim, with 3 + dim + 1 - dim = 4 spare equations; the
    # enumerator builds exactly those dilations once per shape, and the
    # point route never runs
    asked, built = [], []
    real_counts, real_blocks = edgering.ehrhart._window_counts, edgering.ehrhart._shape_blocks

    def window_counts(*view):
        counts = real_counts(*view)
        asked.append(tuple(map(len, counts)))
        return counts

    def shape_blocks(d, sides, q, lo):
        built.append((q, lo))
        return real_blocks(d, sides, q, lo)

    def classified(graph, q):
        raise AssertionError("h* ran the point route")

    monkeypatch.setattr(edgering.ehrhart, "_window_counts", window_counts)
    monkeypatch.setattr(edgering.ehrhart, "_shape_blocks", shape_blocks)
    monkeypatch.setattr(edgering.ehrhart, "_lattice_classified", classified)
    edgering.ehrhart._packed.cache_clear()
    dim = edge_polytope(g).dim
    h_star(g)
    h_star(g)
    # lattice counts at q = 0..3, interior counts at q = 0..dim
    assert asked == [(4, dim + 1)] * 2
    assert built == _window_dilations(g.d, dim)


def _relabelled(g, perm):
    """g with vertex v renamed perm[v - 1]."""
    return Graph.of(g.d, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


# C6 as the cycle 1-3-2-4-5-6: sides {1, 2, 5} and {3, 4, 6}, so its layout
# moves columns
C6_RELABELLED = Graph.of(6, [(1, 3), (2, 3), (2, 4), (4, 5), (5, 6), (1, 6)])


def _single_faults():
    # every count up to dim + 2, read by h_star or not
    for name, g in [("C4", cycle_graph(4)), ("K4", complete_graph(4)),
                    ("K33", complete_bipartite_graph(3, 3)), ("C7", cycle_graph(7)),
                    ("C6r", C6_RELABELLED)]:
        top = edge_polytope(g).dim + 2
        for q in range(top + 1):
            yield pytest.param(g, 0, q, id=f"{name}-lattice-{q}")
        for q in range(1, top + 1):
            yield pytest.param(g, 1, q, id=f"{name}-interior-{q}")


@pytest.mark.parametrize("g, lo, fault_q", _single_faults())
def test_single_count_fault_breaks_reciprocity(monkeypatch, g, lo, fault_q):
    # a +1 fault in any count h_star reads breaks reciprocity; a fault in a
    # count it does not read leaves h* as it is. The fault is planted in the
    # window counts: the lattice count (lo = 0) or the interior count
    # (lo = 1) at q = fault_q. h* reads the lattice counts at q = 0..3 and
    # the interior counts at q = 0..dim, which are 0 where 2q < d
    expected = h_star(g)
    real = edgering.ehrhart._window_counts

    def counts(*view):
        window = real(*view)
        return tuple([c + (q == fault_q and i == lo) for q, c in enumerate(ends)]
                     for i, ends in enumerate(window))

    monkeypatch.setattr(edgering.ehrhart, "_window_counts", counts)
    if fault_q <= (edge_polytope(g).dim if lo else 3):
        with pytest.raises(InvariantViolationError, match="reciprocity"):
            h_star(g)
    else:
        assert h_star(g) == expected


def test_window_of_every_shape():
    # for every shape with d <= 15, bipartite or not: the window is (3, dim),
    # with 4 spare equations and both ends within MAX_Q, and the packed stack
    # has one column per row `_candidate_rows` gives for those dilations, or
    # is None where they do not fit one block
    rows = edgering.ehrhart._candidate_rows
    packed = 0
    for d in range(2, 16):
        shapes = [(None, d - 1)] if d >= 3 else []
        shapes += [((k, d - k), d - 2) for k in range(1, d // 2 + 1)]
        for sides, dim in shapes:
            a, b = edgering.ehrhart._window(d, sides)
            assert (a, b) == (3, dim) and a + b + 1 - dim == 4
            assert max(a, b) <= edgering.ehrhart.MAX_Q
            figure = sum(rows(d, sides, q, lo) for q, lo in _window_dilations(d, dim))
            stack = edgering.ehrhart._packed(d, sides)
            if figure > edgering.ehrhart._BLOCK_ROWS:
                assert stack is None, (d, sides)
                continue
            packed += 1
            assert stack[0].shape == (d, figure), (d, sides)
            assert len(stack[1]) == len(stack[2]) == figure
    edgering.ehrhart._packed.cache_clear()
    assert packed > 50


def test_h_star_is_refused_beyond_the_dilation_bound(monkeypatch):
    # with the row budget lifted, the window reaches dim = 27, where
    # a = b = MAX_Q = 15; at dim = 28, a would be 16, so h* is refused before
    # any candidate is built
    class Built(Exception):
        pass

    def shape_blocks(*args):
        raise Built

    monkeypatch.setattr(edgering.ehrhart, "ROW_BUDGET", 10 ** 40)
    monkeypatch.setattr(edgering.ehrhart, "_shape_blocks", shape_blocks)
    with pytest.raises(BudgetExceededError, match="supported bound"):
        h_star(path_graph(30))
    assert edgering.ehrhart._window(29, (15, 14)) == (15, 15)
    with pytest.raises(Built):
        h_star(path_graph(29))


def test_h_star_stacks_of_every_admitted_shape_fit_one_block():
    # every shape with dim >= 1 that the row budget admits to h*, bipartite
    # ones in both side orders, packs h*'s dilations into one cached stack:
    # under the default budget h* never streams
    admitted = []
    for d in range(3, 17):
        for sides, dim in [(None, d - 1), *(((k, d - k), d - 2) for k in range(1, d))]:
            if edgering.ehrhart._shape_row_cost(d, sides, dim + 2) > edgering.ehrhart.ROW_BUDGET:
                continue
            assert edgering.ehrhart._packed(d, sides) is not None, (d, sides)
            admitted.append((sum(edgering.ehrhart._candidate_rows(d, sides, q, lo)
                                 for q, lo in _window_dilations(d, dim)), d, sides))
    edgering.ehrhart._packed.cache_clear()
    assert len(admitted) == 61 and max(d for _, d, _ in admitted) == 13
    assert max(admitted, key=lambda shape: shape[0]) == (10_945, 9, None)


def test_compositions_match_uncapped_recursion():
    # keying the cache on min(cap, total) moves no row: every table equals
    # the recursion that keeps the cap as given, dtype and row order included
    for parts in range(7):
        for total in range(-1, 9):
            for cap in range(10):
                got = _compositions(total, parts, cap)
                want = uncapped_compositions(total, parts, cap)
                assert got.dtype == want.dtype and np.array_equal(got, want), (total, parts, cap)
    assert _compositions(3, 4, 3) is _compositions(3, 4, 9)


def test_composition_tables_of_the_sweeps_fit_the_bound():
    # the cache is bounded, and the tables of the families sweep and the
    # n <= 7 verification fit under the bound together, so neither run
    # rebuilds a table it has evicted
    cached = edgering.ehrhart._capped_compositions
    assert cached.cache_info().maxsize == edgering.ehrhart._COMPOSITION_TABLES < math.inf
    cached.cache_clear()
    run_families(4, 6)
    verify_theorem(7)
    info = cached.cache_info()
    assert info.hits > 0 and info.misses == info.currsize < info.maxsize


def _packed_count_graphs():
    small = [g for n in range(2, 7) for g in connected_graphs(n) if is_normal(g)]
    larger = [cycle_graph(7), complete_bipartite_graph(3, 4), path_graph(8)]
    rng = np.random.default_rng(7)
    relabelled = [C6_RELABELLED] + [
        _relabelled(g, [int(v) + 1 for v in rng.permutation(g.d)])
        for g in (complete_bipartite_graph(2, 3), complete_bipartite_graph(3, 4), path_graph(6),
                  cycle_graph(8), attach_path(complete_bipartite_graph(2, 2), 1, 3))
        for _ in range(2)
    ]
    return small + larger + relabelled


@pytest.mark.parametrize("rows", [edgering.ehrhart._BLOCK_ROWS, 50], ids=["real", "small"])
def test_packed_counts_match_per_dilation_counts(block_rows, rows):
    # h*'s window counts, and every single lattice and interior count up to
    # max(dim + 2, 3), against the points of the whole box in G's own
    # columns. At the real block size every window here is one packed stack;
    # with fifty-row blocks most windows stream, block by block and one
    # count at a time. The points are taken at the real block size
    wants = []
    for g in _packed_count_graphs():
        qs = range(max(edge_polytope(g).dim + 3, 4))
        lattice = [len(lattice_points(g, q)) for q in qs]
        interior = [len(interior_lattice_points(g, q)) for q in qs]
        wants.append((g, lattice, interior))
    block_rows(rows)
    streamed = 0
    for g, lattice, interior in wants:
        dim = edge_polytope(g).dim
        sides, _, h = edgering.ehrhart._layout(g)
        assert edgering.ehrhart._window_counts(g.d, sides, h) == (lattice[:4],
                                                                  interior[:dim + 1]), g
        assert [lattice_count(g, q) for q in range(len(lattice))] == lattice, g
        assert [interior_count(g, q) for q in range(len(interior))] == interior, g
        streamed += edgering.ehrhart._packed(g.d, edgering.ehrhart._layout(g)[0]) is None
    assert (streamed > 0) == (rows == 50)


def test_facet_products_stay_under_the_thread_bound(monkeypatch):
    # every product h @ x the kernel issues, over the h* of d = 8 graphs and
    # over cycle(11)'s interior search, has at most 2**18 multiply-adds; the
    # products of one h* cover its packed candidates once
    bound = 1 << 18
    products = []

    class Recorded(np.ndarray):
        def __matmul__(self, other):
            products.append((*self.shape, other.shape[1]))
            return np.asarray(self) @ other

    real = edgering.ehrhart._facet_matrix
    monkeypatch.setattr(edgering.ehrhart, "_facet_matrix", lambda g: real(g).view(Recorded))
    # the normal 8-vertex graph with the most facets, 29
    most = Graph.of(8, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 7), (3, 8), (4, 5), (4, 6),
                        (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)])
    issued = []
    for g in (most, complete_graph(8), complete_bipartite_graph(4, 4)):
        products.clear()
        h_star(g)
        issued.append(len(products))
        left = is_bipartite(g)
        sides = None if left is None else (left.bit_count(), g.d - left.bit_count())
        rows = sum(edgering.ehrhart._candidate_rows(g.d, sides, q, lo)
                   for q, lo in _window_dilations(g.d, edge_polytope(g).dim))
        assert sum(r for _, _, r in products) == rows
        assert all(f * d * r <= bound for f, d, r in products)
    # 29 facets * 8 columns * 3,806 candidates takes four products
    assert real(most).shape[0] == 29 and issued[0] == 4
    products.clear()
    assert min_interior_q(cycle_graph(11)) == 11
    assert len(products) > 100
    assert all(f * d * r <= bound for f, d, r in products)


def test_packed_stack_cache_is_bounded():
    # h* over every normal graph with n <= 7 passes through more shapes than
    # the stack cache holds; it keeps at most _PACKED_SHAPES stacks
    edgering.ehrhart._packed.cache_clear()
    for n in range(2, 8):
        for g in connected_graphs(n):
            if is_normal(g):
                h_star(g)
    info = edgering.ehrhart._packed.cache_info()
    assert info.maxsize == edgering.ehrhart._PACKED_SHAPES
    assert info.misses > info.maxsize >= info.currsize


def test_one_dilation_counts_leave_the_stack_cache_alone():
    # lattice_count and interior_count at q = 0..dim + 2, asked before each
    # h* (the window digest's pattern), stream past the stack cache, so h*
    # reads the same hits and misses as it does alone
    graphs = [g for n in range(2, 7) for g in connected_graphs(n) if is_normal(g)]
    infos = []
    for interleaved in (False, True):
        edgering.ehrhart._packed.cache_clear()
        for g in graphs:
            for q in range(edge_polytope(g).dim + 3) if interleaved else ():
                lattice_count(g, q)
                interior_count(g, q)
            h_star(g)
        infos.append(edgering.ehrhart._packed.cache_info())
    assert infos[0] == infos[1]
    assert infos[0].hits > 0


def _closed_form_cases():
    # K_n is the second hypersimplex: h*_1 = C(n, 2) - n and h*_i = C(n, 2i)
    # for i >= 2; K_{a,b} is a product of simplices: h*_i = C(a-1, i) C(b-1, i)
    for n in range(3, 13):
        h = [1, math.comb(n, 2) - n, *(math.comb(n, 2 * i) for i in range(2, n // 2 + 1))]
        while len(h) > 1 and h[-1] == 0:
            h.pop()
        yield complete_graph(n), tuple(h)
    for s in range(3, 16):
        for a in range(1, s // 2 + 1):
            b = s - a
            yield complete_bipartite_graph(a, b), tuple(
                math.comb(a - 1, i) * math.comb(b - 1, i) for i in range(a))


def test_h_star_matches_closed_forms_beyond_the_exhaustive_range(monkeypatch):
    # K_n through n = 12 and K_{a,b} through a + b = 15 with the budget
    # lifted; the windows over one block stream one dilation at a time
    monkeypatch.setattr(edgering.ehrhart, "ROW_BUDGET", 10**40)
    cases = list(_closed_form_cases())
    assert len(cases) == 65
    streamed = 0
    for g, want in cases:
        assert h_star(g) == want, g
        streamed += edgering.ehrhart._packed(g.d, edgering.ehrhart._layout(g)[0]) is None
    assert streamed > 0
