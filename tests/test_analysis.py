import importlib
import inspect
import pkgutil
import random

import pytest

import edgering.analysis
import edgering.ehrhart
from edgering.analysis import (
    CSV_HEADER,
    analyze,
    question5_sweep,
    run_families,
    verify_theorem,
)
from edgering.enumeration import MAX_N
from edgering.graphs import (
    GRAPH_CACHE,
    Graph,
    NotConnectedError,
    attach_path,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    two_triangles_path,
)
from edgering.matching import maximum_matching
from edgering.polytope import InvariantViolationError


def test_analyze_k3():
    r = analyze(complete_graph(3))
    assert (r.mat, r.mu, r.normal, r.reg) == (1, 2, True, 0)
    assert r.verdict == "holds"
    assert r.bound_used == 1
    assert r.cover_size == r.d - r.mat == r.mu


def test_analyze_c4():
    r = analyze(cycle_graph(4))
    assert (r.mat, r.mu, r.normal, r.reg) == (2, 2, True, 1)
    assert r.verdict == "holds"
    assert r.bound_used == 1  # bipartite bound mat - 1


def test_analyze_two_triangles():
    r = analyze(two_triangles_path(2), run_toric=True, toric_qmax=6)
    assert not r.normal
    assert r.mat == 3
    assert r.reg == 4
    assert r.verdict == "not-applicable"
    assert r.generator_profile is not None
    assert r.generator_profile.degrees == (5,)


def test_analyze_computes_one_maximum_matching():
    # mat and the edge cover are read off one matching
    maximum_matching.cache_clear()
    r = analyze(complete_bipartite_graph(3, 4))
    assert (r.mat, r.cover_size) == (3, 4)
    info = maximum_matching.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _graph_caches():
    """Every cached function of edgering whose first parameter is a Graph."""
    found = {}
    for info in pkgutil.iter_modules(edgering.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"edgering.{info.name}")
        for f in vars(module).values():
            if not hasattr(f, "cache_info"):
                continue
            params = list(inspect.signature(f.__wrapped__, eval_str=True).parameters.values())
            if params and params[0].annotation is Graph:
                found[f.__qualname__] = f
    return found


def test_every_per_graph_cache_holds_the_one_bound():
    caches = _graph_caches()
    assert sorted(caches) == sorted([
        "neighbour_masks", "is_bipartite", "is_normal", "edge_polytope",
        "_facet_matrix", "_idp_packed", "maximum_matching",
    ])
    assert all(f.cache_info().maxsize == GRAPH_CACHE for f in caches.values())


def test_verify_theorem_reads_each_fact_once_per_graph():
    # one DD, one facet matrix, one normality test and one matching per
    # graph, and no cache keeps more than GRAPH_CACHE of the graphs analysed
    caches = _graph_caches()
    for f in caches.values():
        f.cache_clear()
    result = verify_theorem(6)
    assert (result.checked, result.normal) == (142, 142)
    for name in ("edge_polytope", "_facet_matrix", "is_normal", "maximum_matching"):
        assert caches[name].cache_info().misses == 142, name
    assert all(f.cache_info().currsize <= GRAPH_CACHE for f in caches.values())


def test_analyze_nonnormal_without_toric_leaves_reg_unknown():
    r = analyze(two_triangles_path(2))
    assert r.reg is None
    assert r.verdict == "not-applicable"
    assert r.h_star is None


def test_analyze_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        analyze(Graph.of(4, [(1, 2), (3, 4)]))
    with pytest.raises(ValueError):
        analyze(Graph.of(1, []))


def test_analyze_hstar_disagreement_is_an_invariant_violation(monkeypatch):
    # K3 has regularity 0, so an h* vector of length 2 contradicts the threshold
    monkeypatch.setattr(edgering.ehrhart, "h_star", lambda g: (1, 1))
    with pytest.raises(InvariantViolationError):
        analyze(complete_graph(3))


def test_report_dict_shape():
    r = analyze(cycle_graph(4))
    d = r.to_dict()
    assert d["mu_identity"]["d_minus_mat"] == d["mu_identity"]["cover_size"]
    assert d["theorem"]["verdict"] == "holds"
    assert d["h_star"] == [1, 1]


def test_analyze_invariant_under_relabeling():
    # the normal graphs compare h*: relabelling moves the bipartition, and
    # with it the order in which the window enumerates its candidates
    rng = random.Random(12)
    fields = ("mat", "mu", "normal", "bipartite", "dim", "facet_count", "min_interior_q",
              "h_star", "reg", "verdict")
    for base in [two_triangles_path(2), complete_graph(5), complete_bipartite_graph(3, 4),
                 cycle_graph(6), attach_path(complete_graph(4), 1, 2)]:
        expected = analyze(base)
        for _ in range(5):
            perm = list(range(1, base.d + 1))
            rng.shuffle(perm)
            relabel = {v: perm[v - 1] for v in base.vertices()}
            g = Graph.of(base.d, [(relabel[i], relabel[j]) for i, j in base.edges])
            got = analyze(g)
            for f in fields:
                assert getattr(got, f) == getattr(expected, f), (base, f)


def test_verify_theorem_small():
    for n_max, checked in ((4, 1 + 2 + 6), (5, 1 + 2 + 6 + 21)):
        result = verify_theorem(n_max)
        assert result.violations == []
        # every connected graph on at most 5 vertices is normal
        assert (result.checked, result.normal) == (checked, checked)
    with pytest.raises(ValueError):
        verify_theorem(1)
    with pytest.raises(ValueError):
        verify_theorem(9)


def test_verify_theorem_k2_case():
    # the single-edge graph: bipartite, reg 0 <= mat - 1 = 0
    r = analyze(complete_graph(2))
    assert r.reg == 0 and r.bound_used == 0 and r.verdict == "holds"


def test_run_families_small():
    rows = run_families(2, 2)
    assert all(row.match for row in rows)
    by_family = {}
    for row in rows:
        by_family.setdefault(row.family, []).append(row)
    assert set(by_family) == {
        "complete_plus_path",
        "complete_bipartite_plus_path",
        "two_triangles_path",
    }
    csv = rows[0].csv_row()
    assert len(csv.split(",")) == len(CSV_HEADER.split(","))
    with pytest.raises(ValueError):
        run_families(1, 1)


def test_question5_examples():
    summary = question5_sweep(1, 4)
    assert summary["normal_max_reg"] == 0
    assert summary["scope"] == "empirical, bounded scope"
    summary = question5_sweep(2, 5)
    assert all(row.mat == 2 for row in summary["rows"])
    assert summary["graphs_with_mat_m"] == len(summary["rows"])


def test_question5_non_normal_branch():
    # six of the graphs are non-normal (all on 7 vertices); under the default
    # toric bound dim + 2 their largest principal regularity is 4
    summary = question5_sweep(3, 7)
    assert summary["graphs_with_mat_m"] == 925
    assert summary["normal_max_reg"] == 3
    assert summary["non_normal_principal_max_reg"] == 4
    assert summary["toric_skipped_over_budget"] == 0
    # degree 16 is over MAX_Q, so the budget aborts every non-normal graph
    summary = question5_sweep(3, 7, toric_qmax=16)
    assert summary["non_normal_principal_max_reg"] is None
    assert summary["toric_skipped_over_budget"] == 6


def test_vertex_limit_is_checked_before_enumerating(monkeypatch):
    def refuse(n):
        raise AssertionError(f"connected_graphs({n}) called for an out-of-range n_max")

    monkeypatch.setattr(edgering.analysis, "connected_graphs", refuse)
    for n_max in (1, MAX_N + 1):
        for run in (verify_theorem, lambda n: question5_sweep(1, n)):
            with pytest.raises(ValueError, match=f"^n_max must be between 2 and {MAX_N}$"):
                run(n_max)


def test_reports_deterministic_up_to_timing():
    a = analyze(two_triangles_path(2), run_toric=True, toric_qmax=6).to_dict()
    b = analyze(two_triangles_path(2), run_toric=True, toric_qmax=6).to_dict()
    a.pop("seconds")
    b.pop("seconds")
    assert a == b
    rows_a = [r.to_dict() for r in run_families(2, 1)]
    rows_b = [r.to_dict() for r in run_families(2, 1)]
    assert rows_a == rows_b


def test_question5_buckets_by_computed_mat():
    # two_triangles_path(1) has 6 vertices but matching number 3, so it must
    # appear in the m = 3 bucket and not in m = 2
    tt1 = two_triangles_path(1)
    in_m3 = question5_sweep(3, 6)
    def canonical_present(summary):
        from edgering.enumeration import canonical_bits, graph_to_bits
        want = canonical_bits(tt1.d, graph_to_bits(tt1))
        for row in summary["rows"]:
            if row.d != tt1.d:
                continue
            g = Graph.of(row.d, row.edges)
            if canonical_bits(g.d, graph_to_bits(g)) == want:
                return True
        return False
    assert canonical_present(in_m3)
    in_m2 = question5_sweep(2, 6)
    assert not canonical_present(in_m2)
