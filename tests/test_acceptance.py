"""Acceptance suite: every criterion runs at its exact, stated scope.

Each test prints one PASS line on success; all quantities are exact integers,
so there are no tolerances anywhere.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from edgering.analysis import run_families
from edgering.ehrhart import (
    _idp_packed,
    _lattice_classified,
    _pack,
    check_idp,
    ehrhart_profile,
    h_star,
    min_interior_q,
)
from edgering.enumeration import connected_graphs
from edgering.graphs import is_bipartite, two_triangles_path
from edgering.matching import matching_number, maximum_matching, min_edge_cover
from edgering.normality import is_normal
from edgering.polytope import edge_polytope, predicted_facets
from edgering.toric import minimal_generator_degrees
from oracles import brute_matching_number, hstar_from_counts, is_edge_cover, is_matching


@dataclass
class GraphFacts:
    d: int
    mat: int
    mu: int
    bipartite: bool
    normal: bool
    dim: int
    geo_counts: list[int]          # q = 1..dim+2
    idp_counts: list[int]
    interior_counts: list[int]
    interior_min_coords: list[int | None]
    sets_equal: list[bool]
    min_interior_q: int | None
    h_star: tuple[int, ...] | None
    reg: int | None


@pytest.fixture(scope="module")
def atlas():
    """Per-graph counting data for every connected graph on 2..7 vertices."""
    facts = []
    for n in range(2, 8):
        for g in connected_graphs(n):
            p = edge_polytope(g)
            window = p.dim + 2
            geo, ring, inter, mins, eq = [], [], [], [], []
            for q in range(1, window + 1):
                pts, strict = _lattice_classified(g, q)
                geo.append(len(pts))
                inter.append(int(strict.sum()))
                interior_pts = pts[strict]
                mins.append(int(interior_pts.min()) if len(interior_pts) else None)
                packed_geo = np.sort(_pack(pts))
                packed_ring = _idp_packed(g, q)
                ring.append(len(packed_ring))
                eq.append(
                    len(packed_geo) == len(packed_ring)
                    and bool(np.array_equal(packed_geo, packed_ring))
                )
            normal = is_normal(g)
            facts.append(
                GraphFacts(
                    d=g.d,
                    mat=matching_number(g),
                    mu=g.d - matching_number(g),
                    bipartite=is_bipartite(g) is not None,
                    normal=normal,
                    dim=p.dim,
                    geo_counts=geo,
                    idp_counts=ring,
                    interior_counts=inter,
                    interior_min_coords=mins,
                    sets_equal=eq,
                    min_interior_q=min_interior_q(g) if normal else None,
                    h_star=h_star(g) if normal else None,
                    reg=ehrhart_profile(g).s if normal else None,
                )
            )
    return facts


def test_criterion_1_theorem_exhaustive_n7(tmp_path):
    from edgering.cli import main

    out = tmp_path / "verify7.json"
    exit_code = main(["verify-theorem", "--nmax", "7", "--json", str(out)])
    assert exit_code == 0
    import json

    payload = json.loads(out.read_text())
    assert payload["violations"] == []
    assert payload["connected_graphs_checked"] == 1 + 2 + 6 + 21 + 112 + 853
    print("ACCEPTANCE 1 (bound holds on every normal connected graph, d <= 7): PASS")


def test_criterion_2_families():
    rows = run_families(3, 1)
    for row in rows:
        if row.family == "complete_plus_path":
            r, m = (int(x.split("=")[1]) for x in row.params.split(";"))
            assert row.report.reg == r, row
            assert row.report.mat == m, row
        elif row.family == "complete_bipartite_plus_path":
            r, m = (int(x.split("=")[1]) for x in row.params.split(";"))
            assert row.report.reg == r, row
            assert row.report.mat == m + 1, row
    swept = {(row.family, row.params) for row in rows}
    for r in (2, 3):
        for m in range(r, r + 3):
            assert ("complete_plus_path", f"r={r};m={m}") in swept
            assert ("complete_bipartite_plus_path", f"r={r};m={m}") in swept
    print("ACCEPTANCE 2 (path-extended families hit reg=r with mat=m / m+1, r in {2,3}): PASS")


def test_criterion_3_two_triangle_family():
    for ell in (1, 2, 3, 4):
        g = two_triangles_path(ell)
        # the bridged instance ell = 1 satisfies the odd cycle condition; the
        # family is non-normal from ell = 2 on
        assert is_normal(g) == (ell == 1)
        profile = minimal_generator_degrees(g, ell + 4)
        assert profile.degrees == (ell + 3,)
        assert profile.principal_reg == ell + 2
        assert matching_number(g) == 2 + math.ceil(ell / 2)
    print(
        "ACCEPTANCE 3 (two-triangle family: one generator of degree l+3, "
        "reg certificate l+2, mat 2+ceil(l/2), non-normal for l >= 2): PASS"
    )


def test_criterion_4_interior_positivity(atlas):
    checked = 0
    for f in atlas:
        if not f.normal:
            continue
        for q_idx, mn in enumerate(f.interior_min_coords):
            if f.interior_counts[q_idx] > 0:
                checked += 1
                assert mn is not None and mn >= 1, (f.d, q_idx + 1, mn)
    assert checked > 500
    print(
        f"ACCEPTANCE 4 (interior lattice points have all coordinates >= 1; "
        f"{checked} nonempty interiors over normal d <= 7): PASS"
    )


def test_criterion_5_interior_threshold_vs_cover_number(atlas):
    for f in atlas:
        if not f.normal:
            continue
        first = next(
            (q for q in range(1, f.dim + 3) if f.interior_counts[q - 1] > 0), None
        )
        assert first is not None
        # scanned from q = 1, so the cover-number lower bound is a real check
        assert first >= f.mu, (f.d, first, f.mu)
        assert f.min_interior_q == first
    print("ACCEPTANCE 5 (least interior dilation >= edge cover number d - mat): PASS")


def test_criterion_6_facet_oracle_equivalence():
    compared = 0
    for n in range(2, 7):
        for g in connected_graphs(n):
            if g.m == 0:
                continue
            compared += 1
            hull = {f.normal for f in edge_polytope(g).facets()}
            pred = {f.normal for f in predicted_facets(g)}
            assert hull == pred, g
    sample = connected_graphs(7)[::4]
    for g in sample:
        compared += 1
        hull = {f.normal for f in edge_polytope(g).facets()}
        pred = {f.normal for f in predicted_facets(g)}
        assert hull == pred, g
    print(
        f"ACCEPTANCE 6 (graph-predicted facets equal hull-computed facets on "
        f"{compared} graphs: all of d <= 6 plus a d = 7 sample): PASS"
    )


def test_criterion_7_regularity_formula_consistency(atlas):
    for f in atlas:
        if not f.normal:
            continue
        assert f.h_star is not None and f.min_interior_q is not None
        assert len(f.h_star) - 1 == (f.dim + 1) - f.min_interior_q, f
        assert f.reg == len(f.h_star) - 1
        for q in range(1, f.dim + 3):
            assert f.idp_counts[q - 1] == f.geo_counts[q - 1], (f.d, q)
    print(
        "ACCEPTANCE 7 (h* degree = dim + 1 - interior threshold; Hilbert "
        "function = lattice count through dim + 2): PASS"
    )


def test_criterion_7b_h_star_equals_the_full_window(atlas):
    # h* from the fixed window and reciprocity equals h* read straight off
    # the point counts of the whole box at q = 0..dim, on every normal graph
    checked = 0
    for f in atlas:
        if not f.normal:
            continue
        checked += 1
        assert f.h_star == hstar_from_counts([1, *f.geo_counts[:f.dim]], f.dim), f
    assert checked == 989
    print(f"ACCEPTANCE 7b (h* equals the full window's on {checked} normal graphs, d <= 7): PASS")


def test_criterion_8_matching_oracle_d8():
    checked = 0
    for n in range(2, 9):
        for g in connected_graphs(n):
            checked += 1
            m = maximum_matching(g)
            assert is_matching(g, m.edges)
            assert len(m) == brute_matching_number(g), g
            cover = min_edge_cover(g)
            assert is_edge_cover(g, cover.edges)
            assert len(cover) + len(m) == g.d, g
    assert checked == 1 + 2 + 6 + 21 + 112 + 853 + 11117
    print(
        f"ACCEPTANCE 8 (matching equals brute-force optimum and cover "
        f"certificates realize d - mat on {checked} graphs, d <= 8): PASS"
    )


def test_criterion_9_normality_iff_idp(atlas):
    normal_count = 0
    for f in atlas:
        all_equal = all(f.sets_equal)
        assert f.normal == all_equal, f
        normal_count += f.normal
    assert normal_count > 0 and normal_count < len(atlas)
    print(
        f"ACCEPTANCE 9 (odd-cycle normality matches integer decomposition "
        f"through dim + 2 on all {len(atlas)} graphs, d <= 7): PASS"
    )


def test_criterion_9b_check_idp_entrypoint_agrees(atlas):
    # the public check_idp wrapper reports the same verdicts on spot checks
    from edgering.graphs import complete_graph, cycle_graph

    assert check_idp(cycle_graph(4), 4)
    assert check_idp(complete_graph(4), 5)
    assert not check_idp(two_triangles_path(2), 4)
