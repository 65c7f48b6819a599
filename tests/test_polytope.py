import inspect
import random
from math import gcd

import pytest

import edgering.polytope
import output_digests
from edgering.cli import main
from edgering.enumeration import connected_graphs
from edgering.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    is_bipartite,
    is_connected,
    make_family,
    mask_vertices,
    neighbour_masks,
    path_graph,
    star_graph,
    two_triangles_path,
)
from edgering.ehrhart import lattice_points
from edgering.polytope import (
    InvariantViolationError,
    canonical_inequality,
    contains,
    edge_polytope,
    predicted_facets,
    primitive,
)
from oracles import (
    bruteforce_facets,
    caratheodory_member,
    frac_rank,
    reference_hull_facets,
    tight_vertices,
)


def test_vertices_and_dimension():
    p = edge_polytope(complete_graph(3))
    assert p.vertices == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert p.dim == 2
    assert edge_polytope(cycle_graph(4)).dim == 2
    assert edge_polytope(complete_graph(4)).dim == 3
    assert edge_polytope(complete_graph(2)).dim == 0


def test_hull_equations():
    p = edge_polytope(cycle_graph(4))
    assert (tuple([1, 1, 1, 1]), 2) in p.hull_equations
    assert ((1, 0, 1, 0), 1) in p.hull_equations
    p = edge_polytope(complete_graph(4))
    assert p.hull_equations == (((1, 1, 1, 1), 2),)


def test_facet_counts_on_known_polytopes():
    assert len(edge_polytope(complete_graph(3)).facets()) == 3
    assert len(edge_polytope(cycle_graph(4)).facets()) == 4
    # octahedron: 4 coordinate facets plus 4 "at most one" facets
    assert len(edge_polytope(complete_graph(4)).facets()) == 8
    for d in (4, 5, 6):
        assert len(edge_polytope(star_graph(d)).facets()) == d - 1
    assert edge_polytope(complete_graph(2)).facets() == ()


def test_k3_facets_cut_out_coordinate_caps():
    p = edge_polytope(complete_graph(3))
    expected = {
        canonical_inequality(p, normal, "x").normal
        for normal in [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    }
    assert {f.normal for f in p.facets()} == expected


def test_c4_facets_are_coordinate_halfspaces():
    p = edge_polytope(cycle_graph(4))
    expected = set()
    for i in range(4):
        normal = [0, 0, 0, 0]
        normal[i] = 1
        expected.add(canonical_inequality(p, normal, "x").normal)
    assert {f.normal for f in p.facets()} == expected


def test_every_vertex_satisfies_every_facet_and_tight_sets_are_ridges():
    for g in [complete_graph(4), cycle_graph(6), two_triangles_path(2), star_graph(5)]:
        p = edge_polytope(g)
        for f in p.facets():
            vals = [sum(a * x for a, x in zip(f.normal, v)) for v in p.vertices]
            assert all(v >= 0 for v in vals)
            tight = [p.vertices[k] for k, v in enumerate(vals) if v == 0]
            assert tight
            base = tight[0]
            diffs = [[a - b for a, b in zip(t, base)] for t in tight[1:]]
            assert frac_rank(diffs) == p.dim - 1


def test_predicted_examples():
    preds = predicted_facets(complete_graph(3))
    assert len(preds) == 3
    assert all(f.provenance.startswith("fundamental") for f in preds)
    preds = predicted_facets(cycle_graph(4))
    assert len(preds) == 4
    preds = predicted_facets(complete_graph(4))
    assert len(preds) == 8
    assert sum(1 for f in preds if f.provenance.startswith("coordinate")) == 4
    assert sum(1 for f in preds if f.provenance.startswith("fundamental")) == 4
    preds = predicted_facets(star_graph(5))
    assert len(preds) == 4
    assert all(f.provenance.startswith("coordinate") for f in preds)


def test_predicted_equals_hull_exhaustive_d5():
    for n in range(2, 6):
        for g in connected_graphs(n):
            if g.m == 0:
                continue
            hull = {f.normal for f in edge_polytope(g).facets()}
            pred = {f.normal for f in predicted_facets(g)}
            assert hull == pred, f"facet mismatch on {g}"


def test_predicted_facets_caches_nothing_beyond_its_graphs():
    # the subgraph queries run on the graph's own neighbour masks, so every
    # cache entry they could add is keyed on one of the graphs asked about
    graphs = [g for n in range(2, 7) for g in connected_graphs(n)]
    before = [f.cache_info().misses for f in (neighbour_masks, is_bipartite)]
    for g in graphs:
        predicted_facets(g)
    after = [f.cache_info().misses for f in (neighbour_masks, is_bipartite)]
    assert all(b - a <= len(graphs) for a, b in zip(before, after))


def test_predicted_equals_hull_beyond_digest_scope():
    # bipartite and non-bipartite graphs at d = 9..13, where the DD runs on
    # representatives modulo chi_L - chi_R for the bipartite ones
    for spec in [
        "complete_bipartite(6,6)",
        "complete_bipartite(2,9)",
        "attach_path(complete_bipartite(5,5),1,2)",
        "path(13)",
        "cycle(11)",
        "attach_path(complete(8),1,4)",
        "two_triangles_path(4)",
    ]:
        g = make_family(spec)
        hull = {f.normal for f in edge_polytope(g).facets()}
        assert hull == {f.normal for f in predicted_facets(g)}, spec


def test_hull_facets_reject_a_vanishing_ray(monkeypatch, capsys):
    # a planted fault: every combination the lift makes primitive comes out
    # 0, so a non-bipartite graph's rays, which become facets as they are,
    # include one that vanishes on every edge vector, and so does every
    # bipartite graph's shifted ray. Both branches stop `analyze` with exit 3
    monkeypatch.setattr(edgering.polytope, "primitive", lambda vec: tuple(0 for _ in vec))
    with pytest.raises(InvariantViolationError, match="vanishing ray"):
        edge_polytope.__wrapped__(complete_graph(4))
    for spec in ("cycle(4)", "complete_bipartite(2,3)", "complete(4)"):
        edge_polytope.cache_clear()
        assert main(["analyze", "--family", spec]) == 3, spec
        assert "vanishing ray" in capsys.readouterr().err, spec
    edge_polytope.cache_clear()


def _connected_sample(rng, d: int, count: int) -> list[Graph]:
    """`count` connected graphs on d vertices, each edge kept with one
    density drawn per graph from 0.25..0.8."""
    out = []
    while len(out) < count:
        p = rng.uniform(0.25, 0.8)
        g = Graph.of(d, [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)
                         if rng.random() < p])
        if g.m and is_connected(g):
            out.append(g)
    return out


def test_hull_facets_match_the_reference_dd():
    # the lift's facets, provenance and order included, equal those of the
    # DD loop as first written, run from the flood-fill basis cone: every
    # graph with n <= 7, a sample with n = 8, and beyond the exhaustive
    # range six families and a seeded sample with d = 10..12
    graphs = [g for n in range(2, 8) for g in connected_graphs(n)]
    graphs += random.Random(8).sample(connected_graphs(8), 400)
    graphs += [make_family(spec) for spec in (
        "complete(10)",
        "complete_bipartite(6,6)",
        "path(13)",
        "cycle(11)",
        "attach_path(complete(8),1,4)",
        "two_triangles_path(4)",
    )]
    rng = random.Random(10)
    graphs += [g for d in (10, 11, 12) for g in _connected_sample(rng, d, 4)]
    for g in graphs:
        assert edge_polytope(g).facets() == reference_hull_facets(g), g


def _mutate_lift(monkeypatch, *substitutions: tuple[str, str]) -> None:
    """Plant a fault: replace each (old, new) text in the source of the
    lift, `polytope._hull_facets`, which `edge_polytope` then calls."""
    source = inspect.getsource(edgering.polytope._hull_facets)
    for old, new in substitutions:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(edgering.polytope))
    exec(source, namespace)
    monkeypatch.setattr(edgering.polytope, "_hull_facets", namespace["_hull_facets"])


# one planted fault per certificate check of the lift: (name, graphs it
# reaches, the plant, the message of the check that refuses it)
LIFT_FAULTS = [
    ("old_ray_off_the_apex", ("K4", "C4"),
     lambda mp: _mutate_lift(mp, ("(*r[:b], -r[a], *r[b + 1:])", "(*r[:b], r[a], *r[b + 1:])")),
     "fails the certificate"),
    ("new_ray_negative", ("K4", "C4"),
     lambda mp: _mutate_lift(mp, ("new[b] = 1", "new[b] = -1")),
     "fails the certificate"),
    ("layers_miscoloured", ("K4", "C4"),
     lambda mp: _mutate_lift(mp, ("line[v - 1] = -line[u - 1]", "line[v - 1] = line[u - 1]")),
     "do not 2-colour"),
    ("odd_cycle_step_skipped", ("K4",),
     lambda mp: _mutate_lift(mp, ("elif not odd and", "elif odd and")),
     "cone of dimension"),
    ("bipartition_lost", ("C4",),
     lambda mp: mp.setattr(edgering.polytope, "is_bipartite", lambda g: None),
     "cone of dimension"),
    ("facet_twice", ("K4", "C4"),
     lambda mp: _mutate_lift(mp, ("rays.append(tuple(new))", "rays += [tuple(new)] * 2"),
                             ("+ [bit - 1]", "+ [bit - 1] * 2")),
     "facet twice"),
]
GRAPHS = {"K4": complete_graph(4), "C4": cycle_graph(4)}


@pytest.mark.parametrize(
    "plant, message, g",
    [(plant, message, GRAPHS[key]) for _, keys, plant, message in LIFT_FAULTS for key in keys],
    ids=[f"{key}-{name}" for name, keys, _, _ in LIFT_FAULTS for key in keys],
)
def test_lift_certificate_fails_closed(monkeypatch, plant, message, g):
    plant(monkeypatch)
    with pytest.raises(InvariantViolationError, match=message):
        edge_polytope.__wrapped__(g)


def test_failed_certificate_exits_3(monkeypatch, capsys):
    # every planted fault that reaches K4 stops `analyze` with exit 3
    for name, keys, plant, message in LIFT_FAULTS:
        if "K4" not in keys:
            continue
        with monkeypatch.context() as mp:
            plant(mp)
            edge_polytope.cache_clear()
            assert main(["analyze", "--family", "complete(4)"]) == 3, name
            assert message in capsys.readouterr().err, name
    edge_polytope.cache_clear()


def test_polytope_digests_equal_the_pinned_ones():
    # the facets and predicted lines of tests/output_digests.py
    names = ("facets", "predicted")
    walked = output_digests._graph_digests(names)
    assert walked == {name: output_digests.PINNED[name] for name in names}


def test_toric_and_families_digests_equal_the_pinned_ones():
    # the toric line pins `fibers`, whose multidegrees are decoded from
    # base-16 codes, the families line pins the two_triangles_path sweep, and
    # the interior line pins h* on bipartite graphs with d = 9..12 and the
    # instances over the row budget
    assert output_digests._toric_digest() == output_digests.PINNED["toric"]
    assert output_digests._families_digest() == output_digests.PINNED["families"]
    interior = (make_family(spec) for spec in output_digests.INTERIOR_SPECS)
    assert output_digests._analyze_digest(interior) == output_digests.PINNED["interior"]


def test_primitive():
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-4, 6, 0)) == (-2, 3, 0)
    assert primitive((3, -1)) == (3, -1)


def test_facets_match_bruteforce_candidate_hyperplanes():
    for g in [
        complete_graph(3),
        cycle_graph(4),
        Graph.of(4, [(1, 2), (1, 3), (2, 3), (1, 4)]),
        path_graph(5),
        star_graph(4),
        complete_graph(4),
    ]:
        p = edge_polytope(g)
        if p.dim < 2:
            continue
        expected = bruteforce_facets(list(p.vertices), p.dim)
        got = {frozenset(tight_vertices(p, f)) for f in p.facets()}
        assert got == expected


def test_contains_examples():
    k3 = edge_polytope(complete_graph(3))
    assert contains(k3, 3, (2, 2, 2)) == "interior"
    assert contains(k3, 2, (2, 1, 1)) == "boundary"
    assert contains(k3, 1, (3, 0, -1)) == "outside"
    c4 = edge_polytope(cycle_graph(4))
    assert contains(c4, 2, (1, 1, 1, 1)) == "interior"
    assert contains(c4, 1, (1, 1, 0, 0)) == "boundary"
    assert contains(c4, 2, (2, 2, 0, 0)) == "boundary"  # twice a vertex
    assert contains(c4, 2, (3, 1, -1, 1)) == "outside"
    with pytest.raises(ValueError):
        contains(c4, 2, (1, 1, 1))
    with pytest.raises(ValueError):
        contains(c4, 0, (0, 0, 0, 0))


def test_contains_agrees_with_caratheodory():
    cases = [
        (complete_graph(3), 2),
        (cycle_graph(4), 2),
        (Graph.of(4, [(1, 2), (1, 3), (2, 3), (1, 4)]), 3),
    ]
    rng = random.Random(1)
    for g, q in cases:
        p = edge_polytope(g)
        pts = list(lattice_points(g, q))
        probes = pts + [tuple(x + rng.choice([-1, 0, 1]) for x in pt) for pt in pts[:10]]
        for pt in probes:
            verdict = contains(p, q, pt)
            member = caratheodory_member(list(p.vertices), q, pt)
            assert (verdict in ("interior", "boundary")) == member


def test_star_slice_coordinate():
    # every lattice point of q * P(star) fixes the center coordinate to q
    for d in (4, 5):
        g = star_graph(d)
        for q in range(1, 5):
            for pt in lattice_points(g, q):
                assert pt[0] == q


def test_facets_deterministic_order():
    p1 = edge_polytope(complete_graph(4))
    keys = [f.normal for f in p1.facets()]
    assert keys == sorted(keys)


def test_canonical_inequality_identifies_equivalent_forms():
    p = edge_polytope(cycle_graph(4))
    # x1 <= 1, which reads (-1, 1, 1, 1).x >= 0 on sum x = 2, and x3 >= 0 are
    # the same facet: they differ by chi_L - chi_R with L = {1, 3}
    a = canonical_inequality(p, (-1, 1, 1, 1), "cap")
    b = canonical_inequality(p, (0, 0, 1, 0), "coord")
    assert a.normal == b.normal == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        canonical_inequality(p, (1, -1, 1, -1), "hull equation")


def test_facets_are_in_normal_form_d6():
    # criterion 6 compares two routes that share canonical_inequality, so the
    # canonical form itself is checked here: primitive, and for a bipartite
    # graph shifted until its minimum over the left side is 0
    for n in range(2, 7):
        for g in connected_graphs(n):
            left = is_bipartite(g)
            for f in edge_polytope(g).facets() + predicted_facets(g):
                assert gcd(*f.normal) == 1, (g, f)
                if left is not None:
                    assert min(f.normal[v - 1] for v in mask_vertices(left)) == 0, (g, f)


def test_facet_form_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    graphs = [g for n in range(3, 7) for g in connected_graphs(n)]

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        g = data.draw(st.sampled_from(graphs))
        p = edge_polytope(g)
        f = data.draw(st.sampled_from(p.facets()))
        # positive scaling, plus any multiple of chi_L - chi_R when bipartite
        left = is_bipartite(g)
        delta = [0] * g.d if left is None else [1 if left >> v & 1 else -1 for v in g.vertices()]
        c = data.draw(st.integers(1, 7))
        t = data.draw(st.integers(-9, 9))
        moved = [c * h + t * e for h, e in zip(f.normal, delta)]
        assert canonical_inequality(p, moved, "moved").normal == f.normal
        # relabelling vertex v as perm[v - 1] permutes the facet normals; a
        # bipartite graph may swap sides, so they are re-canonicalised
        perm = data.draw(st.permutations(range(1, g.d + 1)))
        g2 = Graph.of(g.d, [(perm[a - 1], perm[b - 1]) for a, b in g.edges])
        p2 = edge_polytope(g2)
        moved_facets = set()
        for h in p.facets():
            normal = [0] * g.d
            for v, x in zip(perm, h.normal):
                normal[v - 1] = x
            moved_facets.add(canonical_inequality(p2, normal, "relabelled").normal)
        assert moved_facets == {h.normal for h in p2.facets()}

    check()
