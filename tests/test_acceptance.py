"""End-to-end acceptance checks, one test per headline guarantee.

Each test carries an ``acceptance`` marker; the terminal summary prints
one PASS/FAIL line per criterion (see conftest.py).  Runtime budgets are
asserted inside the tests that construct anything nontrivial.
"""

import itertools
import random
import time

import pytest

from artinsplit import (
    DefiningGraph,
    bouquet,
    build_collapsed,
    build_family,
    certify,
    compute_splitting,
    connected_components,
    fiber_product,
    free_rank,
    is_admissible,
    is_immersion,
    monochrome_check,
    oppressive_set,
    oracle_almost_misdirected,
)
from artinsplit.defining_graph import all_labels_even, is_bipartite
from artinsplit.orientation import plus
from generators import (
    random_admissible_graph,
    random_bouquet_immersion,
    random_defining_graph,
    with_random_orientation,
)
from oracles import (
    GraphMap,
    is_degree_n_cover,
    named_cover,
    run_lengths,
    traces_word,
)


def triangle(labels):
    return DefiningGraph.build(
        ["a", "b", "c"],
        [
            ("a", "b", labels[0], "a"),
            ("b", "c", labels[1], "b"),
            ("a", "c", labels[2], "c"),
        ],
    )


def square(labels):
    return DefiningGraph.build(
        ["a", "b", "c", "d"],
        [
            ("a", "b", labels[0], "a"),
            ("b", "c", labels[1], "b"),
            ("c", "d", labels[2], "c"),
            ("a", "d", labels[3], "d"),
        ],
    )


# Criteria 2, 3 and 5 all run over the same random suite, so it is built
# once and cached, together with the level-graph families.
_suite: list = []
_families: list = []


def admissible_suite():
    if not _suite:
        rng = random.Random(20250825)
        _suite.extend(random_admissible_graph(rng) for _ in range(200))
    return _suite


def suite_families():
    if not _families:
        _families.extend(build_family(g) for g in admissible_suite())
    return _families


@pytest.mark.acceptance(label="01 triangle splittings are Amalgam(3,4,7)")
def test_criterion_01_triangle_splitting_ranks():
    t0 = time.perf_counter()
    for labels in itertools.product(range(3, 10), repeat=3):
        cert = compute_splitting(triangle(labels))
        assert cert.kind == "amalgam"
        assert (cert.rank_a, cert.rank_b, cert.rank_c) == (3, 4, 7)
        assert cert.index_c_in_b == 2
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(label="02 level graph ranks match the formulas")
def test_criterion_02_rank_formulas():
    t0 = time.perf_counter()
    suite = admissible_suite()
    families = suite_families()
    assert len(suite) >= 200
    for g, fam in zip(suite, families):
        nv, ne = len(g.vertices), len(g.edges)
        assert free_rank(fam.x0) == ne
        assert free_rank(fam.x_half) == 1 - nv + 2 * ne
        if len(connected_components(fam.x_quarter)) == 1:
            assert free_rank(fam.x_quarter) == 1 - 2 * nv + 4 * ne
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.acceptance(label="03 degree-2 cover and the two-component dichotomy")
def test_criterion_03_cover_and_components():
    for g, fam in zip(admissible_suite(), suite_families()):
        assert is_degree_n_cover(named_cover(fam), 2)
        splits_in_two = len(connected_components(fam.x_quarter)) == 2
        assert splits_in_two == (is_bipartite(g) and all_labels_even(g))


@pytest.mark.acceptance(label="04 admissibility agrees with the bounded cycle oracle")
def test_criterion_04_admissibility_oracle():
    rng = random.Random(777)
    checked = 0
    for _ in range(500):
        g = with_random_orientation(
            rng, random_defining_graph(rng, max_vertices=7, max_extra_edges=3)
        )
        verdict = is_admissible(g)
        witness = oracle_almost_misdirected(g, 10)
        assert verdict.admissible == (witness is None)
        checked += 1
    assert checked >= 500


@pytest.mark.acceptance(label="05 collapsed shapes per label and rho immersions")
def test_criterion_05_collapsed_segment_structure():
    for label in range(2, 13):
        tail = "a" if label >= 3 else None
        g = DefiningGraph.build(["a", "b"], [("a", "b", label, tail)])
        col = build_collapsed(g)
        color = g.edges[0].color
        comps = connected_components(col.graph)
        if label == 2:
            # two one-edge loops
            assert run_lengths(col.graph, color) == (1, 1)
            assert len(col.graph.edges) == 2
            assert all(e.tail == e.head for e in col.graph.edges)
            assert len(comps) == 2
        elif label % 2 == 1:
            # a single cycle of length 2m+1
            m = (label - 1) // 2
            assert run_lengths(col.graph, color) == (1, m, m)
            assert len(comps) == 1
            assert len(col.graph.edges) == label
            assert all(col.graph.valence(v) == 2 for v in col.graph.vertices)
        else:
            # two disjoint m-cycles
            m = label // 2
            assert run_lengths(col.graph, color) == (1, m - 1, m)
            assert len(comps) == 2
            assert sorted(len(c.edges) for c in comps) == [m, m]
            assert all(col.graph.valence(v) == 2 for v in col.graph.vertices)
    for g in admissible_suite():
        assert is_admissible(g).admissible
        assert is_immersion(build_collapsed(g).graph)


@pytest.mark.acceptance(label="06 all-threes triangle: degree-3 cover and F3 *_F7 F4")
def test_criterion_06_all_threes_triangle():
    t0 = time.perf_counter()
    g = triangle((3, 3, 3))
    xbar = build_collapsed(g).graph
    rho = GraphMap(
        xbar,
        bouquet({e.color for e in xbar.edges}),
        {v: "*" for v in xbar.vertices},
        {e.id: f"x0:{e.color}" for e in xbar.edges},
    )
    assert is_degree_n_cover(rho, 3)
    cert = compute_splitting(g)
    assert cert.kind == "amalgam"
    assert (cert.rank_a, cert.rank_b, cert.rank_c) == (3, 4, 7)
    assert cert.index_c_in_b == 2
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(label="07 fiber branching for labels (5,5,5) and (5,4,4)")
def test_criterion_07_fiber_product_shapes():
    t0 = time.perf_counter()

    col = build_collapsed(triangle((5, 5, 5)))
    fp = fiber_product(col.graph)
    branched = [i for i in fp.nontrivial_components() if fp.branching_vertices(i)]
    assert len(branched) == 2
    for i in branched:
        assert len(fp.branching_vertices(i)) == 3

    g = triangle((5, 4, 4))
    col = build_collapsed(g)
    fp = fiber_product(col.graph)
    # The hub of a color is the class of the collapsed lift, the vertex
    # the segment decomposition fans out from.  Pairing the odd hub with
    # each even hub, in both coordinate orders, gives four branching
    # vertices; they must share one component, and no other component
    # may branch more than once.
    hub = {e.color: col.old_class[plus(e.iota)] for e in g.edges}
    odd_color = next(e.color for e in g.edges if e.label % 2 == 1)
    expected = set()
    for e in g.edges:
        if e.label % 2 == 0:
            expected.add(f"{hub[odd_color]}|{hub[e.color]}")
            expected.add(f"{hub[e.color]}|{hub[odd_color]}")
    assert len(expected) == 4
    holders = [
        i
        for i in fp.nontrivial_components()
        if set(fp.branching_vertices(i)) == expected
    ]
    assert len(holders) == 1
    for i in fp.nontrivial_components():
        if i != holders[0]:
            assert len(fp.branching_vertices(i)) <= 1

    assert time.perf_counter() - t0 < 2.0


@pytest.mark.acceptance(label="08 monochrome dichotomy and a mixed bridged example")
def test_criterion_08_monochrome_dichotomy():
    t0 = time.perf_counter()
    for labels in itertools.combinations_with_replacement(range(4, 13), 3):
        col = build_collapsed(triangle(labels))
        verdict = monochrome_check(fiber_product(col.graph))
        low, mid, high = sorted(labels)
        # All-odd triples always keep mixed cycles: the fiber has two
        # components whose branching vertices pair hubs of different
        # colors.  With at least one even label every simple cycle is
        # monochrome, except for (odd, 4, 4) where the two four-cycles
        # are short enough to close up a mixed cycle through the odd hub.
        expected = any(l % 2 == 0 for l in labels) and not (
            low == 4 and mid == 4 and high % 2 == 1
        )
        assert verdict.all_monochrome == expected, labels

    # Two triangles joined by a bridge whose label is odd, with one
    # label-4 edge in each triangle: the bridge fiber keeps a mixed cycle.
    bridged = DefiningGraph.build(
        ["a", "b", "c", "d", "e", "f"],
        [
            ("a", "b", 4, "b"),
            ("a", "c", 3, "a"),
            ("b", "c", 3, "c"),
            ("c", "d", 5, "c"),
            ("d", "e", 3, "d"),
            ("d", "f", 3, "f"),
            ("e", "f", 4, "e"),
        ],
    )
    assert is_admissible(bridged).admissible
    col = build_collapsed(bridged)
    assert is_immersion(col.graph)
    fp = fiber_product(col.graph)
    verdict = monochrome_check(fp)
    assert not verdict.all_monochrome
    assert verdict.witness.is_simple_cycle()
    assert len(verdict.witness_colors()) >= 2
    idx = verdict.witness_component
    assert fp.classification[idx] == "cycle-bearing"
    assert idx not in fp.diagonal_components
    assert set(verdict.witness.vertices()) <= set(fp.components[idx].vertices)

    assert time.perf_counter() - t0 < 10.0


@pytest.mark.acceptance(label="09 oppressive sets: empty iff embedding, no word closes")
def test_criterion_09_oppressive_set_properties():
    rng = random.Random(4242)
    seen_empty = seen_nonempty = 0
    for _ in range(200):
        Y = random_bouquet_immersion(rng)
        y0 = min(Y.vertices)
        words = oppressive_set(Y, y0)
        # Y embeds in the bouquet: one vertex, no color on two edges
        colors = {e.color for e in Y.edges}
        embeds = len(Y.vertices) == 1 and len(colors) == len(Y.edges)
        assert (not words) == embeds
        for word in words:
            assert traces_word(Y, y0, word).outcome != "closes"
        if not words:
            seen_empty += 1
        else:
            seen_nonempty += 1
    assert seen_empty and seen_nonempty


@pytest.mark.acceptance(label="10 certifier verdict table with stable serialization")
def test_criterion_10_certifier_table():
    cases = [
        (triangle((4, 4, 4)), "ResiduallyFinite", "R4", "(2m+1, 4, 4)"),
        (triangle((5, 5, 5)), "ResiduallyFinite", "R4", "(2m+1, 4, 4)"),
        (triangle((3, 3, 3)), "ResiduallyFinite", "R3", "affine"),
        (triangle((5, 4, 4)), "SplitsOnly", "R7", "amalgam"),
        (square((4, 4, 4, 4)), "SplitsOnly", "R7", "amalgam"),
        (square((6, 6, 6, 6)), "ResiduallyFinite", "R5", "even"),
    ]
    for g, verdict, rule, fragment in cases:
        cert = certify(g)
        assert cert.verdict == verdict
        assert cert.rule == rule
        assert cert.citations
        assert any(fragment in c for c in cert.citations)
        assert cert.to_json() == certify(g).to_json()
