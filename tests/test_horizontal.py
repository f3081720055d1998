import random
from collections import Counter

import pytest
from artinsplit import (
    DefiningGraph,
    DisconnectedError,
    InadmissibleOrientation,
    InvalidDefiningGraph,
    build_collapsed,
    build_family,
    compute_splitting,
    connected_components,
    free_rank,
    is_admissible,
    is_immersion,
)
from generators import (
    LABELS,
    random_admissible_graph,
    random_defining_graph,
    with_random_orientation,
)
from oracles import (
    deck_involution_on_quarter,
    is_degree_n_cover,
    named_cover,
    run_lengths,
    splitting_on_named_graphs,
)


def single_edge(label, iota="a"):
    if label == 2:
        iota = None
    return DefiningGraph.build(["a", "b"], [("a", "b", label, iota)])


def triangle(labels=(3, 3, 3)):
    return DefiningGraph.build(
        ["a", "b", "c"],
        [
            ("a", "b", labels[0], "a"),
            ("b", "c", labels[1], "b"),
            ("a", "c", labels[2], "c"),
        ],
    )


SQUARE_EVEN = DefiningGraph.build(
    ["a", "b", "c", "d"],
    [
        ("a", "b", 4, "a"),
        ("b", "c", 4, "b"),
        ("c", "d", 4, "c"),
        ("a", "d", 6, "d"),
    ],
)


class TestFamily:
    def test_level_graph_sizes(self):
        g = triangle()
        fam = build_family(g)
        assert fam.x0.vertices == ("*",) and len(fam.x0.edges) == 3
        assert all(e.tail == e.head for e in fam.x0.edges)
        assert len(fam.x_half.vertices) == 3
        assert len(fam.x_half.edges) == 6
        assert len(fam.x_quarter.vertices) == 6
        assert len(fam.x_quarter.edges) == 12

    def test_quarter_edge_families(self):
        fam = build_family(single_edge(3))
        by_id = {e.id: e for e in fam.x_quarter.edges}
        # the d family preserves signs, the p family exchanges them
        assert (by_id["xq:a-b:d+"].tail, by_id["xq:a-b:d+"].head) == ("a+", "b+")
        assert (by_id["xq:a-b:p+"].tail, by_id["xq:a-b:p+"].head) == ("a+", "b-")

    def test_cover_is_degree_two(self):
        for g in (triangle(), SQUARE_EVEN, single_edge(2)):
            assert is_degree_n_cover(named_cover(build_family(g)), 2)

    def test_deck_involution_is_an_automorphism_over_the_cover(self):
        fam = build_family(triangle((4, 5, 6)))
        deck = deck_involution_on_quarter(fam)
        cover = named_cover(fam)
        assert is_degree_n_cover(deck, 1)  # bijective on stars
        for v in fam.x_quarter.vertices:
            assert deck.vertex_map[deck.vertex_map[v]] == v
            assert cover.vertex_map[deck.vertex_map[v]] == cover.vertex_map[v]
        for e in fam.x_quarter.edges:
            assert cover.edge_map[deck.edge_map[e.id]] == cover.edge_map[e.id]

    def test_component_dichotomy(self):
        assert len(connected_components(build_family(SQUARE_EVEN).x_quarter)) == 2
        assert len(connected_components(build_family(triangle()).x_quarter)) == 1
        # bipartite but one odd label: connected
        path = DefiningGraph.build(
            ["a", "b", "c"], [("a", "b", 4, "a"), ("b", "c", 5, "b")]
        )
        assert len(connected_components(build_family(path).x_quarter)) == 1

    def test_edge_lists_of_a_mixed_triangle(self):
        # a-b and a-c odd: the d pair keeps signs; b-c even: it repeats
        # the p pair
        fam = build_family(triangle((3, 4, 5)))

        def ends(graph):
            return [(e.id, e.tail, e.head, e.color) for e in graph.edges]

        assert ends(fam.x0) == [
            ("x0:a-b", "*", "*", "a-b"), ("x0:a-c", "*", "*", "a-c"),
            ("x0:b-c", "*", "*", "b-c"),
        ]
        assert ends(fam.x_half) == [
            (f"xh:{c}:{s}", c[0], c[2], c)
            for c in ("a-b", "a-c", "b-c") for s in "dp"
        ]
        assert ends(fam.x_quarter) == [
            ("xq:a-b:d+", "a+", "b+", "a-b"), ("xq:a-b:d-", "a-", "b-", "a-b"),
            ("xq:a-b:p+", "a+", "b-", "a-b"), ("xq:a-b:p-", "a-", "b+", "a-b"),
            ("xq:a-c:d+", "a+", "c+", "a-c"), ("xq:a-c:d-", "a-", "c-", "a-c"),
            ("xq:a-c:p+", "a+", "c-", "a-c"), ("xq:a-c:p-", "a-", "c+", "a-c"),
            ("xq:b-c:d+", "b+", "c-", "b-c"), ("xq:b-c:d-", "b-", "c+", "b-c"),
            ("xq:b-c:p+", "b+", "c-", "b-c"), ("xq:b-c:p-", "b-", "c+", "b-c"),
        ]
        cover = named_cover(fam)
        assert cover.vertex_map == {
            f"{v}{s}": v for v in "abc" for s in "+-"}
        assert cover.edge_map == {
            f"xq:{c}:{f}{s}": f"xh:{c}:{f}"
            for c in ("a-b", "a-c", "b-c") for f in "pd" for s in "+-"
        }

    def test_partial_orientation_is_enough(self):
        bare = DefiningGraph.build(["a", "b"], [("a", "b", 5, None)])
        fam = build_family(bare)  # level graphs do not need iota
        assert len(fam.x_quarter.edges) == 4


class TestCollapsed:
    def test_odd_label_gives_one_long_cycle(self):
        for label in (3, 5, 7):
            col = build_collapsed(single_edge(label))
            m = (label - 1) // 2
            assert run_lengths(col.graph, "a-b") == (1, m, m)
            comps = connected_components(col.graph)
            assert len(comps) == 1
            assert len(col.graph.edges) == label
            assert all(col.graph.valence(v) == 2 for v in col.graph.vertices)

    def test_even_label_gives_two_cycles(self):
        for label in (4, 6, 8):
            col = build_collapsed(single_edge(label))
            m = label // 2
            assert run_lengths(col.graph, "a-b") == (1, m - 1, m)
            comps = connected_components(col.graph)
            assert len(comps) == 2
            assert sorted(len(c.edges) for c in comps) == [m, m]
            assert all(col.graph.valence(v) == 2 for v in col.graph.vertices)

    def test_label_two_gives_two_loops(self):
        col = build_collapsed(single_edge(2))
        assert sorted(set(col.old_class.values())) == ["a+/b-", "a-/b+"]
        assert all(e.tail == e.head for e in col.graph.edges)
        assert len(col.graph.edges) == 2

    def test_class_names_merge_collapsed_lift(self):
        col = build_collapsed(single_edge(5))
        assert col.old_class["a+"] == "a+/b-"
        assert col.old_class["b-"] == "a+/b-"
        assert col.old_class["a-"] == "a-"

    def test_rho_immerses_when_admissible(self):
        g = triangle((5, 4, 4))
        assert is_admissible(g).admissible
        assert is_immersion(build_collapsed(g).graph)

    def test_rho_fails_to_immerse_when_inadmissible(self):
        bad = DefiningGraph.build(
            ["a", "b", "c"],
            [("a", "b", 3, "a"), ("b", "c", 3, "b"), ("a", "c", 3, "a")],
        )
        verdict = is_admissible(bad)
        assert not verdict.admissible
        assert verdict.witness is not None
        assert not is_immersion(build_collapsed(bad).graph)

    def test_immersion_does_not_decide_admissibility(self):
        # an admissible orientation always gives an immersion, but not
        # conversely, so the verdict comes from `is_admissible` alone: this
        # 4-cycle is inadmissible and its Xbar immerses
        square = DefiningGraph.build(
            ["v0", "v1", "v2", "v3"],
            [("v0", "v1", 2, None), ("v0", "v2", 5, "v2"),
             ("v1", "v3", 3, "v1"), ("v2", "v3", 4, "v2")],
        )
        assert not is_admissible(square).admissible
        assert is_immersion(build_collapsed(square).graph)
        rng = random.Random(41)
        seen = Counter()
        for _ in range(1000):
            g = with_random_orientation(
                rng, random_defining_graph(rng, max_vertices=6,
                                           max_extra_edges=3))
            seen[is_admissible(g).admissible,
                 is_immersion(build_collapsed(g).graph)] += 1
        assert seen[True, False] == 0
        assert seen[False, True] > 0 and seen[True, True] > 0

    def test_segments_tile_the_graph(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_admissible_graph(rng, max_vertices=5, max_extra_edges=2)
            col = build_collapsed(g)
            runs = {}
            for e in col.graph.edges:
                _, color, side, index = e.id.split(":")
                assert e.color == color
                runs.setdefault((color, side), {})[int(index[1:])] = e
            # each source edge of a color is subdivided into one directed
            # path, numbered e1, e2, ... along the flow
            for run in runs.values():
                assert sorted(run) == list(range(1, len(run) + 1))
                for i in range(1, len(run)):
                    assert run[i].head == run[i + 1].tail
            sides = Counter(color for color, _ in runs)
            for e in g.edges:
                assert sides[e.color] == (2 if e.label == 2 else 3)


class TestSplitting:
    def test_triangle_ranks(self):
        cert = compute_splitting(triangle())
        assert (cert.kind, cert.rank_a, cert.rank_b, cert.rank_c) == (
            "amalgam", 3, 4, 7,
        )
        assert cert.index_c_in_b == 2

    def test_even_square_is_hnn(self):
        cert = compute_splitting(SQUARE_EVEN)
        assert cert.kind == "hnn"
        assert (cert.rank_a, cert.rank_b) == (4, 5)
        assert cert.rank_c is None and cert.index_c_in_b is None

    def test_path_ranks(self):
        path = DefiningGraph.build(
            ["a", "b", "c"], [("a", "b", 3, "a"), ("b", "c", 4, "b")]
        )
        cert = compute_splitting(path)
        assert (cert.kind, cert.rank_a, cert.rank_b, cert.rank_c) == (
            "amalgam", 2, 2, 3,
        )

    def test_inadmissible_orientation_refused(self):
        bad = DefiningGraph.build(
            ["a", "b", "c"],
            [("a", "b", 3, "a"), ("b", "c", 3, "b"), ("a", "c", 3, "a")],
        )
        with pytest.raises(InadmissibleOrientation) as e:
            compute_splitting(bad)
        assert e.value.verdict.witness is not None

    def test_disconnected_refused(self):
        g = DefiningGraph.build(
            ["a", "b", "c", "d"],
            [("a", "b", 3, "a"), ("c", "d", 3, "c")],
        )
        with pytest.raises(DisconnectedError):
            compute_splitting(g)

    def test_partial_orientation_refused(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 3, None)])
        with pytest.raises(InvalidDefiningGraph):
            compute_splitting(g)

    def test_json_shape(self):
        amal = compute_splitting(triangle()).to_json_dict()
        assert amal == {
            "kind": "amalgam",
            "rank_a": 3,
            "rank_b": 4,
            "rank_c": 7,
            "index_c_in_b": 2,
        }
        hnn = compute_splitting(SQUARE_EVEN).to_json_dict()
        assert hnn == {"kind": "hnn", "rank_a": 4, "rank_b": 5}

    def test_amalgam_edge_group_doubles_the_half_rank(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_admissible_graph(rng, max_vertices=6, max_extra_edges=3)
            cert = compute_splitting(g)
            if cert.kind == "amalgam":
                assert cert.rank_c == 2 * cert.rank_b - 1
            else:
                assert cert.rank_c is None
        # x_quarter rank checks run inside compute_splitting as asserts

    def test_matches_the_string_graph_reference(self):
        # the integer cross-checks agree with the ones on build_family's
        # named graphs, with and without the admissibility verdict handed
        # in; every third graph has only even labels, for HNN cases
        rng = random.Random(23)
        kinds = Counter()
        for i in range(320):
            labels = (2, 4, 6, 8) if i % 3 == 0 else LABELS
            g = random_admissible_graph(
                rng, max_vertices=7, max_extra_edges=3, labels=labels)
            cert = compute_splitting(g)
            assert cert == splitting_on_named_graphs(g), g
            assert compute_splitting(g, is_admissible(g)) == cert
            kinds[cert.kind] += 1
        assert kinds["hnn"] >= 50 and kinds["amalgam"] >= 200

    def test_a_handed_verdict_still_refuses(self):
        bad = DefiningGraph.build(
            ["a", "b", "c"],
            [("a", "b", 3, "a"), ("b", "c", 3, "b"), ("a", "c", 3, "a")],
        )
        verdict = is_admissible(bad)
        with pytest.raises(InadmissibleOrientation) as e:
            compute_splitting(bad, verdict)
        assert e.value.verdict is verdict
        split = DefiningGraph.build(
            ["a", "b", "c", "d"], [("a", "b", 3, "a"), ("c", "d", 3, "c")])
        with pytest.raises(DisconnectedError):
            compute_splitting(split, is_admissible(split))

    def test_disconnected_is_refused_before_inadmissible(self):
        # the inadmissible triangle beside a separate oriented edge: the
        # connectivity refusal wins, with or without the verdict handed in
        g = DefiningGraph.build(
            ["a", "b", "c", "d", "e"],
            [("a", "b", 3, "a"), ("b", "c", 3, "b"), ("a", "c", 3, "a"),
             ("d", "e", 3, "d")],
        )
        assert not is_admissible(g).admissible
        with pytest.raises(DisconnectedError):
            compute_splitting(g)
        with pytest.raises(DisconnectedError):
            compute_splitting(g, is_admissible(g))


def test_collapsed_rank_matches_quarter_rank():
    # collapsing a forest of quarter edges and subdividing preserves pi_1
    rng = random.Random(13)
    for _ in range(15):
        g = random_admissible_graph(rng, max_vertices=5, max_extra_edges=2)
        fam = build_family(g)
        col = build_collapsed(g)
        quarter_comps = connected_components(fam.x_quarter)
        col_comps = connected_components(col.graph)
        assert len(quarter_comps) == len(col_comps)
        assert sorted(free_rank(c) for c in quarter_comps) == sorted(
            free_rank(c) for c in col_comps
        )
