import itertools
import random
from collections import Counter

import pytest
from artinsplit import (
    AdmissibilityVerdict,
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
from artinsplit.defining_graph import enumerate_cycles
from generators import (
    LABELS,
    random_admissible_graph,
    random_defining_graph,
    ring,
    triangle,
    with_random_orientation,
)
from oracles import (
    artin_h1_rank,
    collapsed_by_tails,
    deck_involution_on_quarter,
    is_degree_n_cover,
    named_cover,
    run_lengths,
    splitting_h1,
    splitting_on_named_graphs,
)
from test_orientation import MIXED_NAMES


def xbar_rows(col):
    """Xbar's vertices, its edges as (id, tail, head, color), and the
    class of each x_quarter vertex."""
    edges = [(e.id, e.tail, e.head, e.color) for e in col.graph.edges]
    return col.graph.vertices, edges, col.old_class


def single_edge(label, iota="a"):
    if label == 2:
        iota = None
    return DefiningGraph.build(["a", "b"], [("a", "b", label, iota)])


SQUARE_EVEN = ring((4, 4, 4, 6))


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
            col = build_collapsed(is_admissible(single_edge(label)))
            m = (label - 1) // 2
            assert run_lengths(col.graph, "a-b") == (1, m, m)
            comps = connected_components(col.graph)
            assert len(comps) == 1
            assert len(col.graph.edges) == label
            assert all(col.graph.valence(v) == 2 for v in col.graph.vertices)

    def test_even_label_gives_two_cycles(self):
        for label in (4, 6, 8):
            col = build_collapsed(is_admissible(single_edge(label)))
            m = label // 2
            assert run_lengths(col.graph, "a-b") == (1, m - 1, m)
            comps = connected_components(col.graph)
            assert len(comps) == 2
            assert sorted(len(c.edges) for c in comps) == [m, m]
            assert all(col.graph.valence(v) == 2 for v in col.graph.vertices)

    def test_label_two_gives_two_loops(self):
        col = build_collapsed(is_admissible(single_edge(2)))
        assert sorted(set(col.old_class.values())) == ["a+/b-", "a-/b+"]
        assert all(e.tail == e.head for e in col.graph.edges)
        assert len(col.graph.edges) == 2

    def test_class_names_merge_collapsed_lift(self):
        col = build_collapsed(is_admissible(single_edge(5)))
        assert col.old_class["a+"] == "a+/b-"
        assert col.old_class["b-"] == "a+/b-"
        assert col.old_class["a-"] == "a-"

    def test_rho_immerses_when_admissible(self):
        g = triangle((5, 4, 4))
        verdict = is_admissible(g)
        assert verdict.admissible
        assert is_immersion(build_collapsed(verdict).graph)

    def test_rho_fails_to_immerse_when_inadmissible(self):
        bad = triangle(tails=("a", "b", "a"))
        verdict = is_admissible(bad)
        assert not verdict.admissible
        assert verdict.witness is not None
        assert not is_immersion(build_collapsed(verdict).graph)

    def test_immersion_does_not_decide_admissibility(self):
        # an admissible orientation always gives an immersion, but not
        # conversely, so the verdict comes from `is_admissible` alone: this
        # 4-cycle is inadmissible and its Xbar immerses
        square = DefiningGraph.build(
            ["v0", "v1", "v2", "v3"],
            [("v0", "v1", 2, None), ("v0", "v2", 5, "v2"),
             ("v1", "v3", 3, "v1"), ("v2", "v3", 4, "v2")],
        )
        verdict = is_admissible(square)
        assert not verdict.admissible
        assert is_immersion(build_collapsed(verdict).graph)
        rng = random.Random(41)
        seen = Counter()
        for _ in range(1000):
            g = with_random_orientation(
                rng, random_defining_graph(rng, max_vertices=6,
                                           max_extra_edges=3))
            verdict = is_admissible(g)
            seen[verdict.admissible,
                 is_immersion(build_collapsed(verdict).graph)] += 1
        assert seen[True, False] == 0
        assert seen[False, True] > 0 and seen[True, True] > 0

    def test_segments_tile_the_graph(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_admissible_graph(rng, max_vertices=5, max_extra_edges=2)
            col = build_collapsed(is_admissible(g))
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

    def test_matches_the_reference_built_from_tails(self):
        # Xbar read off x_quarter's sides agrees with the reference that
        # builds it per edge from its tail and head; the vertices are
        # renamed so that their sorted order differs from their input order
        rng = random.Random(47)
        admissible = Counter()
        for _ in range(3000):
            g = with_random_orientation(
                rng, random_defining_graph(rng, max_vertices=8))
            names = rng.sample(MIXED_NAMES, len(g.vertices))
            name = dict(zip(g.vertices, names))
            rng.shuffle(names)
            g = DefiningGraph.build(names, [
                (name[e.u], name[e.v], e.label, e.iota and name[e.iota])
                for e in g.edges
            ])
            verdict = is_admissible(g)
            col = build_collapsed(verdict)
            assert xbar_rows(col) == xbar_rows(collapsed_by_tails(g)), g
            admissible[verdict.admissible] += 1
        assert min(admissible[True], admissible[False]) >= 500


class TestSplitting:
    def test_triangle_ranks(self):
        cert = compute_splitting(is_admissible(triangle()))
        assert (cert.kind, cert.rank_a, cert.rank_b, cert.rank_c) == (
            "amalgam", 3, 4, 7,
        )
        assert cert.index_c_in_b == 2

    def test_even_square_is_hnn(self):
        cert = compute_splitting(is_admissible(SQUARE_EVEN))
        assert cert.kind == "hnn"
        assert (cert.rank_a, cert.rank_b) == (4, 5)
        assert cert.rank_c is None and cert.index_c_in_b is None

    def test_path_ranks(self):
        path = DefiningGraph.build(
            ["a", "b", "c"], [("a", "b", 3, "a"), ("b", "c", 4, "b")]
        )
        cert = compute_splitting(is_admissible(path))
        assert (cert.kind, cert.rank_a, cert.rank_b, cert.rank_c) == (
            "amalgam", 2, 2, 3,
        )

    def test_inadmissible_orientation_refused(self):
        bad = triangle(tails=("a", "b", "a"))
        with pytest.raises(InadmissibleOrientation) as e:
            compute_splitting(is_admissible(bad))
        assert e.value.verdict.witness is not None

    def test_disconnected_refused(self):
        g = DefiningGraph.build(
            ["a", "b", "c", "d"],
            [("a", "b", 3, "a"), ("c", "d", 3, "c")],
        )
        with pytest.raises(DisconnectedError):
            compute_splitting(is_admissible(g))

    def test_partial_orientation_refused(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 3, None)])
        with pytest.raises(InvalidDefiningGraph):
            compute_splitting(is_admissible(g))

    def test_json_shape(self):
        amal = compute_splitting(is_admissible(triangle())).to_json_dict()
        assert amal == {
            "kind": "amalgam",
            "rank_a": 3,
            "rank_b": 4,
            "rank_c": 7,
            "index_c_in_b": 2,
        }
        hnn = compute_splitting(is_admissible(SQUARE_EVEN)).to_json_dict()
        assert hnn == {"kind": "hnn", "rank_a": 4, "rank_b": 5}

    def test_amalgam_edge_group_doubles_the_half_rank(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_admissible_graph(rng, max_vertices=6, max_extra_edges=3)
            cert = compute_splitting(is_admissible(g))
            if cert.kind == "amalgam":
                assert cert.rank_c == 2 * cert.rank_b - 1
            else:
                assert cert.rank_c is None
        # x_quarter rank checks run inside compute_splitting as asserts

    def test_matches_the_string_graph_reference(self):
        # the integer cross-checks agree with the ones on build_family's
        # named graphs; every third graph has only even labels, for HNN
        # cases
        rng = random.Random(23)
        kinds = Counter()
        for i in range(320):
            labels = (2, 4, 6, 8) if i % 3 == 0 else LABELS
            g = random_admissible_graph(
                rng, max_vertices=7, max_extra_edges=3, labels=labels)
            cert = compute_splitting(is_admissible(g))
            assert cert == splitting_on_named_graphs(g), g
            kinds[cert.kind] += 1
        assert kinds["hnn"] >= 50 and kinds["amalgam"] >= 200

    def test_a_verdict_carries_its_collapse(self):
        # a verdict without the graph and the collapse it was decided on
        # cannot be built
        with pytest.raises(TypeError):
            AdmissibilityVerdict(True)
        full = is_admissible(triangle())
        with pytest.raises(TypeError):
            AdmissibilityVerdict(True, lifts=full.lifts,
                                 collapsed=full.collapsed, roots=full.roots)

    def test_a_handed_verdict_still_refuses(self):
        bad = triangle(tails=("a", "b", "a"))
        verdict = is_admissible(bad)
        with pytest.raises(InadmissibleOrientation) as e:
            compute_splitting(verdict)
        assert e.value.verdict is verdict
        split = DefiningGraph.build(
            ["a", "b", "c", "d"], [("a", "b", 3, "a"), ("c", "d", 3, "c")])
        with pytest.raises(DisconnectedError):
            compute_splitting(is_admissible(split))

    def test_disconnected_is_refused_before_inadmissible(self):
        # the inadmissible triangle beside a separate oriented edge: the
        # connectivity refusal wins
        g = DefiningGraph.build(
            ["a", "b", "c", "d", "e"],
            [("a", "b", 3, "a"), ("b", "c", 3, "b"), ("a", "c", 3, "a"),
             ("d", "e", 3, "d")],
        )
        assert not is_admissible(g).admissible
        with pytest.raises(DisconnectedError):
            compute_splitting(is_admissible(g))


def test_collapsed_rank_matches_quarter_rank():
    # collapsing a forest of quarter edges and subdividing preserves pi_1
    rng = random.Random(13)
    for _ in range(15):
        g = random_admissible_graph(rng, max_vertices=5, max_extra_edges=2)
        fam = build_family(g)
        col = build_collapsed(is_admissible(g))
        quarter_comps = connected_components(fam.x_quarter)
        col_comps = connected_components(col.graph)
        assert len(quarter_comps) == len(col_comps)
        assert sorted(free_rank(c) for c in quarter_comps) == sorted(
            free_rank(c) for c in col_comps
        )


def test_xbar_counts_the_ranks_of_x_quarter_and_its_halves():
    # an independent count in place of the two rank checks the splitting
    # dropped, "rank of x_quarter" and "rank of an x_quarter half": Xbar
    # is x_quarter with a forest collapsed and edges subdivided, so it has
    # x_quarter's components and their ranks, one of rank rank_c for an
    # amalgam and two of rank rank_b for an HNN extension
    rng = random.Random(61)
    kinds = Counter()
    for labels in ((3, 4, 5, 6, 7), (4, 6, 8), (2, 4, 6)):
        for _ in range(100):
            g = random_admissible_graph(
                rng, max_vertices=7, max_extra_edges=3, labels=labels)
            verdict = is_admissible(g)
            cert = compute_splitting(verdict)
            xbar = build_collapsed(verdict).graph
            ranks = [free_rank(c) for c in connected_components(xbar)]
            if cert.kind == "amalgam":
                assert ranks == [cert.rank_c], g
            else:
                assert ranks == [cert.rank_b] * 2, g
            kinds[cert.kind] += 1
    assert kinds["hnn"] >= 100 and kinds["amalgam"] >= 100, kinds


def has_two_and_odd_cycle(g):
    """Whether a closed walk of g has only labels 2 and odd labels, and at
    least one of each: ROADMAP item 11's class, read on cycles."""
    for cycle in enumerate_cycles(g):
        labels = {g.edge_between(a, b).label
                  for a, b in zip(cycle, cycle[1:] + cycle[:1])}
        if (2 in labels and len(labels) > 1
                and all(l == 2 or l % 2 for l in labels)):
            return True
    return False


# The splitting's H1 where it is not H1(A) = Z^k, pinned as found until
# ROADMAP item 11 decides which side is wrong.  On a cycle with labels 2,
# 3 and 5 only, one label-2 edge gives Z + Z/2 where H1(A) is Z, and two
# give Z^3 where it is Z^2, under every admissible orientation.  A
# labelling is read around the cycle and is the least of its rotations
# and reflections.
CYCLE_H1_DISAGREEMENTS = {
    **dict.fromkeys((
        "23333 23335 23353 23355 23535 23553 23555 25335 25355 25555 "
        "233333 233335 233353 233355 233533 233535 233553 233555 235335 "
        "235353 235355 235535 235553 235555 253335 253355 253535 253555 "
        "255355 255555").split(), (1, (2,))),
    **dict.fromkeys((
        "22333 22335 22353 22355 22535 22555 23233 23235 23255 23325 "
        "23525 25255 223333 223335 223353 223355 223535 223553 223555 "
        "225335 225355 225555 232333 232335 232353 232355 232535 232555 "
        "233233 233235 233255 233325 233525 235235 235253 235255 235325 "
        "235525 252535 252555 255255").split(), (3, ())),
}

# the same on the seeded random graphs below, by label set and draw; each
# holds a 2-and-odd cycle (a-b-f-g-e and a-b-c-d-g-f)
RANDOM_H1_DISAGREEMENTS = {(None, 380): (3, ()), (None, 455): (4, ())}


class TestSplittingH1:
    """H1 of the splitting's graph of spaces, `oracles.splitting_h1`,
    against H1 of the Artin group, free abelian on the classes of the
    odd-label edges."""

    def test_single_edges(self):
        for label in range(2, 8):
            for iota in "ab":
                g = single_edge(label, iota)
                assert splitting_h1(is_admissible(g)) == (
                    1 if label % 2 else 2, ()), g

    def test_random_admissible_graphs(self):
        rng = random.Random(101)
        kinds, disagree = Counter(), {}
        for labels, count in (((3, 4, 5, 6, 7), 400), ((4, 6, 8), 400),
                              ((2, 4, 6), 400), (None, 800)):
            for i in range(count):
                g = random_admissible_graph(
                    rng, **({} if labels is None else {"labels": labels}))
                verdict = is_admissible(g)
                h1 = splitting_h1(verdict)
                if h1 != (artin_h1_rank(g), ()):
                    disagree[labels, i] = h1
                assert ((labels, i) in disagree) == has_two_and_odd_cycle(g), g
                kinds[labels, compute_splitting(verdict).kind] += 1
        assert disagree == RANDOM_H1_DISAGREEMENTS
        assert [kinds[labels, "hnn"] for labels in
                ((3, 4, 5, 6, 7), (4, 6, 8), (2, 4, 6), None)] \
            == [37, 166, 314, 152]

    def test_every_labelled_cycle(self):
        # every labelling of a 3- to 6-cycle by 2, 3, 4 and 5, up to
        # rotation and reflection, under each of its admissible orientations
        seen = Counter()
        for n in range(3, 7):
            for labels in itertools.product((2, 3, 4, 5), repeat=n):
                turns = [labels[i:] + labels[:i] for i in range(n)]
                if min(turns + [t[::-1] for t in turns]) != labels:
                    continue
                g = ring(labels, [None] * n)
                name = "".join(map(str, labels))
                expected = CYCLE_H1_DISAGREEMENTS.get(
                    name, (artin_h1_rank(g), ()))
                orientable = [e for e in g.edges if e.label >= 3]
                for tails in itertools.product(
                        *((e.u, e.v) for e in orientable)):
                    verdict = is_admissible(g.with_orientation(
                        {e.key: t for e, t in zip(orientable, tails)}))
                    if verdict.admissible:
                        assert splitting_h1(verdict) == expected, (
                            name, tails)
                        seen[name] += 1
        assert (len(seen), sum(seen.values())) == (504, 9492)
        pinned = [seen[name] for name in CYCLE_H1_DISAGREEMENTS]
        assert all(pinned) and (len(pinned), sum(pinned)) == (71, 678)
        assert all(has_two_and_odd_cycle(ring(tuple(map(int, name)),
                                              [None] * len(name)))
                   == (name in CYCLE_H1_DISAGREEMENTS) for name in seen)
