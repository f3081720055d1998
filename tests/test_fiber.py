import random
import sys
import tracemalloc

import pytest
from artinsplit import (
    ColoredGraph,
    DefiningGraph,
    Edge,
    FiberInputError,
    StructureError,
    Walk,
    blocks,
    build_collapsed,
    fiber,
    fiber_product,
    free_rank,
    is_admissible,
    is_immersion,
    monochrome_check,
    oppressive_set,
)
from artinsplit.fiber import _simple_paths_from, _two_disjoint_paths
from generators import (
    random_admissible_graph,
    random_bouquet_immersion,
    random_colored_graph,
    subdivided_bouquet_immersion,
)
from oracles import (
    explicit_fiber_product,
    explicit_monochrome_witness,
    has_mixed_simple_cycle,
    is_simple_path,
    monochrome_cycles_fill,
    oppressive_pairs,
    rank_count_fills,
    restricted,
    traces_word,
    two_disjoint_paths,
)


def triangle(labels, tails=("a", "b", "c")):
    return DefiningGraph.build(
        ["a", "b", "c"],
        [
            ("a", "b", labels[0], tails[0]),
            ("b", "c", labels[1], tails[1]),
            ("a", "c", labels[2], tails[2]),
        ],
    )


def self_fiber(g):
    assert is_admissible(g).admissible
    col = build_collapsed(g)
    assert is_immersion(col.graph)
    return col, fiber_product(col.graph)


class TestFiberProduct:
    def test_rejects_non_immersions(self):
        g = ColoredGraph(
            ["u", "v", "w"],
            [Edge("1", "u", "v", "a"), Edge("2", "u", "w", "a")],
        )
        with pytest.raises(FiberInputError, match="immersion"):
            fiber_product(g)

    def test_art333_self_fiber(self):
        col, fp = self_fiber(triangle((3, 3, 3)))
        assert len(col.graph.vertices) == 3 and len(col.graph.edges) == 9
        assert fp.classification == ("diagonal", "cycle-bearing", "cycle-bearing")
        assert fp.diagonal_components == (0,)
        assert fp.nontrivial_components() == (1, 2)
        for i in fp.nontrivial_components():
            assert free_rank(fp.components[i]) == 7

    def test_diagonal_is_a_union_of_components(self):
        rng = random.Random(41)
        for _ in range(25):
            Y = random_bouquet_immersion(rng)
            fp = fiber_product(Y)
            diag = {f"{v}|{v}" for v in Y.vertices}
            for i, comp in enumerate(fp.components):
                hit = diag & set(comp.vertices)
                if hit:
                    assert i in fp.diagonal_components
                    assert set(comp.vertices) <= diag
            # diagonal components together carry the whole diagonal
            covered = set()
            for i in fp.diagonal_components:
                covered |= set(fp.components[i].vertices)
            assert covered == diag

    def test_branching_vertices_have_high_valence(self):
        _, fp = self_fiber(triangle((5, 5, 5)))
        for i in fp.nontrivial_components():
            comp = fp.components[i]
            branching = set(fp.branching_vertices(i))
            for v in comp.vertices:
                assert (comp.valence(v) >= 3) == (v in branching)


class TestMonochrome:
    def test_all_odd_triangle_is_mixed(self):
        _, fp = self_fiber(triangle((5, 5, 5)))
        verdict = monochrome_check(fp)
        assert not verdict.all_monochrome
        assert verdict.witness.is_simple_cycle()
        assert len(verdict.witness_colors()) >= 2
        idx = verdict.witness_component
        assert fp.classification[idx] == "cycle-bearing"
        assert idx not in fp.diagonal_components
        walk_vertices = set(verdict.witness.vertices())
        assert walk_vertices <= set(fp.components[idx].vertices)

    def test_even_pair_triangle_is_monochrome(self):
        _, fp = self_fiber(triangle((4, 4, 6)))
        assert monochrome_check(fp).all_monochrome

    def test_matches_exhaustive_cycle_search(self):
        labels = [(3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4), (4, 4, 5), (5, 5, 5)]
        for ls in labels:
            _, fp = self_fiber(triangle(ls))
            verdict = monochrome_check(fp)
            mixed = any(
                has_mixed_simple_cycle(fp.components[i])
                for i in fp.nontrivial_components()
            )
            assert verdict.all_monochrome == (not mixed)

    def test_matches_exhaustive_search_on_random_graphs(self, monkeypatch):
        # only the one component that fails the rank count is grown
        grown = []
        real_grow = fiber.FiberProduct._grow
        monkeypatch.setattr(
            fiber.FiberProduct, "_grow",
            lambda fp, i: grown.append(i) or real_grow(fp, i),
        )

        def check(fp):
            del grown[:]
            verdict = monochrome_check(fp)
            assert grown == ([] if verdict.all_monochrome
                             else [verdict.witness_component])
            mixed = []
            for i in fp.nontrivial_components():
                comp = fp.components[i]
                mixed.append(has_mixed_simple_cycle(comp))
                assert fp.fill_rank_ok[i] == (not mixed[-1])
            assert verdict.all_monochrome == (not any(mixed))

        rng = random.Random(43)
        done = 0
        while done < 12:
            g = random_admissible_graph(rng, max_vertices=4, max_extra_edges=2)
            if sum(e.label for e in g.edges) > 14:
                continue  # keep the brute-force search tractable
            check(fiber_product(build_collapsed(g).graph))
            done += 1
        # bouquet immersions also have tree components and color classes
        # that are paths, which products of collapsed graphs do not
        for _ in range(200):
            check(fiber_product(random_bouquet_immersion(rng, max_vertices=4)))


def library_two_disjoint_paths(g, sources, sinks, banned_edges):
    """`fiber._two_disjoint_paths` with g's vertices and edges numbered in
    their order, and its answer read back in names."""
    at = {v: i for i, v in enumerate(g.vertices)}
    found = _two_disjoint_paths(
        len(at),
        [(at[e.tail], at[e.head]) for e in g.edges],
        [j for j, e in enumerate(g.edges) if e.id not in banned_edges],
        tuple(at[v] for v in sources),
        tuple(at[v] for v in sinks),
    )
    if found is None:
        return None
    return {
        g.vertices[s]: (g.vertices[t], [(g.edges[j].id, sign)
                                        for j, sign in steps])
        for s, (t, steps) in found.items()
    }


def test_disjoint_paths_match_the_capacity_flow():
    # the flow on integer ids, kept as a set of used arcs, against the
    # reference that keeps capacities on names, for every pair of disjoint
    # edges, within each block (as monochrome_check asks) and across the
    # whole graph (where the paths may not exist)
    rng = random.Random(2024)
    compared = missing = 0
    for _ in range(300):
        g = random_colored_graph(rng, max_vertices=8, max_edges=14)
        for sub in [g] + [restricted(g, block) for block in blocks(g)]:
            edges = [e for e in sub.edges if e.tail != e.head]
            for i, e1 in enumerate(edges):
                for e2 in edges[i + 1:]:
                    if {e1.tail, e1.head} & {e2.tail, e2.head}:
                        continue
                    args = (sub, (e1.tail, e1.head), (e2.tail, e2.head),
                            {e1.id, e2.id})
                    found = library_two_disjoint_paths(*args)
                    assert found == two_disjoint_paths(*args)
                    compared += 1
                    missing += found is None
    assert compared > 1000 and 0 < missing < compared


class TestFillRank:
    def test_single_color_cycle_fills(self):
        g = ColoredGraph(
            ["0", "1"],
            [Edge("1", "0", "1", "a"), Edge("2", "1", "0", "a")],
        )
        fp = fiber_product(g)
        # the diagonal copy of g, and the 2-cycle 0|1 -> 1|0 -> 0|1
        assert fp.classification == ("diagonal", "cycle-bearing")
        assert fp.fill_rank_ok == (True, True)

    def test_mixed_cycle_does_not_fill(self):
        g = ColoredGraph(
            ["0", "1"],
            [Edge("1", "0", "1", "a"), Edge("2", "1", "0", "b")],
        )
        fp = fiber_product(g)
        # the diagonal copy of g, and the isolated pairs 0|1 and 1|0
        assert fp.classification == ("diagonal", "tree", "tree")
        assert fp.fill_rank_ok == (False, True, True)

    def test_matches_exhaustive_span(self):
        rng = random.Random(47)
        for _ in range(40):
            fp = fiber_product(random_bouquet_immersion(rng, max_vertices=4))
            for i, comp in enumerate(fp.components):
                assert fp.fill_rank_ok[i] == monochrome_cycles_fill(comp)
        # the count the differential tests use on components too large to
        # enumerate, on graphs of any shape
        for _ in range(40):
            g = random_colored_graph(rng, max_vertices=5, max_edges=7)
            assert rank_count_fills(g) == monochrome_cycles_fill(g)

    def test_on_fiber_components(self):
        _, fp = self_fiber(triangle((4, 4, 4)))
        for i in fp.nontrivial_components():
            assert fp.fill_rank_ok[i] == monochrome_cycles_fill(fp.component(i))


def head_to_tail(names, labels):
    """A cycle through `names` with every edge oriented head to tail, which
    is admissible when no label is 2."""
    n = len(names)
    return DefiningGraph.build(
        names,
        [
            (names[i], names[(i + 1) % n], labels[i], names[i])
            for i in range(n)
        ],
    )


# vertex names where "u|v" order and (u, v) order disagree: "a1|x" sorts
# before "a|x", and "a_b|x" before both
PREFIX_NAMES = ("a", "a1", "a10", "a_b", "ab", "b")


def renamed(Y, rng):
    """Y with its vertices renamed from PREFIX_NAMES and its edges numbered."""
    name = dict(zip(Y.vertices, rng.sample(PREFIX_NAMES, len(Y.vertices))))
    return ColoredGraph(
        name.values(),
        [
            Edge(str(k), name[e.tail], name[e.head], e.color)
            for k, e in enumerate(Y.edges)
        ],
    )


def shape(g):
    return g.vertices, g.edges


class TestAgainstExplicitProduct:
    """The integer product against the string-keyed one it replaced."""

    def assert_same_product(self, Y):
        fp = fiber_product(Y)
        ex = explicit_fiber_product(Y)
        assert fp.classification == ex.classification
        assert fp.diagonal_components == ex.diagonal_components
        for i, comp in enumerate(ex.components):
            if ex.classification[i] != "tree":
                assert shape(fp.component(i)) == shape(comp)
            assert fp.vertex_counts[i] == len(comp.vertices)
            assert fp.edge_counts[i] == len(comp.edges)
            assert fp.rank(i) == free_rank(comp)
            assert fp.branching_vertices(i) == tuple(
                v for v in comp.vertices if comp.valence(v) >= 3
            )
            assert fp.fill_rank_ok[i] == rank_count_fills(comp)
        assert list(map(shape, fp.components)) == list(map(shape, ex.components))
        assert shape(fp.graph) == shape(ex.graph)
        at = {v: i for i, comp in enumerate(ex.components) for v in comp.vertices}
        assert [fp.component_of(u, v) for u in Y.vertices for v in Y.vertices] \
            == [at[f"{u}|{v}"] for u in Y.vertices for v in Y.vertices]
        verdict = monochrome_check(fp)
        expected = explicit_monochrome_witness(ex)
        assert verdict.all_monochrome == (expected is None)
        if expected is not None:
            w = verdict.witness
            assert (verdict.witness_component, w.start, w.steps) == expected
        return verdict.all_monochrome

    def test_triangles_and_cycles_with_long_runs(self):
        # a label of 22 or more gives runs of 11 edges or more, whose inner
        # vertices xb:c:s:1 and xb:c:s:10 are prefixes of one another
        rng = random.Random(59)
        verdicts = set()
        cases = [[rng.randrange(23, 31, 2), 4, 4] for _ in range(2)]
        for _ in range(8):
            k = rng.choice((3, 3, 4, 5))
            labels = [rng.randint(3, 30) for _ in range(k)]
            labels[rng.randrange(k)] = rng.randint(22, 30)
            cases.append(labels)
        for labels in cases:
            k = len(labels)
            g = head_to_tail(rng.sample(PREFIX_NAMES, k), labels)
            assert is_admissible(g).admissible
            col = build_collapsed(g)
            assert is_immersion(col.graph)
            assert any(":10" in v for v in col.graph.vertices)
            verdicts.add(self.assert_same_product(col.graph))
        assert verdicts == {True, False}

    def test_bouquet_immersions_with_prefix_names(self):
        rng = random.Random(61)
        for _ in range(200):
            self.assert_same_product(renamed(random_bouquet_immersion(rng), rng))

    def test_run_edge_cases(self):
        def cycle(names, color):
            return [Edge(f"{color}:{u}", u, v, color)
                    for u, v in zip(names, names[1:] + names[:1])]

        def path(names, color):
            return [Edge(f"{color}:{u}", u, v, color)
                    for u, v in zip(names, names[1:])]

        p = [f"p{i}" for i in range(4)]
        q = [f"q{i}" for i in range(6)]
        s = ["b", "s1", "s2", "c"]
        t = ["c"] + [f"t{i}" for i in range(1, 7)] + ["b"]
        no_branch = ColoredGraph(p + q, cycle(p, "a") + cycle(q, "a"))
        cases = [
            no_branch,
            # a color loop alone, and one at a branch vertex
            ColoredGraph(["x"], [Edge("l", "x", "x", "a")]),
            ColoredGraph(["x"] + p, [Edge("l", "x", "x", "a")]
                         + path(["x"] + p, "b")),
            ColoredGraph(q, path(q, "a")),
            # disconnected: a cycle, a path and an isolated vertex
            ColoredGraph(p + q + ["z"], cycle(p, "a") + path(q, "b")),
            # runs of 3 and 7 edges of color a between the branch vertices
            # b and c
            ColoredGraph(s + t, path(s, "a") + path(t, "a")
                         + [Edge("x", "b", "c", "x")]),
        ]
        for Y in cases:
            self.assert_same_product(Y)
        # two cycles of one color, of lengths 4 and 6: besides the two
        # diagonals, 3 and 5 cycles of lengths 4 and 6, and gcd(4, 6) = 2
        # cycles of length lcm(4, 6) = 12 each way across
        fp = fiber_product(no_branch)
        assert fp.classification.count("diagonal") == 2
        assert sorted(fp.vertex_counts) == [4] * 4 + [6] * 6 + [12] * 4
        assert fp.vertex_counts == fp.edge_counts

    def test_subdivided_immersions(self):
        rng = random.Random(67)
        verdicts = set()
        long_runs = 0
        for _ in range(100):
            Y = subdivided_bouquet_immersion(rng, max_vertices=3)
            long_runs += any(v.endswith(":10") for v in Y.vertices)
            verdicts.add(self.assert_same_product(Y))
        assert long_runs >= 10 and verdicts == {True, False}


def test_witness_matches_the_explicit_product_under_prefix_ids():
    # the witness found on integer pair indices against the one the
    # string-keyed product gives, on bouquet immersions whose vertex ids
    # (a, a1, a10) and edge ids (e1, e10) are prefixes of one another:
    # "e10|x" sorts before "e1|x", so edge rows must follow the order of
    # id + "|", not of the ids
    rng = random.Random(79)
    mixed = 0
    for _ in range(300):
        Y = random_bouquet_immersion(rng)
        name = dict(zip(Y.vertices, rng.sample(PREFIX_NAMES, len(Y.vertices))))
        ids = rng.sample([f"e{k}" for k in range(1, 25)], len(Y.edges))
        Y = ColoredGraph(name.values(), [
            Edge(i, name[e.tail], name[e.head], e.color)
            for i, e in zip(ids, Y.edges)
        ])
        verdict = monochrome_check(fiber_product(Y))
        expected = explicit_monochrome_witness(explicit_fiber_product(Y))
        assert verdict.all_monochrome == (expected is None)
        if expected is not None:
            w = verdict.witness
            assert (verdict.witness_component, w.start, w.steps) == expected
            mixed += 1
    assert mixed >= 100


def test_long_run_product_holds_no_pair_table():
    # tri(1601,4,5) gives |Xbar| = 1604, so 2.6 million pairs; counted by
    # runs, the product's tracemalloc peak stays a few MiB
    Y = build_collapsed(head_to_tail(["a", "b", "c"], [1601, 4, 5])).graph
    tracemalloc.start()
    try:
        fp = fiber_product(Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(fp.vertex_counts) == len(Y.vertices) ** 2
    assert peak < 6 * 2**20


class TestOppressive:
    def test_rejects_non_immersion(self):
        g = ColoredGraph(
            ["u", "v", "w"],
            [Edge("1", "u", "v", "a"), Edge("2", "u", "w", "a")],
        )
        with pytest.raises(FiberInputError):
            oppressive_set(g, "u")

    def test_single_edge_graph(self):
        g = ColoredGraph(["u", "v"], [Edge("1", "u", "v", "a")])
        assert oppressive_set(g, "u") == ((("a", 1),),)
        assert oppressive_set(g, "v") == ((("a", -1),),)

    def test_embedded_vertex_with_loops_is_empty(self):
        g = ColoredGraph(["u"], [Edge("1", "u", "u", "a")])
        assert oppressive_set(g, "u") == ()

    def test_two_edge_path_enumeration(self):
        g = ColoredGraph(
            ["u", "v", "w"],
            [Edge("1", "u", "v", "a"), Edge("2", "v", "w", "b")],
        )
        assert set(oppressive_set(g, "u")) == {
            (("a", 1),),
            (("a", 1), ("b", 1)),
            (("a", 1), ("b", -1), ("a", -1)),
            (("a", 1), ("b", 1), ("a", -1)),
        }

    def test_witness_paths_recorded(self):
        # the oracle's pairs are the ones the definition asks for, and
        # each reads its word
        rng = random.Random(71)
        for _ in range(30):
            Y = random_bouquet_immersion(rng, max_vertices=4)
            y0 = min(Y.vertices)
            for word, mu1, mu2 in oppressive_pairs(Y, y0):
                assert mu1.start == y0 and mu1.end != y0 and mu1.steps
                assert is_simple_path(mu1)
                if mu2 is None:
                    assert word == mu1.word()
                    continue
                assert is_simple_path(mu2)
                assert mu2.end == y0
                assert mu2.start not in (y0, mu1.end)
                assert word == mu1.word() + mu2.word()

    def test_matches_the_pair_enumeration(self):
        rng = random.Random(67)
        for _ in range(60):
            Y = random_bouquet_immersion(rng, max_vertices=5)
            for y0 in Y.vertices:
                words = {w for w, _, _ in oppressive_pairs(Y, y0)}
                assert oppressive_set(Y, y0) == tuple(
                    sorted(words, key=lambda w: (len(w), w))
                )

    def test_builds_no_walk(self, monkeypatch):
        built = []
        post_init = Walk.__post_init__

        def counted(w):
            built.append(w)
            post_init(w)

        monkeypatch.setattr(Walk, "__post_init__", counted)
        rng = random.Random(73)
        for _ in range(10):
            Y = random_bouquet_immersion(rng, max_vertices=4)
            oppressive_set(Y, min(Y.vertices))
        assert built == []

    def test_no_word_closes(self):
        rng = random.Random(53)
        for _ in range(30):
            Y = random_bouquet_immersion(rng, max_vertices=5)
            y0 = min(Y.vertices)
            words = oppressive_set(Y, y0)
            assert (not words) == (len(Y.vertices) == 1)
            for word in words:
                assert traces_word(Y, y0, word).outcome != "closes"

    def test_simple_paths_deeper_than_the_recursion_limit(self):
        n = 1500
        assert n > sys.getrecursionlimit()
        g = ColoredGraph(
            [f"v{i}" for i in range(n + 1)],
            [Edge(f"e{i}", f"v{i}", f"v{i + 1}", "a") for i in range(n)],
        )
        paths = _simple_paths_from(g, "v0")
        assert list(paths) == [
            (f"v{k}", (("a", 1),) * k) for k in range(1, n + 1)
        ]


class TestTracesWord:
    def setup_method(self):
        self.g = ColoredGraph(
            ["u", "v"],
            [Edge("1", "u", "v", "a"), Edge("2", "v", "u", "b")],
        )

    def test_closes(self):
        r = traces_word(self.g, "u", [("a", 1), ("b", 1)])
        assert r.outcome == "closes" and r.vertex == "u"

    def test_exits(self):
        r = traces_word(self.g, "u", [("a", 1)])
        assert r.outcome == "exits" and r.vertex == "v"

    def test_no_edge_reports_position(self):
        r = traces_word(self.g, "u", [("a", 1), ("a", 1)])
        assert r.outcome == "no-edge"
        assert r.failed_index == 1
        assert r.vertex == "v"

    def test_inverse_letters_follow_heads(self):
        r = traces_word(self.g, "u", [("b", -1), ("a", -1)])
        assert r.outcome == "closes"

    def test_ambiguous_graph_rejected(self):
        g = ColoredGraph(
            ["u", "v", "w"],
            [Edge("1", "u", "v", "a"), Edge("2", "u", "w", "a")],
        )
        with pytest.raises(StructureError):
            traces_word(g, "u", [("a", 1)])
