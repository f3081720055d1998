import random
import sys
import tracemalloc
from pathlib import Path

import pytest
import artinsplit
from artinsplit import (
    ColoredGraph,
    DefiningGraph,
    Edge,
    FiberInputError,
    MonochromeVerdict,
    OppressiveWords,
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
from artinsplit.multigraph import bfs_path
from generators import (
    random_admissible_graph,
    random_bouquet_immersion,
    random_colored_graph,
    subdivided_bouquet_immersion,
    triangle,
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
    shortest_path_by_levels,
    traces_word,
    two_disjoint_paths,
)

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


def self_fiber(g):
    verdict = is_admissible(g)
    assert verdict.admissible
    col = build_collapsed(verdict)
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

    def test_rejects_ids_holding_the_pair_separator(self):
        # pair ids join factor ids with "|"; a loop at each vertex keeps
        # these graphs immersions
        for v, e in (("a|b", "l"), ("a", "l|1")):
            g = ColoredGraph([v], [Edge(e, v, v, "x")])
            assert is_immersion(g)
            with pytest.raises(FiberInputError, match='may contain it'):
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
    def test_a_verdict_without_a_witness_has_no_colors(self):
        assert MonochromeVerdict(all_monochrome=True).witness_colors() == ()

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
            check(fiber_product(build_collapsed(is_admissible(g)).graph))
            done += 1
        # bouquet immersions also have tree components and color classes
        # that are paths, which products of collapsed graphs do not
        for _ in range(200):
            check(fiber_product(random_bouquet_immersion(rng, max_vertices=4)))


def library_two_disjoint_paths(g, sources, sinks, banned_edges, extra=0):
    """`fiber._two_disjoint_paths` with g's vertices and edges numbered in
    their order, and its answer read back in names.  With `extra`, that
    many vertex ids and edges follow g's own: each new vertex is joined to
    one of g's by a new edge, left out of the usable ones."""
    at = {v: i for i, v in enumerate(g.vertices)}
    n = len(at)
    found = _two_disjoint_paths(
        n + extra,
        [(at[e.tail], at[e.head]) for e in g.edges]
        + [(n + k, k % n) for k in range(extra)],
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
    # the flow on integer ids, kept per node, against the reference that
    # keeps capacities on names, for every pair of edges that are disjoint
    # or share one end, within each block (as monochrome_check asks) and
    # across the whole graph (where the paths may not exist); vertices and
    # edges outside the usable ones leave the answer as it is
    rng = random.Random(2024)
    compared = missing = shared = shared_found = 0
    for _ in range(300):
        g = random_colored_graph(rng, max_vertices=8, max_edges=14)
        for sub in [g] + [restricted(g, block) for block in blocks(g)]:
            edges = [e for e in sub.edges if e.tail != e.head]
            for i, e1 in enumerate(edges):
                for e2 in edges[i + 1:]:
                    common = {e1.tail, e1.head} & {e2.tail, e2.head}
                    if len(common) > 1:
                        continue
                    args = (sub, (e1.tail, e1.head), (e2.tail, e2.head),
                            {e1.id, e2.id})
                    found = library_two_disjoint_paths(*args)
                    assert found == two_disjoint_paths(*args)
                    assert library_two_disjoint_paths(*args, extra=3) == found
                    if not common:
                        compared += 1
                        missing += found is None
                        continue
                    # a shared end v is its own path, and the other path is
                    # the shortest one between the other ends that avoids v
                    (v,) = common
                    x = e1.head if e1.tail == v else e1.tail
                    y = e2.head if e2.tail == v else e2.tail
                    mid = shortest_path_by_levels(sub, x, y, {v}, args[3])
                    assert (found is None) == (mid is None)
                    if found is not None:
                        assert found[v] == (v, []) and found[x] == (y, mid)
                    shared += 1
                    shared_found += found is not None
    assert compared > 1000 and 0 < missing < compared
    assert shared > 3000 and 0 < shared_found < shared


def test_disjoint_paths_cancel_a_blocking_first_path(monkeypatch):
    # the shortest augmenting path A x y D takes both x and y, yet B's only
    # way out is through x and A's other way ends at y; so the second
    # augmenting path runs back along x -> y, and the paths A p q y D and
    # B x r s C are the only two
    g = ColoredGraph("ABCDpqrsxy", [
        Edge(str(j), a, b, "c") for j, (a, b) in enumerate(
            ["Ax", "xy", "yD", "Bx", "Ap", "pq", "qy", "xr", "rs", "sC"])
    ])
    searched = []

    def spy(start, goal, step):
        searched.append(bfs_path(start, goal, step))
        return searched[-1]

    monkeypatch.setattr(fiber, "bfs_path", spy)
    args = (g, ("A", "B"), ("C", "D"), set())
    found = library_two_disjoint_paths(*args)
    assert found is not None and found == two_disjoint_paths(*args)
    assert found["A"][0] == "D" and found["B"][0] == "C"
    # each search runs from S, node 0, and names the nodes after it
    first, second = (set(zip([0] + path, path)) for path in searched)
    assert any((b, a) in first for a, b in second)


def test_disjoint_paths_match_the_capacity_flow_on_the_labels_witnesses(
        monkeypatch):
    # the flows behind the 33 R7 witnesses of the default-seed `labels`
    # benchmark, on blocks far larger than the random graphs above, against
    # the reference on the component they are run on; monochrome_check
    # numbers the component's pairs and edges in the order of their names
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import DEFAULT_SEED, WORKLOADS, to_defining_graph

    calls = []
    monkeypatch.setattr(fiber, "_two_disjoint_paths",
                        lambda *args: calls.append(args)
                        or _two_disjoint_paths(*args))
    sizes = []
    for op in WORKLOADS["labels"](DEFAULT_SEED):
        if op.expect_rule != "R7":
            continue
        g = to_defining_graph(artinsplit, op.graph)
        fp = fiber_product(build_collapsed(is_admissible(g)).graph)
        comp = fp.component(monochrome_check(fp).witness_component)
        (n, ends, usable, sources, sinks), = calls
        calls.clear()
        names = sorted(comp.vertices)
        eids = sorted(e.id for e in comp.edges)
        assert {(eids[j], names[a], names[b]) for j, (a, b) in enumerate(ends)
                } == {(e.id, e.tail, e.head) for e in comp.edges}
        found = _two_disjoint_paths(n, ends, usable, sources, sinks)
        assert found is not None
        keep = set(usable)
        assert {
            names[s]: (names[t], [(eids[j], sign) for j, sign in steps])
            for s, (t, steps) in found.items()
        } == two_disjoint_paths(
            comp, tuple(names[s] for s in sources),
            tuple(names[t] for t in sinks),
            {eid for j, eid in enumerate(eids) if j not in keep})
        sizes.append(len({v for j in usable for v in ends[j]}))
    assert len(sizes) == 33 and min(sizes) < 20 and max(sizes) > 200


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
            verdict = is_admissible(g)
            assert verdict.admissible
            col = build_collapsed(verdict)
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
    g = head_to_tail(["a", "b", "c"], [1601, 4, 5])
    Y = build_collapsed(is_admissible(g)).graph
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
        assert tuple(oppressive_set(g, "u")) == ((("a", 1),),)
        assert tuple(oppressive_set(g, "v")) == ((("a", -1),),)

    def test_basepoint_that_is_not_a_vertex(self):
        # a list is unhashable and an int is no vertex name: both are a
        # basepoint missing from the graph
        g = ColoredGraph(["u", "v"], [Edge("1", "u", "v", "a")])
        for basepoint in (["u"], 0):
            with pytest.raises(StructureError, match="not in the graph"):
                oppressive_set(g, basepoint)

    def test_embedded_vertex_with_loops_is_empty(self):
        g = ColoredGraph(["u"], [Edge("1", "u", "u", "a")])
        assert tuple(oppressive_set(g, "u")) == ()

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

    def test_malformed_words_are_refused(self):
        # an empty key, or a letter past the alphabet, would be written in
        # another layout than json.dumps's, or as a raw control character
        steps = (("x", 1),)
        for keys in (("",), ("\x00", ""), ("\x01",), ("\x00\x01",)):
            with pytest.raises(ValueError, match="oppressive word"):
                OppressiveWords(steps, keys)
        with pytest.raises(ValueError, match="oppressive word"):
            OppressiveWords((), ("\x00",))
        words = OppressiveWords(steps, ("\x00", "\x00\x00"))
        assert tuple(words) == ((("x", 1),), (("x", 1), ("x", 1)))
        assert tuple(OppressiveWords((), ())) == ()

    def test_witness_paths_recorded(self):
        # the oracle's pairs are the ones the definition asks for, and
        # each reads its word
        rng = random.Random(71)
        for _ in range(30):
            Y = random_bouquet_immersion(rng, max_vertices=4)
            y0 = min(Y.vertices)
            for word, mu1, mu2 in oppressive_pairs(Y, y0):
                assert mu1.start == y0 and mu1.steps
                assert mu1.vertices()[-1] != y0
                assert is_simple_path(mu1)
                if mu2 is None:
                    assert word == mu1.word()
                    continue
                assert is_simple_path(mu2)
                assert mu2.vertices()[-1] == y0
                assert mu2.start not in (y0, mu1.vertices()[-1])
                assert word == mu1.word() + mu2.word()

    def test_matches_the_pair_enumeration(self):
        # seeded random immersions, and the Xbars of two triangles, whose
        # sets hold up to 8,834 words
        rng = random.Random(67)
        graphs = [random_bouquet_immersion(rng, max_vertices=5)
                  for _ in range(60)]
        graphs += [build_collapsed(is_admissible(triangle(labels))).graph
                   for labels in ((5, 5, 5), (5, 4, 4))]
        for Y in graphs:
            for y0 in Y.vertices:
                words = {w for w, _, _ in oppressive_pairs(Y, y0)}
                got = oppressive_set(Y, y0)
                assert len(got) == len(words)
                assert tuple(got) == tuple(
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
