import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artinsplit
from artinsplit import (
    ColoredGraph,
    DefiningGraph,
    DisconnectedError,
    Edge,
    StructureError,
    Walk,
    blocks,
    bouquet,
    certify,
    connected_components,
    free_rank,
    is_immersion,
)
from artinsplit.multigraph import (
    bfs_path,
    bfs_tree,
    join,
    root,
)
from generators import random_colored_graph, random_defining_graph
from oracles import (
    GraphMap,
    UnionFind,
    all_simple_cycles,
    in_edges,
    is_degree_n_cover,
    is_simple_path,
    lowpoint_blocks,
    on_common_simple_cycle,
    out_edges,
    restricted,
    shortest_path,
    shortest_path_by_levels,
)


def path_graph(n, color="a"):
    vs = [f"v{i}" for i in range(n)]
    es = [Edge(f"e{i}", vs[i], vs[i + 1], color) for i in range(n - 1)]
    return ColoredGraph(vs, es)


def cycle_graph(n, color="a"):
    vs = [f"v{i}" for i in range(n)]
    es = [Edge(f"e{i}", vs[i], vs[(i + 1) % n], color) for i in range(n)]
    return ColoredGraph(vs, es)


class TestColoredGraph:
    def test_orders_vertices_and_edges(self):
        g = ColoredGraph(
            ["b", "a"], [Edge("z", "a", "b", "c1"), Edge("a", "b", "a", "c1")]
        )
        assert g.vertices == ("a", "b")
        assert [e.id for e in g.edges] == ["a", "z"]

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(StructureError, match="duplicate"):
            ColoredGraph(
                ["a"], [Edge("e", "a", "a", "c"), Edge("e", "a", "a", "c")]
            )

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(StructureError, match="dangling"):
            ColoredGraph(["a"], [Edge("e", "a", "b", "c")])

    def test_immutable(self):
        g = path_graph(2)
        with pytest.raises(AttributeError):
            g.vertices = ()

    def test_loop_counts_twice_in_valence(self):
        g = ColoredGraph(["a"], [Edge("l", "a", "a", "c")])
        assert g.valence("a") == 2
        ends = g.incident_ends("a")
        assert len(ends) == 2
        assert {sign for _, sign in ends} == {+1, -1}

    def test_star_in_edge_id_order_loop_tail_end_first(self):
        g = ColoredGraph(
            ["a", "b"],
            [Edge("3", "b", "a", "c"), Edge("2", "a", "a", "c"),
             Edge("1", "a", "b", "c")],
        )
        assert [(e.id, sign) for e, sign in g.incident_ends("a")] == [
            ("1", +1), ("2", +1), ("2", -1), ("3", -1)
        ]
        assert [e.id for e in out_edges(g, "a")] == ["1", "2"]
        assert [e.id for e in in_edges(g, "a")] == ["2", "3"]

    def test_restricted_keeps_only_endpoint_vertices(self):
        g = path_graph(4)
        sub = restricted(g, ["e0"])
        assert sub.vertices == ("v0", "v1")
        assert [e.id for e in sub.edges] == ["e0"]

    def test_edge_lookup(self):
        g = path_graph(3)
        assert g.edge("e1").head == "v2"
        with pytest.raises(StructureError):
            g.edge("nope")


def test_bouquet_shape():
    b = bouquet(["r", "g"])
    assert b.vertices == ("*",)
    assert {e.color for e in b.edges} == {"g", "r"}
    assert {e.id for e in b.edges} == {"x0:g", "x0:r"}
    assert all(e.tail == e.head == "*" for e in b.edges)


class TestGraphMap:
    def test_check_accepts_identity(self):
        g = path_graph(3)
        GraphMap(g, g, {v: v for v in g.vertices}, {e.id: e.id for e in g.edges})

    def test_missing_vertex_image(self):
        g = path_graph(2)
        with pytest.raises(StructureError, match="no image"):
            GraphMap(g, g, {"v0": "v0"}, {"e0": "e0"})

    def test_tail_preservation_enforced(self):
        g = path_graph(2)
        with pytest.raises(StructureError, match="tail"):
            GraphMap(g, g, {"v0": "v1", "v1": "v0"}, {"e0": "e0"})

    def test_color_mismatch_when_palette_contained(self):
        src = ColoredGraph(["a", "b"], [Edge("e", "a", "b", "r")])
        dst = ColoredGraph(["x", "y"], [Edge("f", "x", "y", "r"), Edge("h", "x", "y", "g")])
        with pytest.raises(StructureError, match="color"):
            GraphMap(src, dst, {"a": "x", "b": "y"}, {"e": "h"})

    def test_color_checked_when_palette_disjoint(self):
        src = ColoredGraph(["a", "b"], [Edge("e", "a", "b", "odd")])
        dst = ColoredGraph(["x", "y"], [Edge("f", "x", "y", "r")])
        with pytest.raises(StructureError, match="color not preserved"):
            GraphMap(src, dst, {"a": "x", "b": "y"}, {"e": "f"})


class TestImmersion:
    def test_injective_star_is_immersion(self):
        g = ColoredGraph(
            ["u", "v"],
            [Edge("1", "u", "v", "r"), Edge("2", "v", "u", "g")],
        )
        assert is_immersion(g)

    def test_two_out_edges_same_color_fail(self):
        g = ColoredGraph(
            ["u", "v", "w"],
            [Edge("1", "u", "v", "r"), Edge("2", "u", "w", "r")],
        )
        assert not is_immersion(g)

    def test_two_in_edges_same_color_fail(self):
        g = ColoredGraph(
            ["u", "v", "w"],
            [Edge("1", "v", "u", "r"), Edge("2", "w", "u", "r")],
        )
        assert not is_immersion(g)


class TestCover:
    def test_double_cover_of_loop(self):
        b = bouquet(["r"])
        src = ColoredGraph(
            ["0", "1"],
            [Edge("a", "0", "1", "r"), Edge("b", "1", "0", "r")],
        )
        m = GraphMap(
            src, b, {"0": "*", "1": "*"}, {"a": "x0:r", "b": "x0:r"}
        )
        assert is_degree_n_cover(m, 2)
        assert not is_degree_n_cover(m, 1)

    def test_immersion_that_misses_an_edge_is_no_cover(self):
        b = bouquet(["r", "g"])
        src = ColoredGraph(["0"], [Edge("a", "0", "0", "r")])
        m = GraphMap(src, b, {"0": "*"}, {"a": "x0:r"})
        assert is_immersion(src)
        assert not is_degree_n_cover(m, 1)


class TestComponentsAndRank:
    def test_components_ordered_by_least_vertex(self):
        g = ColoredGraph(
            ["p", "q", "a", "b"],
            [Edge("1", "p", "q", "c"), Edge("2", "a", "b", "c")],
        )
        comps = connected_components(g)
        assert [c.vertices[0] for c in comps] == ["a", "p"]

    def test_rank_of_cycle_and_tree(self):
        assert free_rank(cycle_graph(5)) == 1
        assert free_rank(path_graph(5)) == 0
        assert free_rank(bouquet(["r", "g", "b"])) == 3

    def test_rank_requires_connected(self):
        g = ColoredGraph(["a", "b"], [])
        with pytest.raises(DisconnectedError):
            free_rank(g)

    def test_rank_is_component_additive(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_colored_graph(rng, connected=False)
            comps = connected_components(g)
            assert sorted(v for c in comps for v in c.vertices) == list(g.vertices)
            assert sum(len(c.edges) for c in comps) == len(g.edges)
            total = sum(free_rank(c) for c in comps)
            assert total == len(g.edges) - len(g.vertices) + len(comps)


def reference_components(g: ColoredGraph) -> list[tuple[tuple, tuple]]:
    """(vertices, edges) of each component on the reference union-find,
    ordered by least vertex."""
    uf = UnionFind(g.vertices)
    for e in g.edges:
        uf.union(e.tail, e.head)
    members: dict = {}
    for v in g.vertices:
        members.setdefault(uf.find(v), []).append(v)
    return [
        (tuple(vs), tuple(e for e in g.edges if uf.find(e.tail) == r))
        for r, vs in members.items()
    ]


class TestUnionFind:
    def test_only_multigraph_writes_a_union_find(self):
        # one union-find for the library: multigraph's root, join, classes
        # and named_classes, which return the roots and the closing count
        # together; no UnionFind class, no private copy elsewhere and no
        # count-only twin
        names = {"root", "join", "classes", "_root", "_join", "find"}
        found, forms = [], set()
        for path in sorted(Path(artinsplit.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and node.name == "UnionFind":
                    found.append((path.stem, node.name))
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if (
                    (node.name in names and path.stem != "multigraph")
                    or node.name == "_forest"
                    or node.name.endswith("closing_pairs")
                ):
                    found.append((path.stem, node.name))
                # the union-find's functions take a parent list or the
                # pairs to join
                args = {a.arg for a in node.args.args}
                if path.stem == "multigraph" and args & {"parent", "pairs"}:
                    forms.add(node.name)
        assert found == []
        assert forms == {"root", "join", "classes", "named_classes"}

    def test_graph_counts_match_the_reference(self):
        # loops, parallel edges and isolated vertices, and the empty graph
        rng = random.Random(13)
        graphs = [ColoredGraph([], [])] + [
            random_colored_graph(rng, max_vertices=8, max_edges=10,
                                 connected=False)
            for _ in range(300)
        ]
        kinds = set()
        for g in graphs:
            ends = [tuple(sorted((e.tail, e.head))) for e in g.edges]
            if any(a == b for a, b in ends):
                kinds.add("loop")
            if len(set(ends)) < len(ends):
                kinds.add("parallel")
            if any(not g.valence(v) for v in g.vertices):
                kinds.add("isolated")
            ref = reference_components(g)
            assert [
                (c.vertices, c.edges) for c in connected_components(g)
            ] == ref
            if len(ref) == 1:
                assert free_rank(g) == len(g.edges) - len(g.vertices) + 1
            else:
                with pytest.raises(DisconnectedError):
                    free_rank(g)
        assert kinds == {"loop", "parallel", "isolated"}

    def test_defining_graph_tests_match_the_reference(self):
        rng = random.Random(17)
        graphs = [
            DefiningGraph.build([], []),
            DefiningGraph.build(["a"], []),
        ] + [
            random_defining_graph(rng, max_vertices=7, connected=False)
            for _ in range(300)
        ]
        seen = set()
        for g in graphs:
            uf = UnionFind(g.vertices)
            forest = all([uf.union(e.u, e.v) for e in g.edges])
            connected = len({uf.find(v) for v in g.vertices}) == 1
            labels = certify(g).evidence["labels"]
            assert (labels["is_forest"], labels["is_connected"]) == (
                forest, connected)
            seen.add((forest, connected))
        assert len(seen) == 4

    def test_join_is_undone_by_resetting_two_entries(self):
        # the orientation search's undo: after join, resetting the joined
        # root's parent and the survivor's size restores every root
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randint(1, 16)
            parent, size = list(range(n)), [1] * n
            log = []
            for _ in range(rng.randint(0, 2 * n)):
                before = ([root(parent, x) for x in range(n)], size[:])
                ra = root(parent, rng.randrange(n))
                rb = root(parent, rng.randrange(n))
                if ra != rb:
                    log.append((before, join(parent, size, ra, rb)))
            while log:
                (roots, sizes), (ra, rb) = log.pop()
                parent[ra] = ra
                size[rb] -= size[ra]
                assert [root(parent, x) for x in range(n)] == roots
                assert size == sizes


class TestBlocks:
    def test_loop_is_its_own_block(self):
        g = ColoredGraph(
            ["a", "b"],
            [Edge("l", "a", "a", "c"), Edge("e", "a", "b", "c")],
        )
        assert blocks(g) == [frozenset(["e"]), frozenset(["l"])]

    def test_parallel_edges_share_a_block(self):
        g = ColoredGraph(
            ["a", "b"],
            [Edge("1", "a", "b", "c"), Edge("2", "b", "a", "c")],
        )
        assert blocks(g) == [frozenset(["1", "2"])]

    def test_two_triangles_at_a_cut_vertex(self):
        g = ColoredGraph(
            ["a", "b", "c", "d", "e"],
            [
                Edge("1", "a", "b", "x"),
                Edge("2", "b", "c", "x"),
                Edge("3", "c", "a", "x"),
                Edge("4", "c", "d", "x"),
                Edge("5", "d", "e", "x"),
                Edge("6", "e", "c", "x"),
            ],
        )
        assert blocks(g) == [
            frozenset(["1", "2", "3"]),
            frozenset(["4", "5", "6"]),
        ]

    def test_blocks_partition_edges(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_colored_graph(rng, connected=False)
            bs = blocks(g)
            ids = [eid for b in bs for eid in b]
            assert sorted(ids) == sorted(e.id for e in g.edges)
            assert len(ids) == len(set(ids))

    def test_same_block_means_common_simple_cycle(self):
        # on blocks with >= 2 edges this is the defining property
        rng = random.Random(22)
        for _ in range(25):
            g = random_colored_graph(rng, max_vertices=6, max_edges=8)
            by_edge = {}
            for b in blocks(g):
                for eid in b:
                    by_edge[eid] = b
            ids = [e.id for e in g.edges]
            for i, e1 in enumerate(ids):
                for e2 in ids[i + 1 :]:
                    assert (by_edge[e1] == by_edge[e2]) == on_common_simple_cycle(
                        g, e1, e2
                    )

    def test_blocks_match_the_lowpoint_search(self):
        # larger multigraphs than the brute-force test above reaches, with
        # loops, parallel edges and several components
        rng = random.Random(23)
        seen = {"loop": 0, "parallel": 0, "components": 0}
        for _ in range(500):
            g = random_colored_graph(
                rng, max_vertices=14, max_edges=40, connected=False
            )
            assert blocks(g) == lowpoint_blocks(g)
            ends = [frozenset((e.tail, e.head)) for e in g.edges]
            seen["loop"] += any(len(x) == 1 for x in ends)
            seen["parallel"] += len(set(ends)) < len(ends)
            seen["components"] += len(connected_components(g)) > 1
        assert all(seen.values())


class TestBfsTree:
    def test_discovery_order_and_early_stop(self):
        g = cycle_graph(5)

        def step(v):
            for e, sign in g.incident_ends(v):
                yield (e.head if sign == +1 else e.tail), e.id

        assert bfs_tree("v0", step) == {
            "v0": None,
            "v1": ("v0", "e0"),
            "v4": ("v0", "e4"),
            "v2": ("v1", "e1"),
            "v3": ("v4", "e3"),
        }
        assert list(bfs_tree("v0", step, goal="v4")) == ["v0", "v1", "v4"]
        assert bfs_path("v0", "v3", step) == ["e4", "e3"]
        assert bfs_path("v0", "v0", step) == []
        assert bfs_path("v0", "zz", step) is None


class TestWalk:
    def test_rejects_non_incident_step(self):
        g = path_graph(3)
        with pytest.raises(StructureError):
            Walk(g, "v0", (("e1", +1),))

    def test_rejects_unknown_start(self):
        g = path_graph(2)
        with pytest.raises(StructureError):
            Walk(g, "zz", ())

    def test_traversal_both_ways(self):
        g = path_graph(3)
        w = Walk(g, "v2", (("e1", -1), ("e0", -1)))
        assert w.vertices() == ("v2", "v1", "v0")
        assert is_simple_path(w)

    def test_simple_cycle_detection(self):
        g = cycle_graph(3)
        w = Walk(g, "v0", (("e0", +1), ("e1", +1), ("e2", +1)))
        assert w.is_simple_cycle()
        back_and_forth = Walk(g, "v0", (("e0", +1), ("e0", -1)))
        assert back_and_forth.vertices() == ("v0", "v1", "v0")
        assert not back_and_forth.is_simple_cycle()

    def test_walks_that_are_not_simple_cycles(self):
        # open, empty, through a vertex twice, along an edge twice
        g = ColoredGraph(["a", "b", "c", "d", "e"], [
            Edge("ab", "a", "b", "x"), Edge("bc", "b", "c", "x"),
            Edge("ca", "c", "a", "x"), Edge("ad", "a", "d", "x"),
            Edge("de", "d", "e", "x"), Edge("ea", "e", "a", "x"),
        ])
        triangle = (("ab", +1), ("bc", +1), ("ca", +1))
        assert Walk(g, "a", triangle).is_simple_cycle()
        figure_eight = triangle + (("ad", +1), ("de", +1), ("ea", +1))
        back_and_forth = (("ab", +1), ("ab", -1))
        for steps in (triangle[:2], (), figure_eight, back_and_forth):
            assert not Walk(g, "a", steps).is_simple_cycle(), steps

    def test_loop_step_is_a_simple_cycle(self):
        g = ColoredGraph(["a"], [Edge("l", "a", "a", "c")])
        w = Walk(g, "a", (("l", +1),))
        assert w.is_simple_cycle()

    def test_word_reads_colors_and_signs(self):
        g = ColoredGraph(
            ["u", "v"],
            [Edge("1", "u", "v", "r"), Edge("2", "u", "v", "g")],
        )
        w = Walk(g, "u", (("1", +1), ("2", -1)))
        assert w.word() == (("r", +1), ("g", -1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_simple_cycle_count_matches_rank_on_theta_free_graphs(seed):
    # in any connected graph the simple cycles span the cycle space, so
    # there are at least free_rank of them
    rng = random.Random(seed)
    g = random_colored_graph(rng, max_vertices=5, max_edges=7)
    cycles = all_simple_cycles(g)
    for w in cycles:
        assert w.is_simple_cycle()
    assert len(cycles) >= free_rank(g)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_components_are_deterministic(seed):
    rng1, rng2 = random.Random(seed), random.Random(seed)
    g1 = random_colored_graph(rng1, connected=False)
    g2 = random_colored_graph(rng2, connected=False)
    assert [(c.vertices, c.edges) for c in connected_components(g1)] == [
        (c.vertices, c.edges) for c in connected_components(g2)
    ]
    assert blocks(g1) == blocks(g2)


def test_shortest_path_matches_the_level_by_level_search():
    # the one BFS against a plain level-by-level search that sorts each
    # vertex's edges by id, with and without banned vertices and edges
    rng = random.Random(7)
    for _ in range(300):
        g = random_colored_graph(rng, max_vertices=8, max_edges=12)
        ids = [e.id for e in g.edges]
        for _ in range(5):
            src, dst = rng.choice(g.vertices), rng.choice(g.vertices)
            others = [v for v in g.vertices if v not in (src, dst)]
            banned = (set(rng.sample(others, min(len(others), 2))),
                      set(rng.sample(ids, min(len(ids), 2))))
            for bans in ((), banned):
                assert shortest_path(g, src, dst, *bans) == (
                    shortest_path_by_levels(g, src, dst, *bans)
                )
