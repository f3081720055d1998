import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsplit import (DefiningGraph, InvalidDefiningGraph, SchemaError,
                        certify, require_valid, validate)
from artinsplit.defining_graph import all_labels_even, is_bipartite
from artinsplit.orientation import (
    ORACLE_MAX_LEN,
    _canonical,
    _closed_walks,
    oracle_almost_misdirected,
)
from generators import random_defining_graph, ring, triangle
from oracles import eager_cycles, neighbours_by_edge_scan


class TestBuild:
    def test_endpoints_stored_sorted(self):
        g = DefiningGraph.build(["a", "b"], [("b", "a", 3, "a")])
        e = g.edges[0]
        assert (e.u, e.v) == ("a", "b")
        assert e.color == "a-b"
        assert e.iota == "a"
        assert e.other("a") == "b"

    def test_input_order_preserved(self):
        g = DefiningGraph.build(
            ["z", "a"], [("z", "a", 2, None)]
        )
        assert g.vertices == ("z", "a")

    def test_labels_sorted(self):
        assert triangle((5, 3, 4)).labels() == (3, 4, 5)

    def test_neighbours(self):
        g = triangle()
        assert g.neighbours("a") == ("b", "c")

    def test_neighbours_match_the_edge_scan(self):
        # graphs that need not be connected, so with isolated vertices,
        # and some with a loop, a parallel edge or an endpoint that is not
        # a vertex, which validate refuses but neighbours still answers
        rng = random.Random(11)
        isolated = 0
        for _ in range(300):
            g = random_defining_graph(
                rng, max_vertices=9, max_extra_edges=6, connected=False)
            rows = [(e.u, e.v, e.label, None) for e in g.edges]
            if rng.random() < 0.3:
                u, v = rng.choice(g.vertices), rng.choice(g.vertices)
                rows.append(rng.choice(((u, u, 3), (u, v, 4), (u, "zz", 5))))
            g = DefiningGraph.build(g.vertices, rows)
            for v in g.vertices + ("zz", "nope"):
                assert g.neighbours(v) == neighbours_by_edge_scan(g, v), v
            isolated += sum(not g.neighbours(v) for v in g.vertices)
        assert isolated > 100

    def test_edge_between_either_order(self):
        g = triangle()
        assert g.edge_between("c", "a") is g.edge_between("a", "c")
        assert g.edge_between("a", "a") is None

    def test_with_orientation_replaces_iota(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 5, None)])
        g2 = g.with_orientation({("a", "b"): "b"})
        assert g2.edges[0].iota == "b"
        assert g.edges[0].iota is None  # original untouched

    def test_a_spec_of_another_length_is_refused(self):
        # a 2-tuple used to raise a bare IndexError, and a 5-tuple's fifth
        # item was silently dropped
        for spec, count in ((("a", "b"), 2), (("a", "b", 3, "a", "x"), 5)):
            with pytest.raises(SchemaError, match=(
                    rf"^edges\[1\]: expected 3 or 4 items, got {count}$")):
                DefiningGraph.build(["a", "b", "c"],
                                    [("b", "c", 2), spec])

    def test_a_spec_that_is_not_a_tuple_or_list_is_refused(self):
        # a string spec used to be split into characters, "abc" building
        # edge a-b with label "c", and an int or None spec raised a bare
        # TypeError
        for spec, kind in (("abc", "str"), (5, "int"), (None, "NoneType")):
            with pytest.raises(SchemaError, match=(
                    rf"^edges\[0\]: expected a tuple or list, got {kind}$")):
                DefiningGraph.build(["a", "b", "c"], [spec])

    def test_is_triangle(self):
        assert triangle().is_triangle()
        assert not random_path().is_triangle()


def random_path():
    return DefiningGraph.build(
        ["a", "b", "c"], [("a", "b", 3, "a"), ("b", "c", 2, None)]
    )


class TestValidate:
    def test_clean_graph_reports_ok(self):
        rep = validate(triangle())
        assert rep.ok and rep.iota_total
        assert rep.orientable_edges == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_label_too_small(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 1, None)])
        rep = validate(g)
        assert any("label" in p for p in rep.problems)

    def test_loop_rejected(self):
        g = DefiningGraph.build(["a"], [("a", "a", 3, "a")])
        assert any("loop" in p for p in validate(g).problems)

    def test_duplicate_edge_rejected(self):
        g = DefiningGraph.build(
            ["a", "b"], [("a", "b", 3, "a"), ("b", "a", 4, "b")]
        )
        assert any("duplicate edge" in p for p in validate(g).problems)

    def test_iota_on_label_two_rejected(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 2, "a")])
        assert any("must not carry iota" in p for p in validate(g).problems)

    def test_iota_must_be_an_endpoint(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 3, "z")])
        assert any("not an endpoint" in p for p in validate(g).problems)

    def test_missing_iota_only_flips_totality(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 3, None)])
        rep = validate(g)
        assert rep.ok and not rep.iota_total

    def test_duplicate_vertex_names(self):
        g = DefiningGraph.build(["b", "a", "c", "b", "a"], [])
        assert validate(g).problems == ("duplicate vertex names: a, b",)

    def test_vertex_name_characters(self):
        g = DefiningGraph.build(["a+b"], [])
        assert any("vertex name" in p for p in validate(g).problems)
        ok = DefiningGraph.build(["x_1", "y.2"], [("x_1", "y.2", 2, None)])
        assert validate(ok).ok

    def test_vertex_name_that_is_not_a_string(self):
        # reported before the names are hashed or sorted, so an unhashable
        # name is a problem too, and certify refuses the graph
        rep = validate(DefiningGraph.build([1, 2], [(1, 2, 3, 1)]))
        assert rep.problems == ("vertex name 1: expected a string",
                                "vertex name 2: expected a string")
        for name in (1, None, ["a"]):
            g = DefiningGraph.build([name, "b"], [])
            assert validate(g).problems == (
                f"vertex name {name!r}: expected a string",)
            with pytest.raises(InvalidDefiningGraph, match="expected a string"):
                certify(g)

    def test_edge_endpoint_that_is_not_a_string(self):
        # build keeps such an edge unsorted, and validate reports it before
        # the endpoint is looked up, hashed in a key or sorted
        for end in (1, ["b"]):
            g = DefiningGraph.build(["a", "b"], [("a", end, 3, "a")])
            assert validate(g).problems == (
                f"edge a-{end!r}: endpoints must be strings",)
            with pytest.raises(InvalidDefiningGraph, match="must be strings"):
                certify(g)

    def test_require_valid_oriented(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 3, None)])
        require_valid(g, oriented=False)
        with pytest.raises(InvalidDefiningGraph, match="requires iota"):
            require_valid(g, oriented=True)

    def test_require_valid_collects_problems(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 1, None)])
        with pytest.raises(InvalidDefiningGraph) as e:
            require_valid(g, oriented=False)
        assert e.value.report.problems


class TestPredicates:
    def test_connected(self):
        assert certify(triangle()).evidence["labels"]["is_connected"]
        g = DefiningGraph.build(["a", "b", "c", "d"], [("a", "b", 2, None)])
        assert not certify(g).evidence["labels"]["is_connected"]

    def test_forest(self):
        assert certify(random_path()).evidence["labels"]["is_forest"]
        assert not certify(triangle()).evidence["labels"]["is_forest"]

    def test_bipartite(self):
        assert not is_bipartite(triangle())
        assert is_bipartite(ring((4, 4, 4, 4), tails=(None,) * 4))

    def test_bipartite_matches_brute_force_two_colouring(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(300):
            g = random_defining_graph(
                rng, max_vertices=8, max_extra_edges=6,
                connected=rng.random() < 0.5,
            )
            index = {v: i for i, v in enumerate(g.vertices)}
            two_colours = any(
                all(side[index[e.u]] != side[index[e.v]] for e in g.edges)
                for side in itertools.product((0, 1), repeat=len(index))
            )
            assert is_bipartite(g) == two_colours
            seen.add(two_colours)
        assert seen == {True, False}

    def test_all_labels_even(self):
        assert all_labels_even(
            DefiningGraph.build(["a", "b"], [("a", "b", 6, "a")])
        )
        assert not all_labels_even(triangle())


class TestCycles:
    """The oracle's closed-walk generator, `orientation._closed_walks`, and
    its canonical form, on defining graphs."""

    def test_canonical_cycle_of_rotation_and_reversal(self):
        base = _canonical(("a", "b", "c", "d"))
        assert _canonical(("c", "d", "a", "b")) == base
        assert _canonical(("d", "c", "b", "a")) == base

    def test_triangle_has_one_short_cycle(self):
        # the triangle itself, then its laps of 6 and 9 up to the bound 10
        cycles = list(_closed_walks(triangle()))
        assert cycles == [("a", "b", "c") * k for k in (1, 2, 3)]

    def test_an_invalid_graph_is_refused_at_the_call(self):
        g = DefiningGraph.build(["a", "b"], [("a", "b", 1, None)])
        with pytest.raises(InvalidDefiningGraph, match="label must be"):
            oracle_almost_misdirected(g)

    def test_matches_the_eager_reference_in_order(self):
        # the walks come lazily, in the sorted order of their canonical
        # forms, up to the fixed bound
        rng = random.Random(34)
        for _ in range(300):
            g = random_defining_graph(rng, max_extra_edges=3)
            assert list(_closed_walks(g)) == eager_cycles(
                g, ORACLE_MAX_LEN), g

    def test_no_duplicates_up_to_symmetry(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_defining_graph(rng, max_vertices=6, max_extra_edges=3)
            cycles = list(_closed_walks(g))
            assert len(cycles) == len({_canonical(c) for c in cycles})


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_generated_graphs_validate(seed):
    rng = random.Random(seed)
    g = random_defining_graph(rng)
    rep = validate(g)
    assert rep.ok
    assert certify(g).evidence["labels"]["is_connected"]


@settings(max_examples=50, deadline=None)
@given(
    vertices=st.lists(
        st.sampled_from(["a", "b", "c", "d", "e"]), min_size=3, max_size=5, unique=True
    ),
    rotate=st.integers(0, 4),
)
def test_canonical_cycle_is_rotation_invariant(vertices, rotate):
    seq = tuple(vertices)
    rotated = seq[rotate % len(seq):] + seq[: rotate % len(seq)]
    assert _canonical(seq) == _canonical(rotated)
    assert _canonical(seq) == _canonical(tuple(reversed(seq)))
