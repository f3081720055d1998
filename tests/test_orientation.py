import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsplit import (
    ColoredGraph,
    DefiningGraph,
    Edge,
    SearchSpaceError,
    WitnessCycle,
    check_witness,
    compute_splitting,
    enumerate_cycles,
    blocks,
    find_admissible_orientation,
    is_admissible,
    oracle_almost_misdirected,
)
from artinsplit import orientation
from artinsplit.multigraph import classes, join, named_classes, root
from artinsplit.orientation import (
    MAX_ORIENTABLE_EDGES,
    _is_cycle_expression,
    collapsed_lifts,
    edge_lifts,
    quarter_vertices,
)
from generators import (
    LABELS,
    directed_cactus,
    glued_cycle_blocks,
    random_defining_graph,
    square_chain,
    triangle,
    with_random_orientation,
)
from oracles import (
    first_admissible_orientation,
    first_admissible_orientation_by_blocks,
    oracle_by_expressions,
    sign_cover_verdict,
)


def is_directed(cycle, iota):
    """Whether every edge of the cycle, a vertex sequence, has its tail
    before its head, or every edge its head before its tail."""
    steps = zip(cycle, cycle[1:] + cycle[:1])
    forward = {iota[tuple(sorted(step))] == step[0] for step in steps}
    return len(forward) == 1


CYCLIC = triangle()
# two tails at the same vertex close an almost misdirected triangle
CLASHING = triangle(tails=("a", "b", "a"))
ALL_TWOS = triangle((2, 2, 2), tails=(None,) * 3)


# vertex names whose sorted order is neither their order here nor the order
# of their first letters
MIXED_NAMES = ("a", "a1", "a10", "a9", "a.b", "a_", "A", "B", "b", "b.c", "b1",
               "bb", "c_1", "Z9")


def collapsed_of(g):
    return collapsed_lifts(edge_lifts(g), g.orientation())


def reversed_tails(g, edges):
    """g with the tail of each orientable edge among `edges` moved to its
    other end."""
    return g.with_orientation(
        {e.key: e.other(e.iota) for e in edges if e.label >= 3})


def first_orientable(g):
    """The first orientable edge in search order, by (label, endpoints)."""
    return min((e for e in g.edges if e.label >= 3),
               key=lambda e: (e.label, e.key))


class TestDoubleCover:
    def test_shape_and_ids(self):
        # quarter ids follow the vertex list, unsorted: v+ is i, v- is n + i;
        # the p lift of edge {u, v} joins u+ to v-, the m lift u- to v+
        g = DefiningGraph.build(
            ["c", "a", "b", "d"],
            [("a", "b", 3, "a"), ("c", "b", 2, None), ("a", "c", 4, "c"),
             ("c", "d", 5, "d")],
        )
        n = len(g.vertices)
        at = {v: i for i, v in enumerate(g.vertices)}
        names = quarter_vertices(g)
        assert names == ["c+", "a+", "b+", "d+", "c-", "a-", "b-", "d-"]
        lifts = edge_lifts(g)
        assert [e for e, _, _ in lifts] == list(g.sorted_edges)
        for e, p, m in lifts:
            assert p == (at[e.u], n + at[e.v])
            assert m == (n + at[e.u], at[e.v])
            assert [names[q] for q in p + m] == [
                e.u + "+", e.v + "-", e.u + "-", e.v + "+"
            ]

    def test_collapsed_lift_follows_iota(self):
        # sorted edges a-b, a-c, b-c with tails a, c, b: a-b collapses its
        # p lift 0 (a+ to b-), a-c its m lift 3 (a- to c+), b-c its p
        # lift 4 (b+ to c-)
        assert collapsed_of(CYCLIC) == {0: (0, 4), 3: (3, 2), 4: (1, 5)}

    def test_label_two_collapses_both_lifts(self):
        assert sorted(collapsed_of(ALL_TWOS)) == list(range(6))

    def test_collapsed_cycle_detection(self):
        # the lifts that close a cycle among the verdict's collapsed lifts
        def closing(g):
            collapsed = is_admissible(g).collapsed
            return classes(2 * len(g.vertices), collapsed.values())[1]

        assert closing(ALL_TWOS)
        assert not closing(CYCLIC)


class TestIsAdmissible:
    def test_cyclic_triangle_is_admissible_for_any_labels(self):
        for labels in [(3, 3, 3), (5, 4, 4), (9, 3, 7)]:
            assert is_admissible(triangle(labels)).admissible

    def test_clashing_tails_are_inadmissible(self):
        verdict = is_admissible(CLASHING)
        assert not verdict.admissible
        assert verdict.reason
        assert verdict.witness is not None
        assert check_witness(CLASHING, verdict.witness)

    def test_label_two_triangle_is_inadmissible(self):
        verdict = is_admissible(ALL_TWOS)
        assert not verdict.admissible
        assert "cycle" in verdict.reason
        assert check_witness(ALL_TWOS, verdict.witness)

    def test_forests_are_always_admissible(self):
        rng = random.Random(9)
        for _ in range(50):
            g = random_defining_graph(rng, max_vertices=6, max_extra_edges=0)
            oriented = with_random_orientation(rng, g)
            assert is_admissible(oriented).admissible

    def test_large_type_with_every_simple_cycle_directed_is_admissible(self):
        # the paper's splitting criterion for large type (every label at
        # least 3): an orientation that directs every simple cycle of the
        # defining graph is admissible; all 2^k orientations are tried on
        # graphs with a cycle (forests are checked above)
        rng = random.Random(13)
        directed = 0
        for _ in range(400):
            shape = random_defining_graph(rng, max_vertices=6, max_extra_edges=4)
            g = DefiningGraph.build(
                shape.vertices,
                [(e.u, e.v, rng.randint(3, 7), None) for e in shape.edges],
            )
            cycles = [c for c in enumerate_cycles(g, max_len=6)
                      if len(set(c)) == len(c)]
            if not cycles:
                continue
            edges = g.sorted_edges
            for tails in itertools.product(*((e.u, e.v) for e in edges)):
                iota = {e.key: t for e, t in zip(edges, tails)}
                if all(is_directed(c, iota) for c in cycles):
                    directed += 1
                    assert is_admissible(g.with_orientation(iota)).admissible
        assert directed

    def test_large_type_cacti_with_every_cycle_directed_split(self):
        # the abstract's large-type sentence, on cacti (only they can have
        # every simple cycle directed); flipping every other edge makes most
        # of the same cacti inadmissible, so the check can fail
        rng = random.Random(14)
        flipped_inadmissible = 0
        for _ in range(2000):
            g = directed_cactus(rng)
            verdict = is_admissible(g)
            assert verdict.admissible
            splitting = compute_splitting(verdict)
            assert (splitting.rank_a, splitting.rank_b) == (
                len(g.edges), 1 - len(g.vertices) + 2 * len(g.edges))
            flipped = g.with_orientation(
                {e.key: e.other(e.iota) for e in g.edges[1::2]})
            flipped_inadmissible += not is_admissible(flipped).admissible
        assert flipped_inadmissible > 1500

    def test_reversing_every_tail_keeps_the_verdict(self):
        # reversal maps the collapsed lifts onto their images under the deck
        # involution v+ <-> v- of the sign double cover, so an orientation
        # and its mirror image are admissible together; every graph has a
        # label-2 edge, every other orientation is searched, and a search
        # gives its first orientable edge tail u
        rng = random.Random(61)
        seen = {True: 0, False: 0}
        searched = 0
        while sum(seen.values()) < 1000:
            g = random_defining_graph(rng, max_vertices=8, max_extra_edges=4)
            labels = {e.label for e in g.edges}
            if 2 not in labels or labels == {2}:
                continue
            found = None
            if sum(seen.values()) % 2:
                found = find_admissible_orientation(g)
            if found is None:
                g = with_random_orientation(rng, g)
            else:
                first = first_orientable(g)
                assert next(iter(found.items())) == (first.key, first.u)
                g = g.with_orientation(found)
                searched += 1
            admissible = is_admissible(g).admissible
            assert is_admissible(reversed_tails(g, g.edges)).admissible == (
                admissible), g
            seen[admissible] += 1
        assert searched > 100
        assert seen[True] > 150 and seen[False] > 500

    def test_admissibility_is_block_local(self):
        # every simple cycle lies in one biconnected block, so the graph is
        # admissible exactly when each block is, taken as its own graph; so
        # reversing the tails of one block alone keeps the verdict too
        rng = random.Random(17)
        seen = {True: 0, False: 0}
        for i in range(1000):
            g = glued_cycle_blocks(rng)
            assignment = None
            if i % 2:
                try:
                    assignment = find_admissible_orientation(g)
                except SearchSpaceError:
                    pass
            if assignment is None:
                g = with_random_orientation(rng, g)
            else:
                if rng.random() < 0.5:
                    u, v = key = rng.choice(sorted(assignment))
                    assignment[key] = v if assignment[key] == u else u
                g = g.with_orientation(assignment)
            cg = ColoredGraph(
                g.vertices, [Edge(e.color, e.u, e.v, e.color) for e in g.edges]
            )
            admissible = is_admissible(g).admissible
            parts = []
            for block in blocks(cg):
                edges = [e for e in g.edges if e.color in block]
                parts.append(DefiningGraph.build(
                    sorted({v for e in edges for v in e.key}),
                    [(e.u, e.v, e.label, e.iota) for e in edges],
                ))
                assert is_admissible(reversed_tails(g, edges)).admissible == (
                    admissible)
            assert len(parts) >= 2
            assert admissible == all(is_admissible(p).admissible for p in parts)
            seen[admissible] += 1
        assert seen[True] > 50 and seen[False] > 500

    @pytest.mark.parametrize(
        "g, vertices, tails, reason",
        [
            # a collapsed cycle meeting both lifts of a, split there
            (ALL_TWOS, ("a", "b", "c"), ("b", "b", "a"),
             "collapsed lifts contain a cycle"),
            # a collapsed cycle meeting no vertex in both signs: an even
            # misdirected cycle
            (
                DefiningGraph.build(
                    ["a", "b", "c", "d"],
                    [("a", "b", 2, None), ("b", "c", 2, None),
                     ("c", "d", 2, None), ("a", "d", 2, None)],
                ),
                ("b", "c", "d", "a"), ("c", "c", "a", "a"),
                "collapsed lifts contain a cycle",
            ),
            # the two lifts of b joined
            (CLASHING, ("b", "a", "c"), ("a", "a", "b"),
             "two lifts of one vertex are joined by collapsed lifts"),
            # the uncollapsed lift of a-b closes a collapsed path
            (
                DefiningGraph.build(
                    ["a", "b", "c", "d"],
                    [("a", "b", 4, "a"), ("b", "c", 2, None),
                     ("a", "d", 5, "d"), ("c", "d", 6, "d")],
                ),
                ("a", "d", "c", "b"), ("d", "d", "b", "a"),
                "an uncollapsed lift closes a collapsed path",
            ),
        ],
        ids=["cycle-split", "cycle-even", "two-lifts", "uncollapsed-lift"],
    )
    def test_witness_on_each_path(self, g, vertices, tails, reason):
        verdict = is_admissible(g)
        assert (verdict.witness.vertices, verdict.witness.tails, verdict.reason) == (
            vertices, tails, reason
        )

    def test_verdict_matches_the_string_reference(self):
        # admissible, reason and witness against the reference criterion on
        # quarter names and the dict-based union-find; every other graph
        # takes the search's admissible orientation, when there is one,
        # with one tail flipped, which reaches the rarest reason, an
        # uncollapsed lift, more often (34 times here)
        rng = random.Random(37)
        reasons = {}
        for i in range(800):
            g = random_defining_graph(rng, max_vertices=7)
            found = find_admissible_orientation(g) if i % 2 else None
            if found:
                key = rng.choice(sorted(found))
                found[key] = g.edge_between(*key).other(found[key])
                g = g.with_orientation(found)
            else:
                g = with_random_orientation(rng, g)
            verdict = is_admissible(g)
            assert (verdict.admissible, verdict.witness,
                    verdict.reason) == sign_cover_verdict(g)
            reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
        assert len(reasons) == 4 and min(reasons.values()) >= 20

    def test_verdict_matches_the_string_reference_under_name_order(self):
        # quarter ids follow the input order of the vertices, but the
        # witness is chosen in the order of the quarter names; these names
        # sort apart from their input order and from each other's prefixes
        # (a10 before a9, a.b and a_ around a1, capitals first), so a
        # witness whose stars, search starts, split-vertex scan or pair
        # order followed the ids would differ; half the graphs take a
        # searched orientation with one tail flipped, as above
        rng = random.Random(43)
        reasons = {}
        for i in range(3000):
            g = random_defining_graph(rng, max_vertices=8)
            found = find_admissible_orientation(g) if i % 2 else None
            if found:
                key = rng.choice(sorted(found))
                found[key] = g.edge_between(*key).other(found[key])
                g = g.with_orientation(found)
            else:
                g = with_random_orientation(rng, g)
            names = rng.sample(MIXED_NAMES, len(g.vertices))
            name = dict(zip(g.vertices, names))
            rng.shuffle(names)
            g = DefiningGraph.build(names, [
                (name[e.u], name[e.v], e.label, e.iota and name[e.iota])
                for e in g.edges
            ])
            verdict = is_admissible(g)
            assert (verdict.admissible, verdict.witness,
                    verdict.reason) == sign_cover_verdict(g)
            reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
        assert len(reasons) == 4 and min(reasons.values()) >= 100

    def test_verdict_is_deterministic(self):
        v1 = is_admissible(CLASHING)
        v2 = is_admissible(CLASHING)
        assert v1.witness == v2.witness
        assert v1.reason == v2.reason


class TestCheckWitness:
    @staticmethod
    def witnesses(count):
        """(graph, witness) for every is_admissible witness and every
        oracle witness of `count` seeded randomly oriented graphs."""
        rng = random.Random(29)
        for _ in range(count):
            g = with_random_orientation(
                rng, random_defining_graph(rng, max_vertices=6, max_extra_edges=3)
            )
            for w in (is_admissible(g).witness, oracle_almost_misdirected(g)):
                if w is not None:
                    yield g, w

    def test_accepts_every_library_and_oracle_witness(self):
        # the closing tail of a label-2 edge is None or one of its ends
        closing_tails = set()
        for g, w in self.witnesses(2000):
            assert check_witness(g, w)
            if g.edge_between(w.vertices[-1], w.vertices[0]).label == 2:
                closing_tails.add(w.tails[-1] is None)
        assert closing_tails == {True, False}

    def test_rejects_tampered_tails(self):
        closing_oriented = 0
        for g, w in self.witnesses(300):
            seq, tails = w.vertices, w.tails
            for i in range(len(seq) - 1):
                flipped = seq[i + 1] if tails[i] == seq[i] else seq[i]
                bad = tails[:i] + (flipped,) + tails[i + 1 :]
                assert not check_witness(g, WitnessCycle(seq, bad))
            assert not check_witness(g, WitnessCycle(seq, tails[:-1]))
            closing = g.edge_between(seq[-1], seq[0])
            if closing.label >= 3:
                closing_oriented += 1
                for bad_tail in (None, closing.other(closing.iota)):
                    bad = tails[:-1] + (bad_tail,)
                    assert not check_witness(g, WitnessCycle(seq, bad))
        assert closing_oriented

    def test_rejects_a_walk_that_is_no_cycle_expression(self):
        # empty, too short, backtracking, or closed by a missing edge d-a
        # on a path whose tails alternate
        g = DefiningGraph.build(
            ["a", "b", "c", "d"],
            [("a", "b", 3, "a"), ("b", "c", 3, "c"), ("a", "c", 3, "c"),
             ("c", "d", 3, "c")],
        )
        for seq, tails in (((), ()), (("a", "b"), ("a", "a")),
                           (("a", "b", "a"), ("a", "a", "a")),
                           (("a", "b", "c", "d"), ("a", "c", "c", "d"))):
            assert not check_witness(g, WitnessCycle(seq, tails))

    def test_collapsed_cycle_witness_peels_its_wrap(self):
        # the collapsed cycle's arc wraps back over the edge v0-v3 at both
        # ends; peeling them leaves the triangle v3, v2, v4
        g = DefiningGraph.build(
            ["v0", "v1", "v2", "v3", "v4"],
            [("v2", "v4", 2, None), ("v0", "v1", 2, None),
             ("v0", "v3", 2, None), ("v1", "v4", 4, "v1"),
             ("v2", "v3", 4, "v3"), ("v1", "v2", 5, "v2"),
             ("v3", "v4", 3, "v4")],
        )
        verdict = is_admissible(g)
        assert verdict.reason == "collapsed lifts contain a cycle"
        assert verdict.witness == WitnessCycle(
            ("v3", "v2", "v4"), ("v3", "v4", "v4")
        )
        assert check_witness(g, verdict.witness)
        # unpeeled, the walk backtracks through v0
        assert not check_witness(g, WitnessCycle(
            ("v0", "v3", "v2", "v4", "v3"), ("v3", "v3", "v4", "v4", "v0")
        ))


class TestOracle:
    def test_no_cycle_on_cyclic_triangle(self):
        assert oracle_almost_misdirected(CYCLIC) is None

    def test_finds_cycle_on_clashing_triangle(self):
        w = oracle_almost_misdirected(CLASHING)
        assert w is not None
        assert check_witness(CLASHING, w)

    def test_bound_is_respected(self):
        # the offending cycle has length 3, so bound 2 must miss it
        assert oracle_almost_misdirected(CLASHING, max_len=2) is None

    def test_matches_the_expression_checking_reference(self):
        # the oracle tries each rotation's tails without re-checking it as a
        # cycle expression, since `enumerate_cycles` only makes those; the
        # reference re-checks every rotation first, and the two must return
        # the same witness, first edge forward before backward; a third of
        # the graphs take names whose sorted order differs from their input
        # order, which reorders the walks
        rng = random.Random(53)
        found = 0
        for i in range(1000):
            g = with_random_orientation(rng, random_defining_graph(
                rng, max_vertices=6, max_extra_edges=3))
            if i % 3 == 0:
                names = rng.sample(MIXED_NAMES, len(g.vertices))
                name = dict(zip(g.vertices, names))
                g = DefiningGraph.build(names, [
                    (name[e.u], name[e.v], e.label, e.iota and name[e.iota])
                    for e in g.edges
                ])
            for max_len in (6, 10):
                witness = oracle_almost_misdirected(g, max_len)
                assert witness == oracle_by_expressions(g, max_len), g
                found += witness is not None
            for cyc in enumerate_cycles(g, 10):
                for direction in (cyc, cyc[::-1]):
                    for shift in range(len(cyc)):
                        assert _is_cycle_expression(
                            g, direction[shift:] + direction[:shift])
        assert found >= 1000


class TestFindOrientation:
    def test_triangle_search_succeeds(self):
        assignment = find_admissible_orientation(triangle().with_orientation(
            {("a", "b"): None, ("b", "c"): None, ("a", "c"): None}
        ))
        assert assignment is not None
        oriented = triangle().with_orientation(assignment)
        assert is_admissible(oriented).admissible
        for (u, v), t in assignment.items():
            assert t in (u, v)

    def test_no_orientation_for_all_twos(self):
        assert find_admissible_orientation(ALL_TWOS) is None

    def test_provided_tails_do_not_leak_into_search(self):
        # search ranges over orientable edges regardless of present iota
        assignment = find_admissible_orientation(CLASHING)
        assert assignment is not None
        assert is_admissible(CLASHING.with_orientation(assignment)).admissible

    def test_search_is_complete_against_every_orientation(self):
        # None exactly when no orientation of the orientable edges is
        # admissible, checked by enumerating all 2^k of them
        rng = random.Random(11)
        checked = exhausted = 0
        while checked < 150:
            g = random_defining_graph(rng, max_vertices=8, max_extra_edges=4)
            orientable = [e for e in g.sorted_edges if e.label >= 3]
            if len(orientable) > 8:
                continue
            checked += 1
            any_admissible = any(
                is_admissible(g.with_orientation(
                    {e.key: t for e, t in zip(orientable, tails)}
                )).admissible
                for tails in itertools.product(*((e.u, e.v) for e in orientable))
            )
            found = find_admissible_orientation(g)
            assert (found is not None) == any_admissible
            if found is None:
                exhausted += 1
            else:
                assert is_admissible(g.with_orientation(found)).admissible
        # both answers occur, so neither direction is checked vacuously
        assert 0 < exhausted < checked

    def test_search_returns_the_first_admissible_orientation(self):
        # the exact dict, edges in search order, that trying all 2^k
        # orientations in search order finds first, up to k = 10; about
        # half of these graphs have an edge whose tail is forced
        rng = random.Random(21)
        checked = exhausted = widest = 0
        while checked < 60:
            g = random_defining_graph(rng, max_vertices=11, max_extra_edges=4)
            k = sum(1 for e in g.edges if e.label >= 3)
            if k > 10:
                continue
            checked += 1
            widest = max(widest, k)
            expected = first_admissible_orientation(g)
            found = find_admissible_orientation(g)
            assert found == expected
            if found is None:
                exhausted += 1
            else:
                assert list(found) == list(expected)
        assert widest == 10
        assert 0 < exhausted < checked

    def test_search_returns_the_first_admissible_orientation_on_glued_blocks(
        self,
    ):
        # blocks sharing cut vertices, up to k = 10; every third graph draws
        # half its labels as 2, so that some have a cycle of label-2 edges,
        # whose lifts close a collapsed cycle and are refused at the root
        rng = random.Random(31)
        checked = exhausted = label_2_cycles = 0
        while checked < 100:
            labels = (2, 2, 2, 3, 4, 5) if checked % 3 == 0 else LABELS
            g = glued_cycle_blocks(rng, labels)
            if sum(1 for e in g.edges if e.label >= 3) > 10:
                continue
            checked += 1
            expected = first_admissible_orientation(g)
            found = find_admissible_orientation(g)
            assert found == expected
            assert first_admissible_orientation_by_blocks(g) == expected
            # both lifts of a label-2 edge collapse, and a sign cover is a
            # forest exactly when its base is
            twos = [(e.u, e.v) for e in g.edges if e.label == 2]
            if named_classes(g.vertices, twos)[1]:
                label_2_cycles += 1
                assert found is None
            if found is None:
                exhausted += 1
            else:
                assert list(found) == list(expected)
        assert label_2_cycles
        assert 0 < exhausted < checked

    def test_search_returns_the_first_admissible_orientation_on_wide_graphs(
        self,
    ):
        # 11 to 24 orientable edges, too many to try every orientation at
        # once, checked block by block.  The chain of three label-4 squares
        # and a label-9 K4 has 21, and only the K4 refutes it; so does every
        # chain here, labelled 3 to 8, whichever edges of it come first
        rng = random.Random(41)
        chain = square_chain([4] * 15 + [9] * 6)
        assert find_admissible_orientation(chain) is None
        graphs = [chain]
        graphs += [
            square_chain([rng.choice(LABELS[1:]) for _ in range(21)])
            for _ in range(10)
        ]
        while len(graphs) < 60:
            g = glued_cycle_blocks(rng)
            if sum(1 for e in g.edges if e.label >= 3) >= 11:
                graphs.append(g)
        exhausted = 0
        for g in graphs:
            assert 11 <= sum(1 for e in g.edges if e.label >= 3) <= 24
            expected = first_admissible_orientation_by_blocks(g)
            found = find_admissible_orientation(g)
            assert found == expected
            if found is None:
                exhausted += 1
            else:
                assert list(found) == list(expected)
        assert 0 < exhausted < len(graphs)

    def test_an_exhausted_search_never_tries_tail_v_first(self, monkeypatch):
        # tail u on the first orientable edge is a root move, never undone,
        # so a search that finds nothing never joins the ends of that edge's
        # m lift, which tail v collapses.  Whether it joins the ends of the
        # p lift tells a search that got past the root from one that the
        # label-2 lifts killed there; the K4-refuted chain and most of the
        # others get past it
        rng = random.Random(71)
        graphs = [square_chain([4] * 15 + [9] * 6)]
        graphs += [random_defining_graph(rng, max_vertices=8, max_extra_edges=5)
                   for _ in range(300)]
        past_root = []
        for g in graphs:
            if all(e.label == 2 for e in g.edges):
                continue
            first = first_orientable(g)
            _, p, m = next(el for el in edge_lifts(g) if el[0].key == first.key)
            joined = {"p": False, "m": False}

            def spy(parent, size, ra, rb):
                out = join(parent, size, ra, rb)
                for name, (a, b) in (("p", p), ("m", m)):
                    joined[name] |= root(parent, a) == root(parent, b)
                return out

            monkeypatch.setattr(orientation, "join", spy)
            if find_admissible_orientation(g) is None:
                assert not joined["m"], g
                past_root.append(joined["p"])
        assert past_root[0] and sum(past_root) >= 60

    def test_search_space_guard(self):
        names = [f"v{i}" for i in range(8)]
        rows = [
            (u, v, 3, None)
            for i, u in enumerate(names)
            for v in names[i + 1 :]
        ]
        big = DefiningGraph.build(names, rows)
        assert len(rows) > MAX_ORIENTABLE_EDGES
        with pytest.raises(SearchSpaceError):
            find_admissible_orientation(big)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_criterion_matches_bounded_oracle(seed):
    rng = random.Random(seed)
    g = with_random_orientation(
        rng, random_defining_graph(rng, max_vertices=6, max_extra_edges=3)
    )
    verdict = is_admissible(g)
    witness = oracle_almost_misdirected(g, max_len=10)
    assert verdict.admissible == (witness is None)
    if not verdict.admissible:
        assert check_witness(g, verdict.witness)
        assert check_witness(g, witness)
