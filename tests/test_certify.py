import ast
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter, OrderedDict
from enum import IntEnum
from pathlib import Path

import artinsplit
import pytest
from artinsplit import (
    ColoredGraph,
    DefiningGraph,
    Edge,
    OppressiveWords,
    build_collapsed,
    certify,
    compute_splitting,
    fiber_product,
    find_admissible_orientation,
    is_admissible,
    monochrome_check,
    oppressive_set,
)
from artinsplit import horizontal
from artinsplit.certify import (
    RESIDUALLY_FINITE,
    SPLITS_ONLY,
    UNKNOWN,
    _encode,
    canonical_json,
)
from generators import (
    LABELS,
    random_admissible_graph,
    random_bouquet_immersion,
    ring,
)
from oracles import canonical_json_reference, is_cover


def graph(vertices, rows):
    return DefiningGraph.build(vertices, rows)


def tri(*labels):
    return ring(labels, tails=(None,) * 3)


def square(*labels):
    return ring(labels, tails=(None,) * 4)


class TestRules:
    def test_forest_is_rf_without_caveats(self):
        cert = certify(graph(["a", "b", "c"], [("a", "b", 3, None), ("b", "c", 7, None)]))
        assert cert.verdict == RESIDUALLY_FINITE
        assert cert.rule == "R1"
        assert cert.citations
        assert not cert.caveats
        assert cert.splitting is None

    def test_disconnected_graph_is_not_decided(self):
        cert = certify(
            graph(
                ["a", "b", "c", "d", "e", "f"],
                [
                    ("a", "b", 3, None),
                    ("b", "c", 3, None),
                    ("a", "c", 3, None),
                    ("d", "e", 4, None),
                    ("e", "f", 4, None),
                    ("d", "f", 4, None),
                ],
            )
        )
        assert cert.verdict == UNKNOWN
        assert cert.rule == "R8"
        assert "free product" in cert.evidence["note"]

    def test_affine_triangles_are_rf(self):
        for labels in [(3, 3, 3), (2, 4, 4), (2, 3, 6)]:
            cert = certify(tri(*labels))
            assert cert.verdict == RESIDUALLY_FINITE
            assert cert.rule == "R3"
            assert cert.citations and not cert.caveats

    def test_big_label_triangles_are_rf(self):
        for labels in [(4, 4, 4), (5, 5, 5), (4, 5, 6), (9, 12, 7)]:
            cert = certify(tri(*labels))
            assert cert.verdict == RESIDUALLY_FINITE
            assert cert.rule == "R4"
            assert cert.caveats  # cited arguments are not recomputed

    def test_odd_four_four_falls_through_to_splitting(self):
        cert = certify(tri(5, 4, 4))
        assert cert.verdict == SPLITS_ONLY
        assert cert.rule == "R7"
        assert cert.splitting is not None
        assert cert.splitting.kind == "amalgam"
        assert cert.monochrome is not None
        assert not cert.monochrome.all_monochrome

    def test_even_square_with_big_labels_is_rf(self):
        cert = certify(square(6, 6, 8, 6))
        assert cert.verdict == RESIDUALLY_FINITE
        assert cert.rule == "R5"
        assert cert.splitting.kind == "hnn"
        assert len(cert.caveats) == 1

    def test_monochrome_square_is_rf(self):
        cert = certify(square(4, 4, 5, 5))
        assert cert.verdict == RESIDUALLY_FINITE
        assert cert.rule == "R6"
        assert cert.monochrome.all_monochrome
        assert len(cert.caveats) == 2  # mixed labels: no all-odd caveat

    def test_all_odd_caveat_reserved_for_all_odd_runs(self):
        # no desk-scale all-odd graph reaches the monochrome rule (their
        # fiber products carry mixed cycles), so the extra caveat must stay
        # off every mixed-label certificate
        from artinsplit.certify import _CAVEAT_ALL_ODD

        cert = certify(square(4, 4, 5, 5))
        assert cert.rule == "R6"
        assert _CAVEAT_ALL_ODD not in cert.caveats

    def test_small_label_square_splits_only(self):
        cert = certify(square(4, 4, 4, 4))
        assert cert.verdict == SPLITS_ONLY
        assert cert.rule == "R7"
        assert cert.splitting.kind == "hnn"

    def test_raag_style_graphs_are_not_decided(self):
        cert = certify(tri(2, 2, 2))
        assert cert.verdict == UNKNOWN
        assert cert.rule == "R8"

    def test_spherical_triangle_not_decided(self):
        cert = certify(tri(2, 3, 3))
        assert cert.verdict == UNKNOWN

        # a triangle with 1/a + 1/b + 1/c > 1 has no admissible orientation,
        # alone or inside a K4, so no rule that needs one decides it
        def spherical(labels):
            return sum(1 / m for m in labels) > 1

        triples = [t for t in itertools.product(range(2, 8), repeat=3)
                   if spherical(t)]
        assert len(triples) == 31
        assert len({tuple(sorted(t)) for t in triples}) == 9
        graphs = [tri(*t) for t in triples]
        rng = random.Random(53)
        pairs = list(itertools.combinations("abcd", 2))
        while len(graphs) < 31 + 1000:
            label = {p: rng.choice((2, 3, 4, 5)) for p in pairs}
            if any(spherical([label[p] for p in itertools.combinations(t, 2)])
                   for t in itertools.combinations("abcd", 3)):
                graphs.append(graph(list("abcd"), [
                    (u, v, m, None) for (u, v), m in label.items()]))
        for g in graphs:
            assert find_admissible_orientation(g) is None
            assert certify(g).rule not in ("R5", "R6", "R7"), g


class TestOrientationHandling:
    def test_provided_admissible_orientation_is_used(self):
        g = graph(
            ["a", "b", "c"],
            [("a", "b", 5, "a"), ("b", "c", 4, "b"), ("a", "c", 4, "c")],
        )
        cert = certify(g)
        assert cert.evidence["orientation"]["used"] == "provided"

    def test_a_search_past_its_bound_is_refused(self):
        # C25 with label 4 has 25 orientable edges, one past the bound
        names = [f"v{i}" for i in range(25)]
        cert = certify(graph(names, [(u, v, 4, None) for u, v in
                                     zip(names, names[1:] + names[:1])]))
        assert (cert.verdict, cert.rule) == (UNKNOWN, "R8")
        assert cert.evidence["orientation"]["search"] == (
            "refused: 25 orientable edges exceed the search bound 24")

    def test_inadmissible_orientation_triggers_search(self):
        g = tri(5, 4, 4)
        bad = {("a", "b"): "a", ("b", "c"): "b", ("a", "c"): "a"}
        cert = certify(g.with_orientation(bad))
        info = cert.evidence["orientation"]
        assert info["provided_admissible"] is False
        assert cert.verdict == SPLITS_ONLY


class TestConsistencyProbe:
    def test_probe_agrees_on_even_triangles(self):
        # the paper's triangle statement: labels at least 4 give residual
        # finiteness except (2m+1, 4, 4); the probe compares it with the
        # monochrome verdict wherever the label rule decides
        agreed = all_odd = 0
        for labels in itertools.combinations_with_replacement(range(2, 14), 3):
            probe = certify(tri(*labels)).evidence.get("consistency_probe", {})
            if "label_rule_predicts_rf" in probe:
                assert probe["agrees"] is True, labels
                agreed += 1
            if min(labels) >= 5 and all(l % 2 for l in labels):
                # R4 rests on the cited label rule alone here
                assert probe["evaluated"], labels
                assert probe["all_monochrome"] is False, labels
                all_odd += 1
        assert (agreed, all_odd) == (180, 35)

    def test_probe_agrees_at_scale(self):
        # the triangle statement past labels 13, decided by the fiber
        # product: every (m,4,4), (m,4,5), (m,4,6) and (m,5,5) up to m = 61,
        # and a seeded sample of labels 4..60; (odd,4,4) splits only
        rng = random.Random(13)
        triples = [(m, *rest) for m in range(4, 62)
                   for rest in ((4, 4), (4, 5), (4, 6), (5, 5))]
        triples += [tuple(rng.randint(4, 60) for _ in range(3))
                    for _ in range(200)]
        agreed = split_only = 0
        for labels in triples:
            cert = certify(tri(*labels))
            srt = sorted(labels)
            if srt[:2] == [4, 4] and srt[2] % 2:
                assert cert.rule == "R7", labels
                assert cert.monochrome.witness.is_simple_cycle(), labels
                split_only += 1
                continue
            assert cert.rule == "R4", labels
            probe = cert.evidence["consistency_probe"]
            assert probe["evaluated"], labels
            if "label_rule_predicts_rf" in probe:
                assert probe["agrees"] is True, labels
                agreed += 1
        assert (agreed, split_only) == (349, 30)

    def test_exception_holds_over_every_admissible_orientation(self):
        # certify tests one orientation; the triangle statement is about
        # the group, so the exception (2m+1, 4, 4) must hold for each of
        # its admissible orientations, and (4, 4, 4) and (4, 4, 6) must be
        # monochrome for each of theirs
        def monochrome_by_orientation(labels):
            rows = [("a", "b"), ("b", "c"), ("a", "c")]
            out = []
            for tails in itertools.product(*rows):
                g = graph(["a", "b", "c"], [
                    (u, v, label, t)
                    for (u, v), label, t in zip(rows, labels, tails)
                ])
                verdict = is_admissible(g)
                if verdict.admissible:
                    fp = fiber_product(build_collapsed(verdict).graph)
                    out.append(monochrome_check(fp).all_monochrome)
            return out

        for m in range(1, 30):
            assert monochrome_by_orientation((2 * m + 1, 4, 4)) == [
                False, False], m
        for labels in ((4, 4, 4), (4, 4, 6)):
            assert monochrome_by_orientation(labels) == [True, True], labels

    def test_probe_records_without_judging_all_odd(self):
        probe = certify(tri(5, 5, 5)).evidence["consistency_probe"]
        assert probe["evaluated"]
        assert probe["all_monochrome"] is False
        assert "agrees" not in probe

    def test_probe_skipped_off_the_label_rules(self):
        cert = certify(tri(5, 4, 4))
        assert "consistency_probe" not in cert.evidence


class TestCertificateSerialization:
    def test_byte_identical_repeat_runs(self):
        for g in [tri(4, 4, 4), tri(5, 4, 4), square(6, 6, 6, 6)]:
            assert certify(g).to_json() == certify(g).to_json()

    def test_json_is_canonical_and_parseable(self):
        cert = certify(tri(5, 4, 4))
        data = json.loads(cert.to_json())
        assert data["verdict"] == SPLITS_ONLY
        assert data["rule"] == "R7"
        assert data["ranks"]["kind"] == "amalgam"
        assert data["monochrome"]["all_monochrome"] is False
        assert data["monochrome"]["witness"]["word"]
        assert cert.to_json() == json.dumps(data, indent=2, sort_keys=True)

    def test_rf_certificates_always_carry_caveats_past_the_label_rules(self):
        table = [
            tri(4, 4, 4),
            square(6, 6, 6, 6),
            square(4, 4, 5, 5),
        ]
        for g in table:
            cert = certify(g)
            assert cert.verdict == RESIDUALLY_FINITE
            assert cert.rule not in ("R1", "R2", "R3")
            assert cert.caveats

    def test_rule_description_recorded(self):
        cert = certify(tri(3, 3, 3))
        assert cert.evidence["rule_description"]
        assert "labels" in cert.evidence


JSON_STRINGS = ("", "a", "v0-v1", "café", "☃", "\U0001f600", "\x00",
                "\x1f\x7f", "\n\t\r", '"', "\\", 'a"b\\c', "\ud800")
JSON_INTS = (0, 1, -1, 2, -7, 4300, 2**63, -2**64, 10**40)


def random_leaf_tuple(rng):
    """str and int items, or the bool that equals an int."""
    return tuple(rng.choice(("x", "v1", 0, 1, -1, True, False))
                 for _ in range(rng.randrange(3)))


def random_json_payload(rng, depth=0, pool=None):
    """A value of the kinds canonical_json writes: nested dicts with str
    keys, lists and tuples, often empty, over str, int, bool and None.

    Half its leaf tuples are drawn from a small pool made per payload, so
    one tuple object recurs at several places and indents.  The pool holds
    each tuple beside an equal one, a different object, with every 0 and 1
    swapped for the bool that equals it, or the other way round."""
    if pool is None:
        pool = [random_leaf_tuple(rng) for _ in range(3)]
        pool += [tuple(int(x) if type(x) is bool else
                       bool(x) if x in (0, 1) else x for x in leaf)
                 for leaf in pool]
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return rng.choice(JSON_STRINGS)
    if kind == 1:
        return rng.choice(JSON_INTS + (rng.randint(-10**6, 10**6),))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice(pool) if rng.randrange(2) else random_leaf_tuple(rng)
    items = [random_json_payload(rng, depth + 1, pool)
             for _ in range(rng.randrange(4))]
    if kind == 6:
        return {rng.choice(JSON_STRINGS): item for item in items}
    # half the lists and tuples lead with a pool tuple
    if rng.randrange(2):
        items.insert(0, rng.choice(pool))
    return items if kind == 4 else tuple(items)


def oppressive_words_pool(rng):
    """OppressiveWords values: the empty set, a one-step alphabet, and real
    sets over colors that need escaping."""
    loop = ColoredGraph(["u"], [Edge("1", "u", "u", "a")])
    pool = [oppressive_set(loop, "u"),
            OppressiveWords((("x", 1),), ("\x00", "\x00\x00"))]
    while len(pool) < 8:
        Y = random_bouquet_immersion(rng, max_vertices=3,
                                     colors=('"', "\\", "é", "\n"))
        pool += [oppressive_set(Y, y0) for y0 in Y.vertices]
    return pool


def with_words(rng, o, pool):
    """o with values from the pool put into about half its dicts, lists and
    tuples, at random places."""
    t = type(o)
    if t is dict:
        o = {k: with_words(rng, v, pool) for k, v in o.items()}
        if rng.randrange(2):
            o[rng.choice(JSON_STRINGS)] = rng.choice(pool)
        return o
    if t is list or t is tuple:
        items = [with_words(rng, x, pool) for x in o]
        if rng.randrange(2):
            items.insert(rng.randrange(len(items) + 1), rng.choice(pool))
        return t(items)
    return o


def plain(o):
    """o with every OppressiveWords in it replaced by the tuple of its
    words, which the reference encoder writes."""
    t = type(o)
    if t is OppressiveWords:
        return tuple(o)
    if t is dict:
        return {k: plain(v) for k, v in o.items()}
    if t is list or t is tuple:
        return t(map(plain, o))
    return o


class TestCanonicalJson:
    def test_matches_the_reference_encoder(self):
        leaf = ("v0-v1", -1)
        fixed = [
            {}, [], (), {"a": {}, "b": [], "c": (), "d": [[], {}, ((),)]},
            {"e": [{"f": []}, ()]},
            {"s": list(JSON_STRINGS), "n": list(JSON_INTS)},
            {"k": [True, False, None], "é\n": "\\"},
            ([1, 2], {"a": (3,)}), ((), [()], ({},)),
            # one leaf tuple at two indents, and at one indent beside the
            # tuples that compare equal to it with a bool for an int
            {"a": leaf, "b": [leaf, [leaf]], "c": [[[leaf]]]},
            {"a": [(True,), (1,)]}, {"a": [(1,), (True,)]},
            [("x", 1), ("x", True)], [("x", True), ("x", 1)],
            [(0,), (False,), (0,), ("x", False), ("x", 0)],
            "only a string", 12, None, True,
        ]
        rng = random.Random(12)
        payloads = fixed + [random_json_payload(rng) for _ in range(2000)]
        for payload in payloads:
            assert canonical_json(payload) == canonical_json_reference(payload)

    def test_values_it_does_not_write_raise(self):
        class Text(str):
            pass

        class Items(list):
            pass

        class Small(IntEnum):
            ONE = 1

        # one object at several places of a container, beside an equal leaf
        bad = ("x", 1.0)
        unsupported = [
            [bad, bad], [("x", 1), bad, bad], [(bad,), (bad,)],
            1.0, 0.5, float("nan"), float("inf"), {"a": [1, 2.5]},
            [(1,), (1.0,)], [("x", 1), ("x", 1.0)], (1.0,),
            {1: "a"}, {None: 1}, {True: 1}, {(1, 2): "b"}, {"a": 1, 2: "b"},
            Text("a"), {Text("k"): 1}, [Text("a")], (Text("a"),),
            OrderedDict(b=1, a=2), Items([1]), {"a": Items()},
            Small.ONE, (Small.ONE,), [(1,), (Small.ONE,)],
        ]
        # oppressive words whose steps hold a float, a bool or a str
        # subclass, and a subclass of OppressiveWords
        for step in (("x", 1.0), ("x", True), (Text("x"), 1), (True, 1)):
            words = OppressiveWords((step,), ("\x00", "\x00\x00"))
            unsupported += [words, [words], {"w": [[words]]}]
        unsupported.append(type("Words", (OppressiveWords,), {})(
            (("x", 1),), ("\x00",)))
        for payload in unsupported:
            try:
                out = canonical_json(payload)
            except TypeError:
                continue
            # written only in exactly the reference's bytes
            assert out == canonical_json_reference(plain(payload)), payload

    def test_matches_the_reference_with_oppressive_words(self):
        # oppressive words at random depths of random payloads, written as
        # the list of their words
        rng = random.Random(28)
        pool = oppressive_words_pool(rng)
        assert not all(pool) and min(len(words.steps) for words in pool) == 1
        assert {c for words in pool if words for c, _ in words.steps} == {
            "x", '"', "\\", "é", "\n"}
        for _ in range(1000):
            payload = random_json_payload(rng)
            if not rng.randrange(8):
                payload = rng.choice(pool)
            payload = with_words(rng, payload, pool)
            assert canonical_json(payload) == canonical_json_reference(
                plain(payload))

    def test_matches_the_reference_on_oppressive_words(self):
        # real word sets, each at two depths of one payload
        for labels in ((5, 5, 5), (5, 4, 4)):
            g = graph(["a", "b", "c"],
                      [("a", "b", labels[0], "a"), ("b", "c", labels[1], "b"),
                       ("a", "c", labels[2], "c")])
            Y = build_collapsed(is_admissible(g)).graph
            for y0 in Y.vertices:
                words = oppressive_set(Y, y0)
                assert words
                for payload in ({"words": words, "deeper": [[words]]},
                                [{"count": len(words), "words": words}]):
                    # compared outside the assert: pytest's diff of two
                    # megabyte strings would take minutes
                    same = (canonical_json(payload)
                            == canonical_json_reference(plain(payload)))
                    assert same, (labels, y0)

    def test_words_nested_deep_are_copied_about_once(self):
        # the (5,5,5) set's text is built once and joined once into the
        # payload's, not copied again at every level it is nested in
        g = graph(["a", "b", "c"],
                  [("a", "b", 5, "a"), ("b", "c", 5, "b"), ("a", "c", 5, "c")])
        words = oppressive_set(build_collapsed(is_admissible(g)).graph,
                               "a+/b-")
        assert len(words) == 8834
        tracemalloc.start()
        try:
            text = canonical_json([[words]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), peak / len(text)

    def test_the_writer_allocates_no_cell_or_closure(self):
        # a comprehension or nested function would make a code object and
        # cells that every recursive call allocates
        for code in (_encode.__code__, canonical_json.__code__):
            assert code.co_cellvars == code.co_freevars == ()
            assert not [c for c in code.co_consts
                        if isinstance(c, type(code))], code.co_name


_OPTIMIZED_PRELUDE = """
    import importlib, sys
    from artinsplit import (
        DefiningGraph, build_collapsed, certify, is_admissible)
    c = importlib.import_module("artinsplit.certify")
    f = importlib.import_module("artinsplit.fiber")
    if not sys.flags.optimize:
        sys.exit("not running under -O")
"""


def run_optimized(body):
    """Run the prelude and `body` in `python -O`, which strips asserts."""
    src = str(Path(artinsplit.__file__).resolve().parents[1])
    script = textwrap.dedent(_OPTIMIZED_PRELUDE) + textwrap.dedent(body)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )


def test_immersion_check_survives_python_O():
    # the fiber product's check that its factor immerses must still fire
    # when build_collapsed hands certify the Xbar of an inadmissible
    # orientation, and so must its check that the components hold every
    # pair once, which a triangle with runs of 100 edges passes until a run
    # is lost
    immersion = """
        real = c.build_collapsed
        clashing = DefiningGraph.build(
            ["a", "b", "c"],
            [("a", "b", 3, "a"), ("b", "c", 3, "b"), ("a", "c", 3, "a")],
        )
        c.build_collapsed = lambda verdict: real(is_admissible(clashing))
        g = DefiningGraph.build(
            ["a", "b", "c"],
            [("a", "b", 5, "a"), ("b", "c", 5, "b"), ("a", "c", 5, "c")],
        )
        c.certify(g)
        print("check did not fire")
    """
    conservation = """
        g = DefiningGraph.build(
            ["a", "b", "c"],
            [("a", "b", 201, "a"), ("b", "c", 4, "b"), ("a", "c", 4, "c")],
        )
        Y = build_collapsed(is_admissible(g)).graph
        fp = f.fiber_product(Y)
        print("every pair", sum(fp.vertex_counts) == len(Y.vertices) ** 2)
        real = f._runs

        def lossy(*args):
            place, branches, by_color = real(*args)
            max(by_color.values(), key=len).pop()
            return place, branches, by_color

        f._runs = lossy
        f.fiber_product(Y)
        print("check did not fire")
    """
    proc = run_optimized(immersion)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FiberInputError: fiber products require immersions" in proc.stderr
    proc = run_optimized(conservation)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == "every pair True\n"
    assert "AssertionError: fiber product components miss or repeat pairs" in (
        proc.stderr
    )


def test_witness_checks_survive_python_O():
    # the monochrome witness is found on integer ids by a two-paths flow;
    # with one step of it broken, its checks must still fire under -O: a
    # flow whose augmenting search finds nothing reports the block, and
    # one that loses the path back to e1's tail leaves an open walk
    prelude = """
        g = DefiningGraph.build(
            ["a", "b", "c"],
            [("a", "b", 5, "a"), ("b", "c", 5, "b"), ("a", "c", 5, "c")],
        )
        fp = f.fiber_product(build_collapsed(is_admissible(g)).graph)
    """
    no_path = prelude + """
        f.bfs_path = lambda start, goal, step: None
        f.monochrome_check(fp)
        print("check did not fire")
    """
    no_way_back = prelude + """
        real = f._two_disjoint_paths

        def lossy(n, ends, usable, sources, sinks):
            paths = real(n, ends, usable, sources, sinks)
            paths[sources[0]] = (paths[sources[0]][0], [])
            return paths

        f._two_disjoint_paths = lossy
        f.monochrome_check(fp)
        print("check did not fire")
    """
    for body, message in ((no_path, "block not biconnected"),
                          (no_way_back, "monochrome witness is not a simple "
                                        "cycle")):
        proc = run_optimized(body)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert f"AssertionError: {message}" in proc.stderr


@pytest.mark.parametrize("vertices, rows", [
    # R3, where the orientation feeds only the consistency probe
    ("abc", [("a", "b", 3, None), ("b", "c", 3, None), ("a", "c", 3, None)]),
    # a square, past the label rules
    ("abcd", [("a", "b", 3, None), ("b", "c", 3, None), ("c", "d", 3, None),
              ("a", "d", 3, None)]),
], ids=["R3-triangle", "square"])
def test_search_check_survives_python_O(vertices, rows):
    # certify re-checks the orientation the search returns before it builds
    # Xbar from it; a search that returns an inadmissible one, here each
    # edge's tail at its first end, is caught there, also under -O
    body = f"""
        from artinsplit import is_admissible
        g = DefiningGraph.build(list({vertices!r}), {rows!r})
        bad = {{e.key: e.u for e in g.edges}}
        print("inadmissible",
              not is_admissible(g.with_orientation(bad)).admissible)
        c.find_admissible_orientation = lambda g: bad
        certify(g)
        print("check did not fire")
    """
    proc = run_optimized(body)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == "inadmissible True\n"
    assert ("AssertionError: the search returned an inadmissible orientation"
            in proc.stderr)


@pytest.mark.parametrize("rows, mutation, identity", [
    # an odd label given the d pair of an even one: x_quarter of a path
    # falls apart as though the splitting were an HNN extension
    ([("a", "b", 3, "a"), ("b", "c", 4, "b")],
     "for k, (e, p, m) in enumerate(lifts):\n"
     "    if e.label % 2:\n"
     "        quarter[4 * k + 2:4 * k + 4] = [p, m]",
     "x_quarter components"),
    # one copy of an edge dropped from x_half
    ([("a", "b", 3, "a"), ("b", "c", 3, "b"), ("a", "c", 3, "c")],
     "half.pop()",
     "rank of x_half"),
    # the m lift of an edge laid over its p lift: two ends of the star at
    # a+ map onto one end of x_half
    ([("a", "b", 3, "a"), ("b", "c", 3, "b"), ("a", "c", 3, "c")],
     "quarter[1] = quarter[0]",
     "x_quarter -> x_half double cover"),
], ids=["odd-as-even", "half-copy-dropped", "star-not-injective"])
def test_splitting_cross_checks_survive_python_O(rows, mutation, identity):
    # compute_splitting's cross-checks on the level graphs still fire when
    # a mutated lift rule builds the wrong graphs, also under -O
    body = f"""
        from artinsplit import compute_splitting
        h = importlib.import_module("artinsplit.horizontal")
        real = h._level_edges

        def mutated(g, lifts):
            half, quarter = real(g, lifts)
{textwrap.indent(mutation, " " * 12)}
            return half, quarter

        g = DefiningGraph.build(["a", "b", "c"], {rows!r})
        print(compute_splitting(is_admissible(g)).kind)
        h._level_edges = mutated
        compute_splitting(is_admissible(g))
        print("check did not fire")
    """
    proc = run_optimized(body)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == "amalgam\n"
    assert proc.stderr.rstrip().endswith(
        f"AssertionError: splitting cross-check failed: {identity}")


def test_every_splitting_cross_check_can_fire(monkeypatch):
    # a cross-check that no broken level graph reaches re-decides what the
    # others fix; every identity `compute_splitting` declares must fire on
    # some mutation of `_level_edges`, here every change of one end of one
    # x_quarter edge and one copy of an edge dropped from x_half, and every
    # such mutation must be caught
    tree = ast.parse(Path(horizontal.__file__).read_text(encoding="utf-8"))
    declared = {
        node.args[1].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_require"
    }
    real = horizontal._level_edges
    change = [None]

    def mutated(g, lifts):
        half, quarter = real(g, lifts)
        if change[0] == "pop":
            half.pop()
        elif change[0] is not None:
            j, end, q = change[0]
            quarter[j] = (q, quarter[j][1]) if end == 0 else (quarter[j][0], q)
        return half, quarter

    monkeypatch.setattr(horizontal, "_level_edges", mutated)
    prefix = "splitting cross-check failed: "
    rng = random.Random(71)
    fired, kinds, survived = Counter(), Counter(), []
    for labels in (LABELS, (2, 4, 6)):
        for _ in range(15):
            g = random_admissible_graph(
                rng, max_vertices=5, max_extra_edges=2, labels=labels)
            verdict = is_admissible(g)
            change[0] = None
            kinds[compute_splitting(verdict).kind] += 1
            _, quarter = real(g, verdict.lifts)
            changes = ["pop"] + [
                (j, end, q) for j, ends in enumerate(quarter)
                for end in (0, 1) for q in range(2 * len(g.vertices))
                if q != ends[end]
            ]
            for c in changes:
                change[0] = c
                try:
                    compute_splitting(verdict)
                except AssertionError as e:
                    assert str(e).startswith(prefix), e
                    fired[str(e).removeprefix(prefix)] += 1
                else:
                    survived.append((g, c))
    assert survived == []
    assert kinds["amalgam"] >= 5 and kinds["hnn"] >= 5, kinds
    assert set(fired) == declared, fired


def test_the_double_cover_check_matches_the_reference(monkeypatch):
    # the cover check reads x_quarter -> x_half off the quarter numbering;
    # wherever the components check before it passes, it must fire exactly
    # when the general covering-map reference says no.  The changes: every
    # single-end change of one x_quarter edge, none of which is a cover,
    # and every crossing of the ends of the two edges over one x_half edge,
    # each of which is
    real = horizontal._level_edges
    quarter_now = [None]
    monkeypatch.setattr(horizontal, "_level_edges",
                        lambda g, lifts: (real(g, lifts)[0], quarter_now[0]))
    prefix = "splitting cross-check failed: "
    rng = random.Random(71)
    seen = Counter()
    for labels in (LABELS, (2, 4, 6)):
        for _ in range(15):
            g = random_admissible_graph(
                rng, max_vertices=5, max_extra_edges=2, labels=labels)
            verdict = is_admissible(g)
            half, quarter = real(g, verdict.lifts)
            n = len(g.vertices)
            changes = [quarter]
            for j, ends in enumerate(quarter):
                for end in (0, 1):
                    for q in range(2 * n):
                        if q != ends[end]:
                            changed = list(quarter)
                            changed[j] = ((q, ends[1]) if end == 0
                                          else (ends[0], q))
                            changes.append(changed)
            for h in range(len(half)):
                (a, b), (c, d) = quarter[2 * h:2 * h + 2]
                changes.append(quarter[:2 * h] + [(a, d), (c, b)]
                               + quarter[2 * h + 2:])
            for changed in changes:
                quarter_now[0] = changed
                try:
                    compute_splitting(verdict)
                    fired = None
                except AssertionError as e:
                    fired = str(e).removeprefix(prefix)
                if fired == "x_quarter components":
                    seen["components"] += 1
                    continue
                cover = is_cover(
                    changed, (n, half), [q % n for q in range(2 * n)],
                    [j // 2 for j in range(len(changed))], 2)
                assert fired == (None if cover else
                                 "x_quarter -> x_half double cover"), changed
                seen[cover] += 1
    assert seen[True] >= 100 and seen[False] >= 1000, seen


def test_each_stage_runs_at_one_call_site(monkeypatch):
    # certify resolves the orientation once per certificate, the triangle
    # probe included, and the orientation is found and checked only there;
    # Xbar, its self fiber product and the monochrome check run once
    # whichever rule reads them, and not at all for R1, R5 and both R8s
    c = sys.modules["artinsplit.certify"]
    calls, running = Counter(), []

    def counted(name):
        real = getattr(c, name)

        def wrapper(*args):
            calls[name] += 1
            if name in ("find_admissible_orientation", "is_admissible"):
                assert "_resolve_orientation" in running, name
            running.append(name)
            try:
                return real(*args)
            finally:
                running.pop()

        monkeypatch.setattr(c, name, wrapper)

    for name in ("_resolve_orientation", "find_admissible_orientation",
                 "is_admissible", "compute_splitting", "build_collapsed",
                 "fiber_product", "monochrome_check"):
        counted(name)
    names = [f"v{i}" for i in range(25)]
    cases = [
        (graph(["a", "b", "c"], [("a", "b", 3, None), ("b", "c", 7, None)]),
         "R1", 0, 0, 0),
        (graph(list("abcdef"), [(u, v, 3, None) for u, v in
                                ("ab", "bc", "ac", "de", "ef", "df")]),
         "R8", 0, 0, 0),
        (tri(3, 3, 3), "R3", 1, 0, 1),
        (tri(2, 4, 4), "R3", 1, 0, 0),  # no admissible orientation
        (tri(5, 5, 5), "R4", 1, 0, 1),
        (square(6, 6, 8, 6), "R5", 1, 1, 0),
        (square(4, 4, 5, 5), "R6", 1, 1, 1),
        (tri(5, 4, 4), "R7", 1, 1, 1),
        (tri(2, 3, 3), "R8", 1, 0, 0),
        (graph(names, [(u, v, 4, None) for u, v in
                       zip(names, names[1:] + names[:1])]), "R8", 1, 0, 0),
    ]
    for g, rule, resolved, split, product in cases:
        calls.clear()
        assert c.certify(g).rule == rule
        searched = (calls["find_admissible_orientation"]
                    + calls["is_admissible"])
        assert (resolved, split, product) == (
            calls["_resolve_orientation"], calls["compute_splitting"],
            calls["build_collapsed"]), (rule, calls)
        assert calls["fiber_product"] == calls["monochrome_check"] == product
        assert (searched > 0) == (resolved > 0), (rule, calls)


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants in the library
    # are checked with explicit raises instead
    package = Path(artinsplit.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_private_helper_is_used():
    # a module-level function, class or assigned name outside
    # `artinsplit.__all__` that nothing else in the library refers to is
    # dead code, public or private: a helper only tests call belongs in
    # tests/oracles.py.  A use is a bare name, an imported name, or
    # `module.name` on an imported library module; any other attribute,
    # such as `", ".join`, is a method and uses no library name
    package = Path(artinsplit.__file__).resolve().parent
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    library = {name[:-3] for name in trees}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        # `from . import fiber [as f]` binds a library module
        modules = {
            a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is None
            for a in node.names if a.name in library
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name) and node.value.id in modules:
                uses.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.alias):
                uses.setdefault(node.name, []).append(node)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names = (
                    [] if node.name in artinsplit.__all__ else [node.name]
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                names = [
                    t.id for t in targets if isinstance(t, ast.Name)
                    and t.id not in artinsplit.__all__
                    and not t.id.startswith("__")
                ]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            for name in names:
                if all(id(n) in inside for n in uses.get(name, [])):
                    unused.append(f"{module}:{name}")
    assert unused == []


def test_every_class_member_is_read():
    # a method, property or dataclass field of a library class is dead
    # when no attribute read reaches it: none outside its class body, and
    # none inside a member that is itself reached, dunder methods being
    # reached implicitly.  A read counts by attribute name, whatever the
    # object, in the library and in the benchmark's own modules, which
    # read some members (`FiberProduct.components`) the library does not
    package = Path(artinsplit.__file__).resolve().parent
    bench = package.parents[1] / "benchmark"
    paths = sorted(package.glob("*.py")) + [
        path for path in sorted(bench.glob("*.py"))
        if not path.name.startswith("test_")
    ]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    unused = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            members = {
                node.name: node for node in cls.body
                if isinstance(node, ast.FunctionDef)
            }
            members.update(
                (node.target.id, node) for node in cls.body
                if isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
            )
            spans = {name: {id(n) for n in ast.walk(node)}
                     for name, node in members.items()}
            inside = {id(n) for n in ast.walk(cls)}
            reached = {name for name in members if name.startswith("__")}
            reached |= {
                name for name in members
                if any(id(n) not in inside for n in reads.get(name, []))
            }
            grown = True
            while grown:
                more = {
                    name for name in members.keys() - reached
                    if any(id(n) in spans[r]
                           for r in reached for n in reads.get(name, []))
                }
                reached |= more
                grown = bool(more)
            unused += [f"{path.stem}:{cls.name}.{name}"
                       for name in members if name not in reached]
    assert unused == []


def test_traced_search_pass_decides_each_orientation_once(monkeypatch):
    # one default-seed pass of the benchmark's search workload under its
    # tracer: every orientation found is decided admissible once, and that
    # verdict serves both the splitting and Xbar; the splitting's checks
    # build no named level graphs
    import artinsplit.cli as cli

    bench = Path(__file__).resolve().parents[1] / "benchmark"
    monkeypatch.syspath_prepend(str(bench))
    from operations import execute, prepare
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    expected = json.loads((bench / "expected.json").read_text())["search"]
    tracer = Tracer()
    for op in WORKLOADS["search"](DEFAULT_SEED):
        prepared = prepare(artinsplit, op)
        with tracer:
            outcome = execute(artinsplit, cli, op, prepared, expected,
                              need_digest=True, tracer=tracer)
        assert outcome.problem is None, (op.key, outcome.problem)
    calls = {name: n for name, (n, _) in tracer.layer_totals().items()}
    assert tracer.counters["search_found"] == 105
    assert (calls["orientation.is_admissible"]
            == calls["horizontal.compute_splitting"]
            == calls["horizontal.build_collapsed"] == 105)
    assert calls["horizontal.build_family"] == calls["multigraph.free_rank"] == 0


def test_long_run_triangle_certifies_with_a_witness():
    # tri(1601,4,4): Xbar has runs of 800 edges and its self product 2.6
    # million pairs, of which certify builds only the witness component
    cert = certify(tri(1601, 4, 4))
    assert cert.rule == "R7"
    assert cert.monochrome.witness.is_simple_cycle()
    assert len(cert.monochrome.witness_colors()) >= 2


def test_certify_builds_only_the_witness_component_as_a_graph(monkeypatch):
    # the self fiber product of Xbar has |Xbar|^2 vertices; certify counts
    # its components on pair indices, finds the witness on the integer
    # indices of its component, and builds only the witness cycle's own
    # edges as a graph
    from artinsplit import ColoredGraph, build_collapsed
    from oracles import explicit_fiber_product

    g = graph(
        ["a", "b", "c"],
        [("a", "b", 41, "a"), ("b", "c", 4, "b"), ("a", "c", 4, "c")],
    )
    built = []
    real = ColoredGraph.__init__

    def counting(self, vertices, edges):
        real(self, vertices, edges)
        built.append(self.vertices)

    monkeypatch.setattr(ColoredGraph, "__init__", counting)
    cert = certify(g)
    monkeypatch.undo()
    assert cert.evidence["orientation"]["used"] == "provided"
    idx = cert.monochrome.witness_component
    cycle = cert.monochrome.witness.vertices()[:-1]
    xbar = build_collapsed(is_admissible(g)).graph
    component = explicit_fiber_product(xbar).components[idx]
    assert set(cycle) <= set(component.vertices)
    assert len(cycle) < len(component.vertices)
    products = [vs for vs in built if any("|" in v for v in vs)]
    assert products == [tuple(sorted(cycle))]
