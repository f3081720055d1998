import io
import json
import random
import sys

import pytest

from artinsplit import (
    OppressiveWords,
    SchemaError,
    build_collapsed,
    certify,
    cli,
    defining_graph,
    is_admissible,
    oppressive_set,
)
from artinsplit.cli import (
    defining_graph_dot,
    defining_graph_json_dict,
    edge_palette,
    main,
    parse_defining_graph,
)
from generators import fuzz_rounds, ring

TRIANGLE = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"u": "a", "v": "b", "label": 5, "iota": "a"},
        {"u": "b", "v": "c", "label": 5, "iota": "b"},
        {"u": "a", "v": "c", "label": 5, "iota": "c"},
    ],
}

CLASHING = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"u": "a", "v": "b", "label": 3, "iota": "a"},
        {"u": "b", "v": "c", "label": 3, "iota": "b"},
        {"u": "a", "v": "c", "label": 3, "iota": "a"},
    ],
}

MISDIRECTED_SQUARE = {
    "vertices": ["a", "b", "c", "d"],
    "edges": [
        {"u": "a", "v": "b", "label": 3, "iota": "a"},
        {"u": "b", "v": "c", "label": 3, "iota": "c"},
        {"u": "c", "v": "d", "label": 3, "iota": "c"},
        {"u": "a", "v": "d", "label": 3, "iota": "d"},
    ],
}

UNORIENTED = {
    "vertices": ["a", "b"],
    "edges": [{"u": "a", "v": "b", "label": 4}],
}

INVALID = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"u": "a", "v": "b", "label": 1},
        {"u": "b", "v": "c", "label": 3, "iota": "a"},
    ],
}

# text that Python's json module fails on with something other than a
# JSONDecodeError: an integer past its conversion limit of 4,300 digits,
# and arrays nested past the recursion limit
LONG_INTEGER = '{"vertices": [], "edges": [], "n": ' + "7" * 5000 + "}"
DEEP_ARRAYS = "[" * (10 * sys.getrecursionlimit())
NOT_UTF8 = b'{"vertices": ["\xff"], "edges": []}'

INVALID_LINES = [
    "input error: edge a-b: label must be an integer >= 2",
    "input error: edge b-c: iota 'a' is not an endpoint",
]


@pytest.fixture
def write(tmp_path):
    def _write(data, name="g.json"):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    return _write


class TestParser:
    def test_round_trips_through_json_dict(self):
        g = parse_defining_graph(TRIANGLE)
        assert defining_graph_json_dict(g) == TRIANGLE
        assert parse_defining_graph(defining_graph_json_dict(g)) == g

    def test_iota_omitted_when_absent(self):
        g = parse_defining_graph(UNORIENTED)
        assert defining_graph_json_dict(g) == UNORIENTED

    @pytest.mark.parametrize(
        "data,fragment",
        [
            ([], "top level: expected an object"),
            ({"vertices": []}, "missing field 'edges'"),
            ({"vertices": [], "edges": [], "x": 1}, "unknown field 'x'"),
            ({"vertices": [1], "edges": []}, "vertices[0]"),
            ({"vertices": [], "edges": [{}]}, "edges[0]: missing field 'u'"),
            (
                {"vertices": ["a", "b"],
                 "edges": [{"u": "a", "v": "b", "label": 3, "w": 0}]},
                "unknown field 'w'",
            ),
            (
                {"vertices": ["a", "b"],
                 "edges": [{"u": "a", "v": "b", "label": "3"}]},
                "label: expected an integer",
            ),
            (
                {"vertices": ["a", "b"],
                 "edges": [{"u": "a", "v": "b", "label": True}]},
                "label: expected an integer",
            ),
            (
                {"vertices": ["a", "b"],
                 "edges": [{"u": "a", "v": "b", "label": 3, "iota": 1}]},
                "iota: expected a string",
            ),
        ],
    )
    def test_schema_violations(self, data, fragment):
        with pytest.raises(SchemaError) as e:
            parse_defining_graph(data)
        assert fragment in str(e.value)


class TestExitCodes:
    def test_check_admissible(self, write, capsys):
        assert main(["check", "--input", write(TRIANGLE)]) == 0
        assert "admissible: yes" in capsys.readouterr().out

    def test_check_inadmissible(self, write, capsys):
        assert main(["check", "--input", write(CLASHING)]) == 1
        out = capsys.readouterr().out
        assert "admissible: no" in out and "witness" in out

    def test_orient_failure(self, write, capsys):
        all_twos = {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "label": 2},
                {"u": "b", "v": "c", "label": 2},
                {"u": "a", "v": "c", "label": 2},
            ],
        }
        assert main(["orient", "--input", write(all_twos)]) == 1

    def test_an_edge_that_is_not_an_object(self, run_cli):
        text = json.dumps({"vertices": ["a", "b"], "edges": [["a", "b", 3]]})
        assert run_cli(["check"], text) == (
            2, "", "input error: edges[0]: expected an object\n")

    def test_split_refuses_inadmissible(self, write):
        assert main(["split", "--input", write(CLASHING)]) == 1

    def test_split_refuses_disconnected_before_inadmissible(
        self, write, capsys
    ):
        data = {
            "vertices": CLASHING["vertices"] + ["d", "e"],
            "edges": CLASHING["edges"]
            + [{"u": "d", "v": "e", "label": 3, "iota": "d"}],
        }
        argv = ["split", "--format", "json", "--input", write(data)]
        assert main(argv) == 1
        refused = json.loads(capsys.readouterr().out)["refused"]
        assert refused.startswith("the splitting requires a connected")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("argv", [["split"], ["fiber", "--oppressive"]])
    def test_empty_graph_is_refused(self, write, capsys, argv, fmt):
        path = write({"vertices": [], "edges": []})
        assert main(argv + ["--input", path, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert "refused" in captured.out
        assert "Traceback" not in captured.err

    def test_schema_error_is_exit_two(self, write, capsys):
        path = write({"vertices": [], "edges": [], "oops": 1})
        assert main(["check", "--input", path]) == 2
        assert "input error" in capsys.readouterr().err

    def test_invalid_graph_is_exit_two(self, write, capsys):
        bad = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "label": 1}]}
        assert main(["check", "--input", write(bad)]) == 2
        assert "label" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,data,lines",
        [
            (argv, INVALID, INVALID_LINES)
            for argv in (
                ["check"], ["orient"], ["split"], ["fiber"], ["certify"],
                *(["export", "--graph", graph] for graph in (
                    "input", "X0", "Xhalf", "Xquarter", "Xbar", "fiber",
                )),
            )
        ] + [
            (argv, UNORIENTED, ["input error: edge a-b: label >= 3 requires iota"])
            for argv in (
                ["check"], ["split"], ["fiber"],
                ["export", "--graph", "Xbar"], ["export", "--graph", "fiber"],
            )
        ],
    )
    def test_every_subcommand_reports_input_errors(
        self, write, capsys, argv, data, lines
    ):
        assert main(argv + ["--input", write(data)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == lines
        assert captured.out == ""

    def assert_not_json(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: input is not valid JSON: ")
        assert captured.out == ""

    def test_file_not_utf8_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_bytes(NOT_UTF8)
        self.assert_not_json(capsys, ["check", "--input", str(path)])

    def test_integer_past_conversion_limit_is_exit_two(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "g.json"
        path.write_text(LONG_INTEGER)
        self.assert_not_json(capsys, ["certify", "--input", str(path)])
        monkeypatch.setattr("sys.stdin", io.StringIO(LONG_INTEGER))
        self.assert_not_json(capsys, ["certify"])

    def test_nesting_past_recursion_limit_is_exit_two(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "g.json"
        path.write_text(DEEP_ARRAYS)
        self.assert_not_json(capsys, ["split", "--input", str(path)])
        monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_ARRAYS))
        self.assert_not_json(capsys, ["split"])

    def test_missing_file_is_exit_two(self, capsys):
        assert main(["check", "--input", "/nonexistent/x.json"]) == 2

    def test_input_path_with_nul_byte_is_exit_two(self, capsys):
        assert main(["check", "--input", "a\x00b"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "input error: embedded null byte: 'a\\x00b'\n"
        assert captured.out == ""

    def test_output_path_with_nul_byte_is_exit_two(self, write, capsys):
        argv = ["check", "--input", write(TRIANGLE), "--output", "a\x00b"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "input error: embedded null byte: 'a\\x00b'\n"
        assert captured.out == ""

    def test_unopenable_output_is_refused_before_the_analysis(
            self, write, capsys, monkeypatch, tmp_path):
        calls = []
        real = cli.fiber_product
        monkeypatch.setattr(
            cli, "fiber_product", lambda g: calls.append(g) or real(g))
        graph = json.loads(json.dumps(TRIANGLE))
        for edge, label in zip(graph["edges"], (201, 4, 5)):
            edge["label"] = label
        path = write(graph)
        missing = tmp_path / "missing" / "x"
        assert main(["fiber", "--input", path, "--output", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"input error: [Errno 2] No such file or directory: {str(missing)!r}\n")
        assert captured.out == ""
        assert calls == []
        assert main(["fiber", "--input", path, "--output",
                     str(tmp_path / "x")]) == 0
        assert len(calls) == 1

    def test_missing_iota_is_exit_two_for_check(self, write, capsys):
        assert main(["check", "--input", write(UNORIENTED)]) == 2
        assert "requires iota" in capsys.readouterr().err

    def test_export_rejects_unknown_format_choice(self, write):
        with pytest.raises(SystemExit):
            main(["check", "--input", write(TRIANGLE), "--format", "dot"])


class TestCheck:
    def test_input_is_validated_once(self, write, monkeypatch, capsys):
        calls = []
        real = defining_graph.validate
        monkeypatch.setattr(
            defining_graph, "validate", lambda g: calls.append(g) or real(g)
        )
        assert main(["check", "--input", write(TRIANGLE)]) == 0
        assert len(calls) == 1

    def test_json_payload(self, write, capsys):
        main(["check", "--input", write(TRIANGLE), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["admissible"] is True
        assert data["report"]["ok"] is True
        assert data["oracle"]["status"] == "confirmed"

    def test_small_bound_goes_inconclusive(self, write, capsys):
        # the only almost misdirected cycle is the whole square, beyond 3
        main(
            ["check", "--input", write(MISDIRECTED_SQUARE), "--format", "json",
             "--max-cycle-len", "3"]
        )
        data = json.loads(capsys.readouterr().out)
        assert data["admissible"] is False
        assert data["oracle"]["status"] == "inconclusive"
        assert data["witness"]["vertices"]

    @pytest.mark.parametrize("bound", ["-3", "2", "13", "50"])
    def test_bound_outside_3_to_12_is_exit_two(self, write, capsys, bound):
        # below 3 no cycle would be searched, above 12 is past the
        # enumeration bound
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", write(TRIANGLE), "--max-cycle-len", bound])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-cycle-len" in err and "Traceback" not in err


class TestOrient:
    def test_output_feeds_back_into_split(self, write, capsys, tmp_path):
        bare = {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "label": 3},
                {"u": "b", "v": "c", "label": 3},
                {"u": "a", "v": "c", "label": 3},
            ],
        }
        assert main(["orient", "--input", write(bare), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True
        oriented = tmp_path / "oriented.json"
        oriented.write_text(json.dumps(data["graph"]))
        assert main(
            ["split", "--input", str(oriented), "--format", "json"]
        ) == 0
        ranks = json.loads(capsys.readouterr().out)
        assert ranks == {
            "kind": "amalgam",
            "rank_a": 3,
            "rank_b": 4,
            "rank_c": 7,
            "index_c_in_b": 2,
        }

    @pytest.mark.parametrize("fmt,out", [
        ("json", '{\n  "found": false,\n  "refused": "28 orientable edges '
                 'exceed the search bound 24"\n}\n'),
        ("text", "refused: 28 orientable edges exceed the search bound 24\n"),
    ])
    def test_search_space_refusal(self, write, capsys, fmt, out):
        names = [f"v{i}" for i in range(8)]
        k8 = {"vertices": names, "edges": [
            {"u": u, "v": v, "label": 3}
            for i, u in enumerate(names) for v in names[i + 1:]
        ]}
        assert main(["orient", "--input", write(k8), "--format", fmt]) == 1
        assert capsys.readouterr().out == out


class TestFiber:
    def test_inventory_payload(self, write, capsys):
        five44 = {
            "vertices": ["r", "g", "b"],
            "edges": [
                {"u": "r", "v": "g", "label": 5, "iota": "r"},
                {"u": "g", "v": "b", "label": 4, "iota": "g"},
                {"u": "r", "v": "b", "label": 4, "iota": "b"},
            ],
        }
        assert main(["fiber", "--input", write(five44), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        kinds = [c["classification"] for c in data["components"]]
        assert "diagonal" in kinds
        assert data["monochrome"]["all_monochrome"] is False
        assert data["monochrome"]["witness"]["colors"]
        cycle_bearing = [
            c for c in data["components"] if c["classification"] == "cycle-bearing"
        ]
        assert all("fill_rank_ok" in c for c in cycle_bearing)

    def test_oppressive_listing(self, write, capsys):
        assert main(
            ["fiber", "--input", write(TRIANGLE), "--format", "json",
             "--oppressive"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["oppressive"]["count"] == len(data["oppressive"]["words"])
        assert data["oppressive"]["count"] > 0
        assert data["oppressive"]["basepoint"]

    def test_oppressive_words_are_written_from_their_letters(
            self, write, monkeypatch, capsys):
        # the (5,5,5) triangle's 8,834 words are written without decoding
        # a single word into its tuple of steps
        verdict = is_admissible(parse_defining_graph(TRIANGLE))
        Y = build_collapsed(verdict).graph
        words = [[list(step) for step in word]
                 for word in oppressive_set(Y, "a+/b-")]

        def decoded(self, i):
            raise AssertionError("a word was decoded")

        monkeypatch.setattr(OppressiveWords, "__getitem__", decoded)
        assert main(
            ["fiber", "--input", write(TRIANGLE), "--oppressive", "--format",
             "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["oppressive"]["basepoint"] == "a+/b-"
        assert data["oppressive"]["count"] == len(words) == 8834
        assert data["oppressive"]["words"] == words

    def test_refuses_inadmissible(self, write):
        assert main(["fiber", "--input", write(CLASHING)]) == 1

    def test_unknown_basepoint_is_exit_two(self, write, capsys):
        assert main(
            ["fiber", "--input", write(TRIANGLE), "--oppressive",
             "--basepoint", "nope"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: basepoint 'nope'")
        assert captured.out == ""

    @pytest.mark.parametrize("basepoint", ["nope", "a+/b-"])
    def test_basepoint_without_oppressive_is_exit_two(self, write, capsys,
                                                      basepoint):
        # a basepoint is an input error without --oppressive, whether or
        # not it names a vertex of the collapsed graph
        assert main(
            ["fiber", "--input", write(TRIANGLE), "--basepoint", basepoint]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == ("input error: --basepoint is read only with "
                                "--oppressive\n")
        assert captured.out == ""


class TestCertify:
    def test_canonical_json_and_repeatability(self, write, capsys):
        path = write(TRIANGLE)
        assert main(["certify", "--input", path, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["certify", "--input", path, "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert data["verdict"] == "ResiduallyFinite"

    def test_text_format_names_rule(self, write, capsys):
        main(["certify", "--input", write(TRIANGLE)])
        out = capsys.readouterr().out
        assert "verdict: ResiduallyFinite" in out
        assert "rule: R4" in out


class TestExport:
    def test_input_json_round_trip(self, write, capsys):
        assert main(
            ["export", "--input", write(TRIANGLE), "--graph", "input",
             "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert parse_defining_graph(data) == parse_defining_graph(TRIANGLE)

    def test_dot_output_is_deterministic(self, write, capsys):
        path = write(TRIANGLE)
        outputs = []
        for _ in range(2):
            assert main(["export", "--input", path, "--graph", "Xbar"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("digraph")

    def test_palette_follows_input_order(self):
        g = parse_defining_graph(TRIANGLE)
        pal = edge_palette(g)
        assert pal["a-b"] == "#e6194b"
        dot = defining_graph_dot(g)
        assert "#e6194b" in dot
        assert dot.startswith("graph")
        assert 'dir="forward"' in dot  # oriented edges carry a direction

    def test_every_level_graph_exports(self, write, capsys):
        path = write(TRIANGLE)
        for which in ("input", "X0", "Xhalf", "Xquarter", "Xbar", "fiber"):
            assert main(
                ["export", "--input", path, "--graph", which, "--format", "dot"]
            ) == 0
            assert capsys.readouterr().out

    def test_unoriented_input_is_fine_for_low_levels(self, write, capsys):
        path = write(UNORIENTED)
        assert main(["export", "--input", path, "--graph", "Xhalf"]) == 0
        capsys.readouterr()
        assert main(["export", "--input", path, "--graph", "Xbar"]) == 2

    def test_fiber_export_refuses_inadmissible(self, write, capsys):
        assert main(
            ["export", "--input", write(CLASHING), "--graph", "fiber",
             "--format", "json"]
        ) == 1

    def test_output_file(self, write, tmp_path, capsys):
        out = tmp_path / "out.dot"
        assert main(
            ["export", "--input", write(TRIANGLE), "--output", str(out)]
        ) == 0
        assert out.read_text().startswith("graph")
        assert capsys.readouterr().out == ""


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TRIANGLE)))
    assert main(["check"]) == 0
    assert "admissible: yes" in capsys.readouterr().out


def test_parser_is_built_once_per_process(write, monkeypatch, capsys):
    import argparse

    path = write(TRIANGLE)
    assert main(["check", "--input", path]) == 0
    added = []
    real = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert main(["check", "--input", path]) == 0
    assert added == []


def count_calls(monkeypatch, names):
    """Count the calls of the named library functions through every binding
    the package's modules hold of them."""
    calls = dict.fromkeys(names, 0)
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and name.split(".")[0] == "artinsplit"]
    for name in names:
        real = next(vars(m)[name] for m in modules if name in vars(m))

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, binding, counting)
    return calls


def used_orientation(g):
    """The orientation certify analysed: provided or searched."""
    evidence = certify(g).evidence
    return evidence.get("consistency_probe", evidence)["orientation"]["used"]


@pytest.mark.parametrize("run, expected", [
    # certify: the R4 consistency probe, a provided R7 orientation and a
    # searched R7 one, and a provided and a searched R6 one; then the two
    # CLI commands that build the product
    (lambda write: used_orientation(ring((5, 4, 6), (None,) * 3)), "searched"),
    (lambda write: used_orientation(ring((41, 4, 4))), "provided"),
    (lambda write: used_orientation(ring((5, 5, 5, 5), (None,) * 4)), "searched"),
    (lambda write: used_orientation(ring((3, 3, 4, 5))), "provided"),
    (lambda write: used_orientation(ring((3, 3, 4, 5), (None,) * 4)), "searched"),
    (lambda write: main(["fiber", "--input", write(TRIANGLE)]), 0),
    (lambda write: main(["export", "--graph", "fiber", "--input",
                         write(TRIANGLE)]), 0),
], ids=["certify-probe", "certify-provided", "certify-searched",
        "certify-R6-provided", "certify-R6-searched", "fiber",
        "export-fiber"])
def test_xbar_its_product_and_the_immersion_check_run_once(
        run, expected, write, monkeypatch, capsys):
    # admissibility is decided once, by `is_admissible`, before Xbar is
    # built, and the verdict's collapse classes go on to the splitting and
    # to Xbar, so the classes of the sign double cover are joined once;
    # Xbar's immersion is checked once, at the entry of `fiber_product`
    calls = count_calls(monkeypatch, (
        "build_collapsed", "fiber_product", "is_immersion", "is_admissible"))
    assert run(write) == expected
    assert calls == {"build_collapsed": 1, "fiber_product": 1,
                     "is_immersion": 1, "is_admissible": 1}


def test_seeded_fuzz_every_input_ends_in_exit_0_1_or_2(tmp_path, run_cli):
    # Every subcommand and export graph in every format, on random valid
    # graphs, malformed JSON and the three inputs json fails on in other
    # ways.  Input sizes stay small: very large labels still run without
    # limit until the library has size budgets.
    # A seeded tenth of the commands run again with --output: the file
    # holds what stdout held, and the exit code and stderr stay the same.
    # An --output that cannot be opened is an input error.
    bad_bytes = tmp_path / "not-utf8.json"
    bad_bytes.write_bytes(NOT_UTF8)
    out_file = tmp_path / "out.txt"
    unopenable = (str(tmp_path), str(tmp_path / "a\x00b"),
                  str(tmp_path / "missing" / "out.txt"))

    def run(argv, text):
        code, out, err = run_cli(argv, text)
        assert code in (0, 1, 2), (argv, text)
        codes.add(code)
        if code == 2:
            assert err.startswith(("input error: ", "usage: "))
        if pick.random() < 0.1:
            out_file.unlink(missing_ok=True)
            again, nothing, again_err = run_cli(
                argv + ["--output", str(out_file)], text)
            written = out_file.read_text() if out_file.exists() else ""
            assert (again, nothing, again_err, written) == (code, "", err, out)
            redirected.append(code)

    codes = set()
    redirected = []
    pick = random.Random(10)
    rng = random.Random(9)
    for round_, texts, argvs in fuzz_rounds(rng):
        if round_ < 3:
            texts += [LONG_INTEGER, DEEP_ARRAYS]
        check = ["check", "--max-cycle-len",
                 rng.choice(("2", "3", "5", "12", "13", "x")), "--format"]
        for argv in argvs + [check + ["json"], check + ["text"]]:
            for text in texts:
                run(argv, text)
            if round_ < 3:
                run(argv + ["--input", str(bad_bytes)], "")
                for path in unopenable:
                    code, out, err = run_cli(argv + ["--output", path], texts[0])
                    assert code == 2 and out == "", (argv, path)
                    assert err.startswith(("input error: ", "usage: "))
    assert codes == {0, 1, 2}
    assert set(redirected) == {0, 1, 2}
