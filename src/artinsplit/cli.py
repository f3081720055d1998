"""Command line front end: parse a defining graph, analyze, report.

Subcommands: check (orientation admissibility), orient (search for an
admissible orientation), split (free splitting ranks), fiber (self fiber
product inventory), certify (residual finiteness certificate), export
(DOT/JSON of any constructed graph).

Each report command builds one JSON payload; `--format text` renders
that payload, so the text says nothing the JSON does not.

Exit codes: 0 success, 1 the analysis answered "no" or refused (not
admissible, nothing found, splitting undefined), 2 malformed input or a
path that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .certify import canonical_json, certify, witness_json
from .defining_graph import (
    MAX_CYCLE_LEN,
    DefiningGraph,
    InvalidDefiningGraph,
    SchemaError,
    require_valid,
)
from .fiber import (
    fiber_product,
    monochrome_check,
    oppressive_set,
)
from .horizontal import (
    InadmissibleOrientation,
    build_collapsed,
    build_family,
    compute_splitting,
)
from .multigraph import ColoredGraph, DisconnectedError
from .orientation import (
    SearchSpaceError,
    find_admissible_orientation,
    is_admissible,
    oracle_almost_misdirected,
    plus,
)

_TOP_FIELDS = {"vertices", "edges"}
_EDGE_FIELDS = {"u", "v", "label", "iota"}


def parse_defining_graph(data: object) -> DefiningGraph:
    """Strict schema reader; any deviation raises SchemaError with context."""
    if not isinstance(data, dict):
        raise SchemaError("top level: expected an object")
    for k in data:
        if k not in _TOP_FIELDS:
            raise SchemaError(f"top level: unknown field {k!r}")
    for k in ("vertices", "edges"):
        if k not in data:
            raise SchemaError(f"top level: missing field {k!r}")
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise SchemaError("vertices: expected a list")
    for i, v in enumerate(vertices):
        if not isinstance(v, str):
            raise SchemaError(f"vertices[{i}]: expected a string")
    edges_in = data["edges"]
    if not isinstance(edges_in, list):
        raise SchemaError("edges: expected a list")
    rows = []
    for i, e in enumerate(edges_in):
        where = f"edges[{i}]"
        if not isinstance(e, dict):
            raise SchemaError(f"{where}: expected an object")
        for k in e:
            if k not in _EDGE_FIELDS:
                raise SchemaError(f"{where}: unknown field {k!r}")
        for k in ("u", "v", "label"):
            if k not in e:
                raise SchemaError(f"{where}: missing field {k!r}")
        for k in ("u", "v"):
            if not isinstance(e[k], str):
                raise SchemaError(f"{where}.{k}: expected a string")
        label = e["label"]
        if isinstance(label, bool) or not isinstance(label, int):
            raise SchemaError(f"{where}.label: expected an integer")
        iota = e.get("iota")
        if iota is not None and not isinstance(iota, str):
            raise SchemaError(f"{where}.iota: expected a string")
        rows.append((e["u"], e["v"], label, iota))
    return DefiningGraph.build(vertices, rows)


def defining_graph_json_dict(g: DefiningGraph) -> dict:
    edges = []
    for e in g.edges:
        row: dict = {"u": e.u, "v": e.v, "label": e.label}
        if e.iota is not None:
            row["iota"] = e.iota
        edges.append(row)
    return {"vertices": list(g.vertices), "edges": edges}


def colored_graph_json_dict(cg: ColoredGraph) -> dict:
    return {
        "vertices": list(cg.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "color": e.color}
            for e in cg.edges
        ],
    }


_PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#42d4f4",
    "#f032e6", "#bfef45", "#469990", "#9a6324", "#800000", "#000075",
)


def edge_palette(g: DefiningGraph) -> dict[str, str]:
    """One fixed palette entry per defining edge, in input order."""
    return {
        e.color: _PALETTE[i % len(_PALETTE)] for i, e in enumerate(g.edges)
    }


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def defining_graph_dot(g: DefiningGraph) -> str:
    pal = edge_palette(g)
    lines = ["graph defining {"]
    for v in g.vertices:
        lines.append(f"  {_q(v)};")
    for e in g.edges:
        a, b = e.u, e.v
        attrs = [f'label="{e.label}"', f'color="{pal[e.color]}"']
        if e.iota is not None:
            a = e.iota
            b = e.other(a)
            attrs.append('dir="forward"')
        lines.append(f"  {_q(a)} -- {_q(b)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def colored_graph_dot(cg: ColoredGraph, pal: dict[str, str], name: str) -> str:
    lines = [f"digraph {_q(name)} {{"]
    for v in cg.vertices:
        lines.append(f"  {_q(v)};")
    for e in cg.edges:
        color = pal.get(e.color, "#000000")
        lines.append(
            f"  {_q(e.tail)} -> {_q(e.head)} "
            f'[color="{color}", label={_q(e.color)}, id={_q(e.id)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def colored_graph_text(cg: ColoredGraph) -> str:
    lines = [f"{len(cg.vertices)} vertices, {len(cg.edges)} edges"]
    for e in cg.edges:
        lines.append(f"  {e.id}: {e.tail} -> {e.head}  [{e.color}]")
    return "\n".join(lines) + "\n"


def _witness_text(w: dict) -> str:
    """A `witness_json` dict as one line."""
    cyc = " -> ".join(w["vertices"] + [w["vertices"][0]])
    tails = ", ".join(t if t is not None else "(free)" for t in w["tails"])
    return f"{cyc}  (tails: {tails})"


def _open(path: str, mode: str):
    # open() refuses a path with a NUL byte by ValueError; report it as the
    # OSError any other path it cannot open gives
    try:
        return open(path, mode, encoding="utf-8")
    except ValueError as exc:
        raise OSError(f"{exc}: {path!r}") from None


def _read_input(path: str) -> DefiningGraph:
    # also bad input: bytes not UTF-8, over-long integers, too-deep nesting
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with _open(path, "r") as f:
                text = f.read()
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from None
    return parse_defining_graph(data)


def _open_output(path: str):
    """The `--output` file, or standard output for '-' (left open)."""
    if path and path != "-":
        return _open(path, "w")
    return contextlib.nullcontext(sys.stdout)


def _report(args, payload: dict, text, code: int = 0) -> int:
    """Write a command's one result: `payload` as canonical JSON, or the
    lines `text(payload)` renders from it.  Returns the exit code `code`."""
    lines = [canonical_json(payload)] if args.format == "json" else text(payload)
    args.out.write("\n".join(lines) + "\n")
    return code


def _refuse(args, reason: str, **payload) -> int:
    """Report a refusal with its reason and return its exit code, 1."""
    return _report(args, {"refused": reason, **payload},
                   lambda p: [f"refused: {p['refused']}"], 1)


def _check_text(p: dict) -> list[str]:
    lines = [
        f"structure: ok ({len(p['report']['orientable_edges'])} orientable edges)",
        f"admissible: {'yes' if p['admissible'] else 'no'}",
    ]
    if not p["admissible"]:
        lines.append(f"reason: {p['reason']}")
        if p["witness"] is None:
            raise AssertionError("inadmissible verdict without a witness")
        lines.append(f"witness: {_witness_text(p['witness'])}")
    oracle = p["oracle"]
    return lines + [f"oracle (closed walks up to {oracle['max_cycle_len']}): "
                    f"{oracle['status']}"]


def cmd_check(args, g: DefiningGraph) -> int:
    report = g.report
    verdict = is_admissible(g)
    oracle = oracle_almost_misdirected(g, args.max_cycle_len)
    if verdict.admissible:
        status = "confirmed" if oracle is None else "conflict"
    else:
        status = "confirmed" if oracle is not None else "inconclusive"
    return _report(args, {
        "report": {
            "ok": report.ok,
            "problems": report.problems,
            "orientable_edges": ["-".join(k) for k in report.orientable_edges],
            "iota_total": report.iota_total,
        },
        "admissible": verdict.admissible,
        "reason": verdict.reason,
        "witness": witness_json(verdict.witness),
        "oracle": {
            "max_cycle_len": args.max_cycle_len,
            "witness": witness_json(oracle),
            "status": status,
        },
    }, _check_text, 0 if verdict.admissible else 1)


def _orient_text(p: dict) -> list[str]:
    if not p["found"]:
        return ["no admissible orientation exists"]
    return ["admissible orientation found:"] + [
        f"  {edge}: tail {t}" for edge, t in p["iota"].items()
    ]


def cmd_orient(args, g: DefiningGraph) -> int:
    try:
        assignment = find_admissible_orientation(g)
    except SearchSpaceError as exc:
        return _refuse(args, str(exc), found=False)
    if assignment is None:
        return _report(args, {"found": False}, _orient_text, 1)
    return _report(args, {
        "found": True,
        "iota": {"-".join(k): t for k, t in sorted(assignment.items())},
        "graph": defining_graph_json_dict(g.with_orientation(assignment)),
    }, _orient_text)


def _splitting_text(ranks: dict) -> str:
    """A `SplittingCertificate.to_json_dict()` dict as one line."""
    if ranks["kind"] == "amalgam":
        return (
            f"amalgam: F_{ranks['rank_a']} *_(F_{ranks['rank_c']}) "
            f"F_{ranks['rank_b']}; edge group has index "
            f"{ranks['index_c_in_b']} in F_{ranks['rank_b']}"
        )
    return (
        f"HNN extension: base F_{ranks['rank_a']}, edge group "
        f"F_{ranks['rank_b']} attached along two embeddings"
    )


def cmd_split(args, g: DefiningGraph) -> int:
    try:
        cert = compute_splitting(is_admissible(g))
    except InadmissibleOrientation as exc:
        return _report(args, {
            "refused": "orientation is not admissible",
            "reason": exc.verdict.reason,
            "witness": witness_json(exc.verdict.witness),
        }, lambda p: [f"refused: {p['reason']}"], 1)
    except DisconnectedError as exc:
        return _refuse(args, str(exc))
    return _report(args, cert.to_json_dict(), lambda p: [_splitting_text(p)])


def _collapsed_or_refuse(args, g: DefiningGraph):
    """Build the collapsed quarter graph of an admissible orientation;
    None (after reporting) when `is_admissible` finds the orientation
    inadmissible.  The refusal's wording, that Xbar does not immerse, is
    kept for byte-identical output, though an inadmissible orientation's
    Xbar may immerse.  The verdict goes on to `build_collapsed`, so the
    collapse classes are joined once."""
    verdict = is_admissible(g)
    if verdict.admissible:
        return build_collapsed(verdict)
    _report(args, {
        "refused": "orientation is not admissible; the collapsed "
                   "quarter graph does not immerse",
        "witness": witness_json(verdict.witness),
    }, lambda p: ["refused: orientation is not admissible"])
    return None


def _fiber_text(p: dict) -> list[str]:
    lines = [f"components: {len(p['components'])}"]
    for entry in p["components"]:
        line = (
            f"  [{entry['index']}] {entry['classification']}: "
            f"{entry['vertices']} vertices, {entry['edges']} edges, "
            f"rank {entry['rank']}"
        )
        if entry["branching_vertices"]:
            line += f", branching: {', '.join(entry['branching_vertices'])}"
        if "fill_rank_ok" in entry:
            line += f", fill rank {'ok' if entry['fill_rank_ok'] else 'deficient'}"
        lines.append(line)
    mono = p["monochrome"]
    if mono["all_monochrome"]:
        lines.append("monochrome: yes")
    else:
        if "witness" not in mono:
            raise AssertionError("mixed verdict without a witness")
        lines.append(
            f"monochrome: no (component {mono['witness']['component']}, "
            f"colors {', '.join(mono['witness']['colors'])})"
        )
    if "oppressive" in p:
        op = p["oppressive"]
        lines.append(f"oppressive words at {op['basepoint']}: {op['count']}")
    return lines


def cmd_fiber(args, g: DefiningGraph) -> int:
    if args.basepoint is not None and not args.oppressive:
        raise SchemaError("--basepoint is read only with --oppressive")
    collapsed = _collapsed_or_refuse(args, g)
    if collapsed is None:
        return 1
    if (args.basepoint is not None
            and args.basepoint not in collapsed.graph.vertices):
        raise SchemaError(f"basepoint {args.basepoint!r} is not a vertex of "
                          "the collapsed graph")
    if args.oppressive and not g.vertices:
        return _refuse(args, "the graph is empty; oppressive words need a "
                             "basepoint")
    fp = fiber_product(collapsed.graph)
    mono = monochrome_check(fp)
    inventory = []
    for i, kind in enumerate(fp.classification):
        entry = {
            "index": i,
            "classification": kind,
            "vertices": fp.vertex_counts[i],
            "edges": fp.edge_counts[i],
            "rank": fp.rank(i),
            "branching_vertices": fp.branching_vertices(i),
        }
        if kind == "cycle-bearing":
            entry["fill_rank_ok"] = fp.fill_rank_ok[i]
        inventory.append(entry)
    payload: dict = {
        "components": inventory,
        "diagonal_components": fp.diagonal_components,
        "monochrome": {"all_monochrome": mono.all_monochrome},
    }
    if mono.witness is not None:
        payload["monochrome"]["witness"] = {
            "component": mono.witness_component,
            "vertices": mono.witness.vertices(),
            "colors": mono.witness_colors(),
        }
    if args.oppressive:
        basepoint = args.basepoint or collapsed.old_class[plus(min(g.vertices))]
        words = oppressive_set(collapsed.graph, basepoint)
        payload["oppressive"] = {
            "basepoint": basepoint,
            "count": len(words),
            "words": words,
        }
    return _report(args, payload, _fiber_text)


def _certify_text(p: dict) -> list[str]:
    lines = [
        f"verdict: {p['verdict']}",
        f"rule: {p['rule']} ({p['evidence'].get('rule_description', '')})",
    ]
    lines += [f"citation: {c}" for c in p["citations"]]
    if p["ranks"]:
        lines.append("splitting: " + _splitting_text(p["ranks"]))
    if p["monochrome"]:
        mono = p["monochrome"]["all_monochrome"]
        lines.append("monochrome: " + ("yes" if mono else "no"))
    return lines + [f"caveat: {c}" for c in p["caveats"]]


def cmd_certify(args, g: DefiningGraph) -> int:
    return _report(args, certify(g).to_json_dict(), _certify_text)


def cmd_export(args, g: DefiningGraph) -> int:
    if args.graph == "input":
        require_valid(g, oriented=False)
        if args.format == "json":
            args.out.write(canonical_json(defining_graph_json_dict(g)) + "\n")
        elif args.format == "dot":
            args.out.write(defining_graph_dot(g))
        else:
            lines = [f"{len(g.vertices)} vertices, {len(g.edges)} edges"]
            for e in g.edges:
                tail = f", tail {e.iota}" if e.iota else ""
                lines.append(f"  {e.u} - {e.v}  label {e.label}{tail}")
            args.out.write("\n".join(lines) + "\n")
        return 0
    if args.graph in ("X0", "Xhalf", "Xquarter"):
        family = build_family(g)
        cg = {"X0": family.x0, "Xhalf": family.x_half,
              "Xquarter": family.x_quarter}[args.graph]
    elif args.graph == "Xbar":
        cg = build_collapsed(is_admissible(g)).graph
    else:  # fiber
        collapsed = _collapsed_or_refuse(args, g)
        if collapsed is None:
            return 1
        cg = fiber_product(collapsed.graph).graph
    if args.format == "json":
        args.out.write(canonical_json(colored_graph_json_dict(cg)) + "\n")
    elif args.format == "dot":
        args.out.write(colored_graph_dot(cg, edge_palette(g), args.graph))
    else:
        args.out.write(colored_graph_text(cg))
    return 0


def _cycle_len_bound(text: str) -> int:
    """--max-cycle-len: an integer from 3, the shortest cycle, up to the
    enumeration bound MAX_CYCLE_LEN."""
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 3 <= bound <= MAX_CYCLE_LEN:
        raise argparse.ArgumentTypeError(
            f"{bound} is outside 3..{MAX_CYCLE_LEN}"
        )
    return bound


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="artinsplit",
        description="Level graphs, admissible orientations, free splittings "
                    "and residual finiteness certificates for Artin groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "text"), default="text"):
        p.add_argument("--input", default="-",
                       help="path to the defining graph JSON ('-' = stdin)")
        p.add_argument("--output", default="-",
                       help="output path ('-' = stdout)")
        p.add_argument("--format", choices=formats, default=default)

    p = sub.add_parser("check", help="validate and decide admissibility")
    common(p)
    p.add_argument("--max-cycle-len", type=_cycle_len_bound, default=10,
                   help="bound for the independent cycle-search oracle "
                        f"(3 to {MAX_CYCLE_LEN})")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orient", help="search for an admissible orientation")
    common(p)
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("split", help="free splitting with exact ranks")
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("fiber", help="self fiber product inventory")
    common(p)
    p.add_argument("--oppressive", action="store_true",
                   help="also enumerate oppressive words")
    p.add_argument("--basepoint", default=None,
                   help="basepoint vertex of the collapsed graph for "
                        "--oppressive (default: class of least vertex +)")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("certify", help="residual finiteness certificate")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("export", help="emit a constructed graph")
    common(p, formats=("json", "dot", "text"), default="dot")
    p.add_argument("--graph", default="input",
                   choices=("input", "X0", "Xhalf", "Xquarter", "Xbar",
                            "fiber"))
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        g = _read_input(args.input)
        # opened before the analysis, so a path that cannot be written is
        # refused before any work
        with _open_output(args.output) as args.out:
            return args.func(args, g)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvalidDefiningGraph as exc:
        for problem in exc.report.problems or (str(exc),):
            print(f"input error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
