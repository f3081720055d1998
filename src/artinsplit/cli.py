"""Command line front end: parse a defining graph, analyze, report.

Subcommands: check (orientation admissibility), orient (search for an
admissible orientation), split (free splitting ranks), fiber (self fiber
product inventory), certify (residual finiteness certificate), export
(DOT/JSON of any constructed graph).

Exit codes: 0 success, 1 the analysis answered "no" or refused (not
admissible, nothing found, splitting undefined), 2 malformed input.
"""

from __future__ import annotations

import argparse
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
    SplittingCertificate,
    build_collapsed,
    build_family,
    compute_splitting,
)
from .multigraph import ColoredGraph, DisconnectedError
from .orientation import (
    SearchSpaceError,
    WitnessCycle,
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


def _witness_text(w: WitnessCycle) -> str:
    cyc = " -> ".join(w.vertices + (w.vertices[0],))
    tails = ", ".join(t if t is not None else "(free)" for t in w.tails)
    return f"{cyc}  (tails: {tails})"


def _read_input(path: str) -> DefiningGraph:
    # also bad input: bytes not UTF-8, over-long integers, too-deep nesting
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from None
    return parse_defining_graph(data)


def _emit(args, text: str) -> None:
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, canonical_json(payload) + "\n")


def _refuse(args, reason: str, **payload) -> int:
    """Report a refusal with its reason and return its exit code, 1."""
    if args.format == "json":
        _emit_json(args, {"refused": reason, **payload})
    else:
        _emit(args, f"refused: {reason}\n")
    return 1


def cmd_check(args) -> int:
    g = _read_input(args.input)
    report = g.report
    verdict = is_admissible(g)
    oracle = oracle_almost_misdirected(g, args.max_cycle_len)
    if verdict.admissible:
        status = "confirmed" if oracle is None else "conflict"
    else:
        status = "confirmed" if oracle is not None else "inconclusive"
    if args.format == "json":
        _emit_json(args, {
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
        })
    else:
        lines = [
            f"structure: ok ({len(report.orientable_edges)} orientable edges)",
            f"admissible: {'yes' if verdict.admissible else 'no'}",
        ]
        if not verdict.admissible:
            lines.append(f"reason: {verdict.reason}")
            if verdict.witness is None:
                raise AssertionError("inadmissible verdict without a witness")
            lines.append(f"witness: {_witness_text(verdict.witness)}")
        lines.append(
            f"oracle (closed walks up to {args.max_cycle_len}): {status}"
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if verdict.admissible else 1


def cmd_orient(args) -> int:
    g = _read_input(args.input)
    try:
        assignment = find_admissible_orientation(g)
    except SearchSpaceError as exc:
        return _refuse(args, str(exc), found=False)
    if assignment is None:
        if args.format == "json":
            _emit_json(args, {"found": False})
        else:
            _emit(args, "no admissible orientation exists\n")
        return 1
    oriented = g.with_orientation(assignment)
    if args.format == "json":
        _emit_json(args, {
            "found": True,
            "iota": {"-".join(k): t for k, t in sorted(assignment.items())},
            "graph": defining_graph_json_dict(oriented),
        })
    else:
        lines = ["admissible orientation found:"]
        for (u, v), t in sorted(assignment.items()):
            lines.append(f"  {u}-{v}: tail {t}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _splitting_text(cert: SplittingCertificate) -> str:
    if cert.kind == "amalgam":
        return (
            f"amalgam: F_{cert.rank_a} *_(F_{cert.rank_c}) F_{cert.rank_b}; "
            f"edge group has index {cert.index_c_in_b} in F_{cert.rank_b}"
        )
    return (
        f"HNN extension: base F_{cert.rank_a}, edge group F_{cert.rank_b} "
        "attached along two embeddings"
    )


def cmd_split(args) -> int:
    g = _read_input(args.input)
    try:
        cert = compute_splitting(g)
    except InadmissibleOrientation as exc:
        if args.format == "json":
            _emit_json(args, {
                "refused": "orientation is not admissible",
                "reason": exc.verdict.reason,
                "witness": witness_json(exc.verdict.witness),
            })
        else:
            _emit(args, f"refused: {exc}\n")
        return 1
    except DisconnectedError as exc:
        return _refuse(args, str(exc))
    if args.format == "json":
        _emit_json(args, cert.to_json_dict())
    else:
        _emit(args, _splitting_text(cert) + "\n")
    return 0


def _collapsed_or_refuse(args, g: DefiningGraph):
    """Build the collapsed quarter graph; None (after reporting) when the
    orientation is inadmissible, since only then it fails to immerse."""
    collapsed = build_collapsed(g)
    if collapsed.admissible:
        return collapsed
    if args.format == "json":
        _emit_json(args, {
            "refused": "orientation is not admissible; the collapsed "
                       "quarter graph does not immerse",
            "witness": witness_json(collapsed.witness),
        })
    else:
        _emit(args, "refused: orientation is not admissible\n")
    return None


def cmd_fiber(args) -> int:
    g = _read_input(args.input)
    collapsed = _collapsed_or_refuse(args, g)
    if collapsed is None:
        return 1
    if (
        args.oppressive
        and args.basepoint is not None
        and args.basepoint not in collapsed.graph.vertices
    ):
        print(
            f"input error: basepoint {args.basepoint!r} is not a vertex of "
            "the collapsed graph",
            file=sys.stderr,
        )
        return 2
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
    if args.format == "json":
        _emit_json(args, payload)
    else:
        lines = [f"components: {len(fp.classification)}"]
        for entry in inventory:
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
        if mono.all_monochrome:
            lines.append("monochrome: yes")
        else:
            if mono.witness is None:
                raise AssertionError("mixed verdict without a witness")
            lines.append(
                "monochrome: no (component "
                f"{mono.witness_component}, colors "
                f"{', '.join(mono.witness_colors())})"
            )
        if "oppressive" in payload:
            op = payload["oppressive"]
            lines.append(
                f"oppressive words at {op['basepoint']}: {op['count']}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_certify(args) -> int:
    g = _read_input(args.input)
    cert = certify(g)
    if args.format == "json":
        _emit_json(args, cert.to_json_dict())
    else:
        lines = [
            f"verdict: {cert.verdict}",
            f"rule: {cert.rule} ({cert.evidence.get('rule_description', '')})",
        ]
        for c in cert.citations:
            lines.append(f"citation: {c}")
        if cert.splitting is not None:
            lines.append("splitting: " + _splitting_text(cert.splitting))
        if cert.monochrome is not None:
            lines.append(
                "monochrome: "
                + ("yes" if cert.monochrome.all_monochrome else "no")
            )
        for c in cert.caveats:
            lines.append(f"caveat: {c}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_export(args) -> int:
    g = _read_input(args.input)
    pal = edge_palette(g)
    if args.graph == "input":
        require_valid(g, oriented=False)
        if args.format == "json":
            _emit_json(args, defining_graph_json_dict(g))
        elif args.format == "dot":
            _emit(args, defining_graph_dot(g))
        else:
            lines = [f"{len(g.vertices)} vertices, {len(g.edges)} edges"]
            for e in g.edges:
                tail = f", tail {e.iota}" if e.iota else ""
                lines.append(f"  {e.u} - {e.v}  label {e.label}{tail}")
            _emit(args, "\n".join(lines) + "\n")
        return 0
    if args.graph in ("X0", "Xhalf", "Xquarter"):
        family = build_family(g)
        cg = {
            "X0": family.x0,
            "Xhalf": family.x_half,
            "Xquarter": family.x_quarter,
        }[args.graph]
    elif args.graph == "Xbar":
        cg = build_collapsed(g).graph
    else:  # fiber
        collapsed = _collapsed_or_refuse(args, g)
        if collapsed is None:
            return 1
        cg = fiber_product(collapsed.graph).graph
    if args.format == "json":
        _emit_json(args, colored_graph_json_dict(cg))
    elif args.format == "dot":
        _emit(args, colored_graph_dot(cg, pal, args.graph))
    else:
        _emit(args, colored_graph_text(cg))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
