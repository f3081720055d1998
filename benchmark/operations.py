"""Running one benchmark operation and checking what it produced.

An operation is answered when it returns (the CLI with exit 0, or 1 for a
clean refusal) and its output passes two kinds of check:

* its canonical bytes match the digest recorded for the same input, when
  one was recorded (`expected.json` holds every input of the default seed);
* on any seed, its claims re-check from outside: a searched orientation is
  admissible by `is_admissible`, an inadmissibility witness passes
  `check_witness`, a non-monochrome witness is a simple cycle of two or
  more colors, and split ranks match the rank formulas.

Anything else, raising included, is a failed operation.
"""

from __future__ import annotations

import io
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

from workloads import Op, digest, to_defining_graph


@dataclass(frozen=True)
class Outcome:
    seconds: float
    digest: Optional[str]
    problem: Optional[str]


def prepare(lib, op: Op):
    """The library's input for the operation, built once during set-up."""
    if op.kind == "certify":
        return to_defining_graph(lib, op.graph)
    return op.text


def execute(lib, cli, op: Op, prepared, expected: dict, need_digest: bool,
            tracer=None) -> Outcome:
    """Run the operation, timing only the call into the library."""
    result = None
    canonical = None
    saved = sys.stdin, sys.stdout, sys.stderr
    if op.kind == "cli":
        sys.stdin, sys.stdout, sys.stderr = (
            io.StringIO(prepared), io.StringIO(), io.StringIO())
    if tracer is not None:
        tracer.start_op()
    start = time.perf_counter()
    try:
        if op.kind == "certify":
            result = lib.certify(prepared)
            canonical = result.to_json()
        else:
            result = cli.main(list(op.argv))
            canonical = f"exit {result}\n{sys.stdout.getvalue()}"
    except (Exception, SystemExit) as exc:
        problem = f"raised {type(exc).__name__}: {exc}"
    else:
        problem = None
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.stop_op()
        sys.stdin, sys.stdout, sys.stderr = saved
    if problem is not None:
        return Outcome(seconds, None, problem)
    out_digest = digest(canonical)
    want = expected.get(op.key)
    if want is not None and want != out_digest:
        problem = "output differs from the recorded digest"
    elif want is None and need_digest:
        problem = "no digest recorded for this input"
    else:
        try:
            problem = check(lib, op, result, canonical)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            problem = f"malformed output: {type(exc).__name__}: {exc}"
    return Outcome(seconds, out_digest, problem)


def check(lib, op: Op, result, canonical: str) -> Optional[str]:
    g = to_defining_graph(lib, op.graph)
    if op.kind == "certify":
        return _check_certificate(lib, op, g, result)
    code = result
    if code not in (0, 1):
        return f"exit code {code}"
    return _check_cli(lib, op, g, code, json.loads(canonical.split("\n", 1)[1]))


def _witness_ok(lib, g, w: Optional[dict]) -> bool:
    return w is not None and lib.check_witness(
        g, lib.WitnessCycle(tuple(w["vertices"]), tuple(w["tails"])))


def _orientation_records(evidence: dict) -> list[dict]:
    """The certificate's orientation evidence, its own and its probe's."""
    records = (evidence.get("orientation"),
               evidence.get("consistency_probe", {}).get("orientation"))
    return [r for r in records if r is not None]


def _check_orientation(lib, g, info: dict, provided_only: bool) -> Optional[str]:
    if provided_only and info.get("used") != "provided":
        return "the given admissible orientation was not used"
    if info.get("used") == "searched":
        assignment = {tuple(k.split("-")): t for k, t in info["iota"].items()}
        if not lib.is_admissible(g.with_orientation(assignment)).admissible:
            return "searched orientation is not admissible"
    if info.get("provided_admissible") is False:
        if not _witness_ok(lib, g, info["provided_witness"]):
            return "witness against the given orientation does not re-check"
    return None


def _check_certificate(lib, op: Op, g, cert) -> Optional[str]:
    if op.expect_rule is not None and cert.rule != op.expect_rule:
        return f"rule {cert.rule}, expected {op.expect_rule}"
    for info in _orientation_records(cert.evidence):
        problem = _check_orientation(lib, g, info,
                                     provided_only=op.expect_rule is not None)
        if problem:
            return problem
    mono = cert.monochrome
    if mono is not None and not mono.all_monochrome:
        if not (mono.witness is not None and mono.witness.is_simple_cycle()
                and len(mono.witness_colors()) >= 2):
            return "non-monochrome witness is not a simple two-color cycle"
    if op.expect_rule == "R7" and (mono is None or mono.all_monochrome):
        return "expected a non-monochrome witness"
    return None


def _cycle_ok(vertices: list, colors: list) -> bool:
    """A closed walk listed with its start repeated at the end, visiting no
    other vertex twice, and using at least two colors."""
    inner = vertices[:-1]
    return (len(vertices) >= 3 and vertices[0] == vertices[-1]
            and len(set(inner)) == len(inner) and len(set(colors)) >= 2)


def _check_cli(lib, op: Op, g, code: int, payload: dict) -> Optional[str]:
    command = op.argv[0]
    if command == "check":
        if payload["admissible"] != (code == 0):
            return "admissible flag disagrees with the exit code"
        if payload["oracle"]["status"] == "conflict":
            return "cycle oracle conflicts with the admissibility verdict"
        if not payload["admissible"] and not _witness_ok(lib, g, payload["witness"]):
            return "inadmissibility witness does not re-check"
        return None
    if code == 1:
        if command == "certify":
            return "certify refused"
        if not _witness_ok(lib, g, payload["witness"]):
            return "refusal witness does not re-check"
        return None
    if command == "split":
        nv, ne = len(g.vertices), len(g.edges)
        rank_b = 1 - nv + 2 * ne
        if payload["rank_a"] != ne or payload["rank_b"] != rank_b:
            return "split ranks differ from the rank formulas"
        if payload["kind"] == "amalgam" and payload["rank_c"] != 2 * rank_b - 1:
            return "edge group rank differs from the rank formula"
        return None
    if command == "fiber":
        witness = payload["monochrome"].get("witness")
        if witness is not None and not _cycle_ok(witness["vertices"],
                                                 witness["colors"]):
            return "non-monochrome witness is not a simple two-color cycle"
        oppressive = payload.get("oppressive")
        if oppressive is not None and oppressive["count"] != len(oppressive["words"]):
            return "oppressive word count disagrees with the word list"
        return None
    if command == "certify":
        for info in _orientation_records(payload["evidence"]):
            problem = _check_orientation(lib, g, info, provided_only=False)
            if problem:
                return problem
        witness = payload["monochrome"].get("witness")
        if witness is not None and not _cycle_ok(witness["vertices"],
                                                 witness["colors"]):
            return "non-monochrome witness is not a simple two-color cycle"
        return None
    # export --graph fiber
    names = set(payload["vertices"])
    if not all(e["tail"] in names and e["head"] in names for e in payload["edges"]):
        return "exported fiber product has a dangling edge"
    return None
