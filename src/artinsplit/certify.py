"""Residual finiteness certificates for Artin groups over defining graphs.

A small rules engine: each rule names a known residual-finiteness criterion,
checks its machine-verifiable hypotheses against the computed evidence
(label patterns, admissible orientations, splittings, fiber products), and
the first applicable rule decides the verdict.  Every certificate records
the rule, its citation, the evidence, and the proof obligations that are
cited rather than recomputed.

The rules are R1 and R3 to R8.  The numbering skips R2, because a
three-vertex graph with two edges is a path, which R1 decides; rule numbers
stay fixed because certificates name them.  Each stage runs at one call
site: one union-find count decides forest and connectivity, the
orientation is resolved once per certificate, a triangle's consistency
probe included, and one `is_admissible` verdict carries its graph to the
splitting and Xbar, whose self fiber product gets one monochrome check.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional

from .defining_graph import (
    DefiningGraph,
    OrientationReport,
    all_labels_even,
    require_valid,
)
from .fiber import (
    MonochromeVerdict,
    OppressiveWords,
    fiber_product,
    monochrome_check,
)
from .horizontal import SplittingCertificate, build_collapsed, compute_splitting
from .multigraph import named_classes
from .orientation import (
    AdmissibilityVerdict,
    SearchSpaceError,
    WitnessCycle,
    find_admissible_orientation,
    is_admissible,
)

RESIDUALLY_FINITE = "ResiduallyFinite"
SPLITS_ONLY = "SplitsOnly"
UNKNOWN = "Unknown"

_CITATIONS = {
    "R1": "Artin groups over forest defining graphs are virtually special, "
          "hence residually finite.",
    "R3": "The affine three-generator Artin groups, labels (3,3,3), (2,4,4) "
          "and (2,3,6), are residually finite.",
    "R4": "Triangle Artin groups with all labels at least 4 are residually "
          "finite when the labels are not a permutation of (2m+1, 4, 4).",
    "R5": "Artin groups all of whose labels are even and at least 6 are "
          "residually finite.",
    "R6": "An Artin group with an admissible orientation whose collapsed "
          "level graph has a self fiber product with only monochrome simple "
          "cycles in its nontrivial components is residually finite.",
    "R7": "An admissible orientation splits the Artin group as an amalgam "
          "or HNN extension of free groups over free subgroups.",
}

_DESCRIPTIONS = {
    "R1": "defining graph is a forest",
    "R3": "affine triangle labels",
    "R4": "triangle labels at least 4, not (odd,4,4)",
    "R5": "admissible orientation, all labels even and at least 6",
    "R6": "admissible orientation and monochrome self fiber product",
    "R7": "admissible orientation, splitting only",
    "R8": "no applicable criterion",
}

_CAVEAT_QUOTIENT = (
    "Separation of the edge subgroup from its oppressive set in the "
    "finite-cyclic quotients of the vertex groups is cited, not recomputed."
)
_CAVEAT_TILING = (
    "The embedding of the relevant universal covers into the quotient "
    "complexes (a curvature and tiling argument) is cited, not recomputed."
)
_CAVEAT_ALL_ODD = (
    "All labels are odd: the monochrome criterion is stated for any "
    "admissible orientation, but its quotient construction is modeled on "
    "an even label; this certificate leans on the general statement."
)


@dataclass(frozen=True)
class RFCertificate:
    """Verdict plus the machinery that produced it.

    verdict is one of ResiduallyFinite, SplitsOnly, Unknown; rule is the
    deciding rule's short name; splitting and monochrome hold the computed
    evidence when the deciding path needed them.
    """

    verdict: str
    rule: str
    citations: tuple[str, ...]
    caveats: tuple[str, ...]
    splitting: Optional[SplittingCertificate]
    monochrome: Optional[MonochromeVerdict]
    evidence: dict

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rule": self.rule,
            "citations": list(self.citations),
            "ranks": self.splitting.to_json_dict() if self.splitting else {},
            "monochrome": _monochrome_json(self.monochrome),
            "caveats": list(self.caveats),
            "evidence": self.evidence,
        }

    def to_json(self) -> str:
        """Canonical serialization: identical inputs give identical bytes."""
        return canonical_json(self.to_json_dict())


def canonical_json(payload: dict) -> str:
    """The one JSON layout of every certificate and CLI report: exactly the
    bytes of `json.dumps(payload, indent=2, sort_keys=True)`, that is sorted
    keys, a two-space indent and ASCII escapes.

    Only `dict` with `str` keys, `list`, `tuple`, `str`, `int`, `bool` and
    None are written, and one more value: `OppressiveWords`, written as the
    list of its words.  Any other value, such as a float, a non-`str` key or
    a subclass of one of these types, raises TypeError, so nothing is ever
    written in another layout.
    """
    out: list[str] = []
    _encode(payload, "\n", out)
    return "".join(out)


def _encode(o, indent: str, out: list[str]) -> None:
    """`canonical_json`'s writer: appends the text of one value at `indent`
    to `out`, which is joined once.  It has no comprehension, so no local
    becomes a cell that every call allocates."""
    t = type(o)
    if t is str:
        out.append(encode_basestring_ascii(o))
    elif t is tuple or t is list:
        inner = indent + "  "
        sep = "," + inner
        head = "[" + inner
        for item in o:
            out.append(head)
            _encode(item, inner, out)
            head = sep
        out.append(indent + "]" if o else "[]")
    elif t is dict:
        for k in o:
            if type(k) is not str:
                raise TypeError(f"key {k!r} is not a str")
        inner = indent + "  "
        sep = "," + inner
        head = "{" + inner
        for k in sorted(o):
            out.append(head)
            out.append(encode_basestring_ascii(k))
            out.append(": ")
            _encode(o[k], inner, out)
            head = sep
        out.append(indent + "}" if o else "{}")
    elif t is int:
        out.append(int.__repr__(o))
    elif o is None:
        out.append("null")
    elif t is bool:
        out.append("true" if o else "false")
    elif t is OppressiveWords and not o.keys:
        out.append("[]")
    elif t is OppressiveWords:
        inner = indent + "  "
        deeper = inner + "  "
        # each step's text once; a word drops its first letter's comma
        table = []
        for step in o.steps:
            text = ["," + deeper]
            _encode(step, deeper, text)
            table.append("".join(text))
        words = []
        for key in o.keys:
            words.append(key.translate(table)[1:])
        # one entry of `out` for the set, not one per word, so the words'
        # texts are freed before the final join
        close = inner + "]"
        out.extend(("[" + inner + "[", (close + "," + inner + "[").join(words),
                    close + indent + "]"))
    else:
        raise TypeError(f"{t.__name__} is not written as canonical JSON")


def _monochrome_json(mono: Optional[MonochromeVerdict]) -> dict:
    if mono is None:
        return {}
    out: dict = {"all_monochrome": mono.all_monochrome}
    if mono.witness is not None:
        out["witness"] = {
            "component": mono.witness_component,
            "start": mono.witness.start,
            "steps": [list(s) for s in mono.witness.steps],
            "vertices": list(mono.witness.vertices()),
            "word": [list(l) for l in mono.witness.word()],
            "colors": list(mono.witness_colors()),
        }
    return out


def witness_json(w: Optional[WitnessCycle]) -> Optional[dict]:
    if w is None:
        return None
    return {"vertices": list(w.vertices), "tails": list(w.tails)}


def _resolve_orientation(
    g: DefiningGraph, report: OrientationReport
) -> tuple[AdmissibilityVerdict | None, dict]:
    """Find an admissible total orientation to analyze, preferring the
    provided one.  `report` is g's validation report.  Returns (the
    admissible verdict or None, evidence record).  Every orientation
    returned has been checked by `is_admissible`, the searched one too,
    also under `python -O`; that verdict, which carries the oriented graph,
    goes on to `compute_splitting` and `build_collapsed`, so neither
    decides it or joins its collapse classes again."""
    info: dict = {
        "provided_total": report.iota_total,
        "orientable_edges": ["-".join(k) for k in report.orientable_edges],
    }
    if report.iota_total:
        verdict = is_admissible(g)
        info["provided_admissible"] = verdict.admissible
        if verdict.admissible:
            info["used"] = "provided"
            return verdict, info
        info["provided_witness"] = witness_json(verdict.witness)
        info["note"] = (
            "provided orientation is inadmissible; residual finiteness is a "
            "group property, so an admissible orientation was searched for"
        )
    try:
        assignment = find_admissible_orientation(g)
    except SearchSpaceError as exc:
        info["search"] = f"refused: {exc}"
        return None, info
    if assignment is None:
        info["search"] = "exhausted: no admissible orientation exists"
        return None, info
    verdict = is_admissible(g.with_orientation(assignment))
    if not verdict.admissible:
        raise AssertionError("the search returned an inadmissible orientation")
    info["search"] = "found"
    info["used"] = "searched"
    info["iota"] = {"-".join(k): t for k, t in sorted(assignment.items())}
    return verdict, info


def certify(g: DefiningGraph) -> RFCertificate:
    """Evaluate the certification rules in order; first match decides.

    R1 forest; R3 affine triangle; R4 triangle with labels at least 4
    avoiding (odd,4,4); R5 admissible and all labels even at least 6; R6
    admissible and monochrome self fiber product; R7 admissible, splitting
    only; R8 unknown.  Past R1 and a disconnected R8, the orientation is
    resolved once.  On triangles where a label rule decides, the monochrome
    machinery still runs on it and the comparison is recorded as a
    consistency probe.
    """
    report = require_valid(g, oriented=False)

    labels = g.labels()
    # every edge but the closing ones joins two classes, and a connected
    # graph on n vertices needs exactly n - 1 such joins
    closing = named_classes(g.vertices, ((e.u, e.v) for e in g.edges))[1]
    evidence: dict = {
        "labels": {
            "all": list(labels),
            "is_forest": not closing,
            "is_triangle": g.is_triangle(),
            "is_connected": len(g.edges) - closing == len(g.vertices) - 1,
            "all_even": all_labels_even(g),
        },
    }

    def cert(
        verdict: str,
        rule: str,
        caveats: tuple[str, ...] = (),
        splitting: Optional[SplittingCertificate] = None,
        monochrome: Optional[MonochromeVerdict] = None,
    ) -> RFCertificate:
        evidence["rule_description"] = _DESCRIPTIONS[rule]
        citation = _CITATIONS.get(rule)
        return RFCertificate(
            verdict=verdict,
            rule=rule,
            citations=(citation,) if citation else (),
            caveats=caveats,
            splitting=splitting,
            monochrome=monochrome,
            evidence=evidence,
        )

    # R1: forests (covers every disconnected forest as well)
    if not closing:
        return cert(RESIDUALLY_FINITE, "R1")

    if not evidence["labels"]["is_connected"]:
        evidence["note"] = (
            "disconnected defining graph: certify the connected components "
            "separately and combine as a free product"
        )
        return cert(UNKNOWN, "R8")

    used, orient_info = _resolve_orientation(g, report)
    rule = None
    if evidence["labels"]["is_triangle"]:  # `labels` is sorted
        if labels in ((3, 3, 3), (2, 4, 4), (2, 3, 6)):
            rule, caveats, judged = "R3", (), False
        elif labels[0] >= 4 and not (labels[:2] == (4, 4) and labels[2] % 2):
            # the monochrome criterion is modeled on an even label, so on
            # an all-odd triangle the probe records without judging
            rule, caveats = "R4", (_CAVEAT_TILING, _CAVEAT_QUOTIENT)
            judged = any(l % 2 == 0 for l in labels)

    if rule is None:
        evidence["orientation"] = orient_info
        if used is None:
            return cert(UNKNOWN, "R8")
        splitting = compute_splitting(used)
        if all(e.label % 2 == 0 and e.label >= 6 for e in g.edges):
            return cert(
                RESIDUALLY_FINITE,
                "R5",
                caveats=(_CAVEAT_QUOTIENT,),
                splitting=splitting,
            )

    mono = None
    if used is not None:
        mono = monochrome_check(fiber_product(build_collapsed(used).graph))

    if rule is not None:
        # the label rule decides; the monochrome verdict is only a probe
        probe: dict = {"evaluated": mono is not None,
                       "orientation": orient_info}
        if mono is not None:
            probe["all_monochrome"] = mono.all_monochrome
            if judged:
                probe["label_rule_predicts_rf"] = True
                probe["agrees"] = mono.all_monochrome
        evidence["consistency_probe"] = probe
        return cert(RESIDUALLY_FINITE, rule, caveats=caveats)

    if mono.all_monochrome:
        caveats = (_CAVEAT_QUOTIENT, _CAVEAT_TILING)
        if all(l % 2 == 1 for l in labels):
            caveats += (_CAVEAT_ALL_ODD,)
        return cert(
            RESIDUALLY_FINITE,
            "R6",
            caveats=caveats,
            splitting=splitting,
            monochrome=mono,
        )

    return cert(
        SPLITS_ONLY,
        "R7",
        splitting=splitting,
        monochrome=mono,
    )
