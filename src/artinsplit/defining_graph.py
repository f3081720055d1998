"""Labelled defining graphs: input model, validation, cycle enumeration.

A defining graph is a finite simple graph whose edges carry an integer label
at least 2.  An edge with label at least 3 is orientable and may carry a
direction, recorded as `iota`, the name of its tail endpoint.  A missing
edge between two vertices means there is no relation between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .multigraph import bfs_forest, named_classes


class InvalidDefiningGraph(ValueError):
    """An operation was asked to run on a structurally invalid graph."""

    def __init__(self, report: "OrientationReport"):
        self.report = report
        super().__init__("; ".join(report.problems) or "invalid defining graph")


class SchemaError(ValueError):
    """Input JSON does not match the defining-graph schema."""


@dataclass(frozen=True)
class DefiningEdge:
    """An undirected labelled edge, stored with endpoints in sorted order."""

    u: str
    v: str
    label: int
    iota: Optional[str] = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.u, self.v)

    @property
    def color(self) -> str:
        return f"{self.u}-{self.v}"

    def other(self, x: str) -> str:
        return self.v if x == self.u else self.u


def _canonical_edge(u: str, v: str, label: int, iota: Optional[str]) -> DefiningEdge:
    if v < u:
        u, v = v, u
    return DefiningEdge(u, v, label, iota)


@dataclass(frozen=True)
class DefiningGraph:
    """Vertices and edges in input order; use sorted_edges for determinism."""

    vertices: tuple[str, ...]
    edges: tuple[DefiningEdge, ...]

    @staticmethod
    def build(
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, int] | tuple[str, str, int, Optional[str]]],
    ) -> "DefiningGraph":
        """Convenience constructor from (u, v, label[, iota]) tuples."""
        out = []
        for spec in edges:
            u, v, label = spec[0], spec[1], spec[2]
            iota = spec[3] if len(spec) > 3 else None
            out.append(_canonical_edge(u, v, label, iota))
        return DefiningGraph(tuple(vertices), tuple(out))

    @cached_property
    def sorted_edges(self) -> tuple[DefiningEdge, ...]:
        return tuple(sorted(self.edges, key=lambda e: e.key))

    @cached_property
    def report(self) -> "OrientationReport":
        """`validate(self)`, computed once per graph."""
        return validate(self)

    @cached_property
    def edge_index(self) -> dict[tuple[str, str], DefiningEdge]:
        return {e.key: e for e in self.edges}

    def edge_between(self, a: str, b: str) -> Optional[DefiningEdge]:
        if b < a:
            a, b = b, a
        return self.edge_index.get((a, b))

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Each edge end's sorted neighbours, built once per graph."""
        out: dict[str, set[str]] = {}
        for e in self.edges:
            out.setdefault(e.u, set()).add(e.v)
            out.setdefault(e.v, set()).add(e.u)
        return {v: tuple(sorted(ws)) for v, ws in out.items()}

    def neighbours(self, v: str) -> tuple[str, ...]:
        return self.adjacency.get(v, ())

    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(e.label for e in self.edges))

    def is_triangle(self) -> bool:
        return len(self.vertices) == 3 and len(self.edges) == 3 and not any(
            e.u == e.v for e in self.edges
        )

    def with_orientation(
        self, iota: Mapping[tuple[str, str], str]
    ) -> "DefiningGraph":
        """Copy of the graph with iota replaced on the listed edges."""
        new_edges = []
        for e in self.edges:
            if e.key in iota:
                new_edges.append(DefiningEdge(e.u, e.v, e.label, iota[e.key]))
            else:
                new_edges.append(e)
        return DefiningGraph(self.vertices, tuple(new_edges))

    def orientation(self) -> dict[tuple[str, str], Optional[str]]:
        return {e.key: e.iota for e in self.edges}


@dataclass(frozen=True)
class OrientationReport:
    """Outcome of structural validation of a graph and its partial orientation."""

    problems: tuple[str, ...]
    orientable_edges: tuple[tuple[str, str], ...]
    iota_total: bool

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(g: DefiningGraph) -> OrientationReport:
    """Check simplicity, labels, and iota placement; report, never fix.

    iota must be present on exactly the edges with label >= 3 and must name
    one of the edge's endpoints.
    """
    problems: list[str] = []
    names = list(g.vertices)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        problems.append(f"duplicate vertex names: {', '.join(dupes)}")
    for n in names:
        # generated ids use + - / | : * as separators around vertex names
        if not n or not all(ch.isalnum() or ch in "_." for ch in n):
            problems.append(
                f"vertex name {n!r}: use letters, digits, underscore or dot"
            )
    vset = set(names)
    seen_keys: set[tuple[str, str]] = set()
    orientable: list[tuple[str, str]] = []
    iota_total = True
    for e in g.edges:
        where = f"edge {e.u}-{e.v}"
        if e.u not in vset or e.v not in vset:
            problems.append(f"{where}: endpoint not a listed vertex")
        if e.u == e.v:
            problems.append(f"{where}: loops are not allowed")
            continue
        if e.key in seen_keys:
            problems.append(f"{where}: duplicate edge")
        seen_keys.add(e.key)
        if not isinstance(e.label, int) or e.label < 2:
            problems.append(f"{where}: label must be an integer >= 2")
            continue
        if e.label == 2:
            if e.iota is not None:
                problems.append(f"{where}: label 2 edges must not carry iota")
        else:
            orientable.append(e.key)
            if e.iota is None:
                iota_total = False
            elif e.iota not in (e.u, e.v):
                problems.append(f"{where}: iota {e.iota!r} is not an endpoint")
    return OrientationReport(
        problems=tuple(problems),
        orientable_edges=tuple(sorted(orientable)),
        iota_total=iota_total,
    )


def require_valid(
    g: DefiningGraph, oriented: bool = True
) -> OrientationReport:
    """Raise InvalidDefiningGraph unless g passes validate; return the report.

    With oriented=True additionally require iota on every orientable edge.
    """
    report = g.report
    if not report.ok:
        raise InvalidDefiningGraph(report)
    if oriented and not report.iota_total:
        missing = [
            k for k in report.orientable_edges if g.edge_index[k].iota is None
        ]
        raise InvalidDefiningGraph(
            OrientationReport(
                problems=tuple(
                    f"edge {u}-{v}: label >= 3 requires iota" for u, v in missing
                ),
                orientable_edges=report.orientable_edges,
                iota_total=False,
            )
        )
    return report


def is_connected(g: DefiningGraph) -> bool:
    """Every edge but the closing ones joins two classes, and a connected
    graph on n vertices needs exactly n - 1 such joins."""
    closing = named_classes(g.vertices, ((e.u, e.v) for e in g.edges))[1]
    return len(g.edges) - closing == len(g.vertices) - 1


def is_forest(g: DefiningGraph) -> bool:
    """No edge closes a cycle.  A forest on n > 0 vertices has fewer than
    n edges, which decides most other graphs without the union-find."""
    if len(g.edges) >= len(g.vertices) > 0:
        return False
    return not named_classes(g.vertices, ((e.u, e.v) for e in g.edges))[1]


def is_bipartite(g: DefiningGraph) -> bool:
    """Whether no edge joins two vertices of one depth parity in a
    breadth-first spanning forest."""
    _, depth = bfs_forest(
        g.vertices, lambda v: ((w, None) for w in g.neighbours(v))
    )
    return all(depth[e.u] % 2 != depth[e.v] % 2 for e in g.edges)


def all_labels_even(g: DefiningGraph) -> bool:
    return all(e.label % 2 == 0 for e in g.edges)


MAX_CYCLE_LEN = 12

Cycle = tuple[str, ...]


def canonical_cycle(seq: Iterable[str]) -> Cycle:
    """Least rotation of the lesser traversal direction of a closed walk."""
    s = tuple(seq)
    return min(c[i:] + c[:i] for c in (s, s[::-1]) for i in range(len(s)))


def enumerate_cycles(g: DefiningGraph, max_len: int = 10) -> list[Cycle]:
    """Closed walks without backtracking, up to rotation and reversal.

    Non-simple walks are included: a cycle here is any closed edge path that
    never immediately reverses an edge, including across the wrap-around.
    Lengths run from 3 (no loops or parallel edges exist) to max_len.
    """
    if max_len > MAX_CYCLE_LEN:
        raise ValueError(f"max_len {max_len} exceeds bound {MAX_CYCLE_LEN}")
    require_valid(g, oriented=False)
    found: set[Cycle] = set()
    order = {v: i for i, v in enumerate(sorted(g.vertices))}

    def extend(walk: list[str], start: str) -> None:
        v = walk[-1]
        for w in g.neighbours(v):
            if order[w] < order[start]:
                continue  # each cycle is generated from its least vertex only
            if len(walk) >= 2 and w == walk[-2]:
                continue  # backtracks
            if w == start:
                if len(walk) >= 3 and walk[1] != walk[-1]:
                    found.add(canonical_cycle(walk))
                # fall through: the walk may also continue past the start
            if len(walk) < max_len:
                walk.append(w)
                extend(walk, start)
                walk.pop()

    for start in sorted(g.vertices, key=order.get):
        extend([start], start)
    return sorted(found)
