"""Level graphs of the presentation complex and the free splitting.

For an oriented defining graph the presentation complex has a vertical
height function; its level sets at heights 0, 1/2 and 1/4 are graphs:

* x0: one loop per defining edge (the bouquet of relation generators),
* x_half: the defining graph with every edge doubled,
* x_quarter: a double cover of x_half whose vertices are signed copies
  a+ and a- of the defining vertices,
* the collapsed quarter graph: x_quarter with one parallel family per
  edge collapsed and the remaining edges subdivided, so that no color
  repeats at a vertex: the coloring is its immersion onto x0.

The fundamental groups of these graphs are the vertex and edge groups of
the splitting certified by `compute_splitting`.  x_half and x_quarter are
written once, by `_level_edges`, as integer edge lists over the vertex ids
and the quarter ids of `orientation.edge_lifts`.  Three readers share
them: the splitting's cross-checks count on those lists, `build_family`
spells them out as named graphs, for `export`, and `build_collapsed`
reads Xbar off the x_quarter list and the lifts that
`orientation.collapsed_lifts` collapses, the one place that rule is
written.  `compute_splitting` and `build_collapsed` take one argument,
`is_admissible`'s verdict, and read the `graph` it decided, its `lifts`,
`collapsed` lifts and class `roots` off it: neither validates the graph,
decides admissibility or joins those classes again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .defining_graph import (
    DefiningGraph,
    all_labels_even,
    is_bipartite,
    require_valid,
)
from .multigraph import (
    ColoredGraph,
    DisconnectedError,
    Edge,
    bouquet,
    classes,
)
from .orientation import (
    AdmissibilityVerdict,
    EdgeLifts,
    edge_lifts,
    quarter_vertices,
)


class InadmissibleOrientation(ValueError):
    """An operation requiring admissibility got an inadmissible orientation."""

    def __init__(self, verdict: AdmissibilityVerdict):
        self.verdict = verdict
        super().__init__(verdict.reason or "orientation is not admissible")


@dataclass(frozen=True)
class HorizontalFamily:
    """The level graphs x0, x_half and x_quarter, spelled out by name."""

    x0: ColoredGraph
    x_half: ColoredGraph
    x_quarter: ColoredGraph


_QUARTER_SIDES = ("p+", "p-", "d+", "d-")


def _level_edges(
    g: DefiningGraph, lifts: Sequence[EdgeLifts]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """x_half and x_quarter as (tail, head) lists over vertex and quarter
    ids: v is i and, in x_quarter, v+ is i and v- is n + i.

    Per edge k {u, v}, x_half edges 2k (p) and 2k + 1 (d) both run u to v,
    and x_quarter edges 4k + s, s indexing `_QUARTER_SIDES`, are the p
    lift (p+, u+ to v-), the m lift (p-, u- to v+) and the d pair.  Only
    the label's parity matters: an even d pair repeats the p and m lifts,
    an odd one joins u+ to v+ and u- to v-.  So x_quarter edge j covers
    x_half edge j // 2, and quarter id q covers vertex q mod n.
    """
    n = len(g.vertices)
    half: list[tuple[int, int]] = []
    quarter: list[tuple[int, int]] = []
    for e, p, m in lifts:
        u, v = p[0], m[1]
        half += [(u, v), (u, v)]
        quarter += [p, m] + ([p, m] if e.label % 2 == 0
                             else [(u, v), (n + u, n + v)])
    return half, quarter


def build_family(g: DefiningGraph) -> HorizontalFamily:
    """Construct x0, x_half and x_quarter as named graphs.

    The graphs spell out `_level_edges`, the lists `compute_splitting`
    checks: x_half edge 2k + c is xh:<color>:p or :d for c = 0 or 1, and
    x_quarter edge 4k + s is xq:<color>:<side>, side p+, p-, d+ or d-.
    """
    require_valid(g, oriented=False)
    lifts = edge_lifts(g)
    half, quarter = _level_edges(g, lifts)
    colors = [e.color for e, _, _ in lifts]
    names = g.vertices
    q_names = quarter_vertices(g)
    half_ids = [f"xh:{colors[j // 2]}:{'pd'[j % 2]}" for j in range(len(half))]
    q_ids = [
        f"xq:{colors[j // 4]}:{_QUARTER_SIDES[j % 4]}"
        for j in range(len(quarter))
    ]
    x_half = ColoredGraph(names, (
        Edge(half_ids[j], names[a], names[b], colors[j // 2])
        for j, (a, b) in enumerate(half)
    ))
    x_quarter = ColoredGraph(q_names, (
        Edge(q_ids[j], q_names[a], q_names[b], colors[j // 4])
        for j, (a, b) in enumerate(quarter)
    ))
    return HorizontalFamily(
        x0=bouquet(colors), x_half=x_half, x_quarter=x_quarter
    )


@dataclass(frozen=True)
class CollapsedQuarter:
    """x_quarter after collapsing one parallel family per edge and
    subdividing the rest: the graph Xbar, whose coloring is the induced map
    onto the bouquet x0, each edge onto its color's loop, and the name of
    the class each x_quarter vertex collapses into."""

    graph: ColoredGraph
    old_class: dict[str, str]


def build_collapsed(verdict: AdmissibilityVerdict) -> CollapsedQuarter:
    """Collapse-and-subdivide x_quarter into the graph immersing over x0.

    x_quarter edge 4k + s, side `_QUARTER_SIDES[s]`, shadows lift
    2k + s % 2 of edge k, and the lifts `collapsed_lifts` picks collapse
    into their classes.  A p side (p+ or p-) whose lift collapses is
    dropped; otherwise it stays one edge.  A d side (d+ or d-) of label M
    subdivides into a run of M // 2 edges, one fewer when M is even and
    its lift is not collapsed.  The run flows from the class of the quarter
    edge's head to that of its tail when iota is u for a d side, or v for a
    p side, and from tail to head otherwise.  So per edge with label M:

    * M = 2m + 1: two runs of m edges plus one surviving p side; one
      (2m+1)-cycle in total.
    * M = 2: two length-1 loops, one at each collapsed class.
    * M = 2m >= 4: a closed run of m edges at the collapsed class and a
      run of m - 1 edges closing through the surviving p side; two
      m-cycles in total.

    The construction is performed for any verdict of `is_admissible`,
    on its `graph`, `lifts`, `collapsed` and `roots`.  The map immerses
    when the orientation is admissible; an inadmissible orientation may
    still give an immersion.
    """
    g = verdict.graph
    lifts, collapsed, roots = verdict.lifts, verdict.collapsed, verdict.roots

    # each vertex class is named by its sorted members
    names = quarter_vertices(g)
    members: dict[int, list[str]] = {}
    for q, name in enumerate(names):
        members.setdefault(roots[q], []).append(name)
    named = {r: "/".join(sorted(qs)) for r, qs in members.items()}
    cls = [named[r] for r in roots]

    vertices: set[str] = set(cls)
    edges: list[Edge] = []
    _, quarter = _level_edges(g, lifts)
    colors = [e.color for e, _, _ in lifts]
    for j, (a, b) in enumerate(quarter):
        k, s = divmod(j, 4)
        e = lifts[k][0]
        kept = 2 * k + s % 2 not in collapsed
        if s < 2:
            if not kept:
                continue
            size = 1
            if e.iota == e.v:
                a, b = b, a
        else:
            size = e.label // 2 - (kept and e.label % 2 == 0)
            if e.iota == e.u:
                a, b = b, a
        # size edges xb:<color>:<side>:e1..e<size> along the flow
        prefix = f"xb:{colors[k]}:{_QUARTER_SIDES[s]}:"
        inner = [prefix + str(i) for i in range(1, size)]
        vertices.update(inner)
        chain = [cls[a], *inner, cls[b]]
        for i in range(size):
            edges.append(
                Edge(f"{prefix}e{i + 1}", chain[i], chain[i + 1], colors[k]))

    return CollapsedQuarter(
        graph=ColoredGraph(vertices, edges), old_class=dict(zip(names, cls))
    )


@dataclass(frozen=True)
class SplittingCertificate:
    """A free splitting of the group over free subgroups.

    Amalgam: F(rank_a) amalgamated with F(rank_b) over an edge group
    F(rank_c) sitting inside the second factor with index `index_c_in_b`;
    the deck involution of the quarter cover gives the twist between the
    two halves.  HNN: base F(rank_a) with the edge group F(rank_b)
    attached along its two embeddings into the base.
    """

    kind: str  # "amalgam" | "hnn"
    rank_a: int
    rank_b: int
    rank_c: Optional[int]
    index_c_in_b: Optional[int]

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "rank_a": self.rank_a,
                     "rank_b": self.rank_b}
        if self.kind == "amalgam":
            out["rank_c"] = self.rank_c
            out["index_c_in_b"] = self.index_c_in_b
        return out


def _require(holds: bool, identity: str) -> None:
    """A cross-check of the splitting that stays on under `python -O`."""
    if not holds:
        raise AssertionError(f"splitting cross-check failed: {identity}")


def compute_splitting(verdict: AdmissibilityVerdict) -> SplittingCertificate:
    """Derive the splitting with exact ranks; cross-checked on the graphs.

    Amalgam case (some odd label, or non-bipartite graph): ranks |E|,
    1 - |V| + 2|E| and 1 - 2|V| + 4|E|.  HNN case (bipartite, all labels
    even): base of rank |E| with a rank 1 - |V| + 2|E| edge group attached
    along its two embeddings.

    Three cross-checks run on `_level_edges`, the integer edge lists that
    `build_family` spells out: on the one union-find, x_quarter has two
    components exactly in the HNN case and x_half has rank 1 - |V| + 2|E|;
    off the quarter numbering, x_quarter covers x_half with degree 2.  They
    fix the ranks of x_quarter and its halves: x_half is connected, so a
    double cover of it has one component or two.  Two are each a 1-sheeted
    cover, of the rank of x_half; one has 2|V| vertices and 4|E| edges, so
    rank 1 - 2|V| + 4|E|.  x0, a bouquet of |E| loops, has rank |E| by
    construction.  `verdict` is `is_admissible`'s, on the graph and lifts
    it decided.  A disconnected graph is refused before an inadmissible
    one.
    """
    g = verdict.graph
    half, quarter = _level_edges(g, verdict.lifts)
    nv, ne = len(g.vertices), len(g.edges)
    # x_half is g with every edge doubled, so connected exactly when g is
    half_rank = classes(nv, half)[1]
    if len(half) - half_rank != nv - 1:
        raise DisconnectedError(
            "the splitting requires a connected defining graph; analyze "
            "connected components separately"
        )
    if not verdict.admissible:
        raise InadmissibleOrientation(verdict)
    rank_a = ne
    rank_b = 1 - nv + 2 * ne
    # x_quarter's classes: its vertices less the edges that join two
    parts = 2 * nv - len(quarter) + classes(2 * nv, quarter)[1]
    hnn = is_bipartite(g) and all_labels_even(g)
    _require((parts == 2) == hnn, "x_quarter components")
    _require(half_rank == rank_b, "rank of x_half")
    # x_quarter edge j lies over x_half edge j // 2 and quarter id q over
    # vertex q mod n, so every vertex fiber has two members, and so does
    # every edge fiber once x_quarter has twice x_half's edges.  When each
    # quarter edge's ends also lie over its half edge's, and its ends
    # (q, j // 2, side) are distinct, each star maps injectively into its
    # image's star.  Those image stars, two per vertex of x_half, hold
    # 2 * 2|half| = 2|quarter| ends, as many as the stars mapped into them,
    # so each star maps onto its image's: a covering map of degree 2.
    _require(
        len(quarter) == 2 * len(half)
        and all((a % nv, b % nv) == half[j // 2]
                for j, (a, b) in enumerate(quarter))
        and len({(q, j // 2, side) for j, ends in enumerate(quarter)
                 for side, q in enumerate(ends)}) == 2 * len(quarter),
        "x_quarter -> x_half double cover",
    )
    if hnn:
        return SplittingCertificate(
            kind="hnn",
            rank_a=rank_a,
            rank_b=rank_b,
            rank_c=None,
            index_c_in_b=None,
        )
    return SplittingCertificate(
        kind="amalgam",
        rank_a=rank_a,
        rank_b=rank_b,
        rank_c=1 - 2 * nv + 4 * ne,
        index_c_in_b=2,
    )
