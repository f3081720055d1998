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
and the quarter ids of `orientation.edge_lifts`; the splitting's
cross-checks count on those lists, and `build_family` only spells them out
as named graphs, for `export`.  A caller that has decided admissibility
hands the verdict, with the collapse classes it was decided on, to
`compute_splitting` and `build_collapsed`, which then neither decide it
nor join those classes again.
"""

from __future__ import annotations

from collections import Counter
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
    is_cover,
)
from .orientation import (
    AdmissibilityVerdict,
    EdgeLifts,
    _collapse,
    edge_lifts,
    is_admissible,
    minus,
    plus,
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


def build_collapsed(
    g: DefiningGraph, verdict: Optional[AdmissibilityVerdict] = None
) -> CollapsedQuarter:
    """Collapse-and-subdivide x_quarter into the graph immersing over x0.

    Per edge {a, b} with label M and tail t = iota (h the head): the
    parallel copy through t+ and h- collapses; for M = 2 both parallel
    copies collapse.  The doubled copies subdivide into:

    * M = 2m + 1: two runs of m edges (h+ to t+ and h- to t-), plus the
      surviving length-1 copy t- to h+; one (2m+1)-cycle in total.
    * M = 2: two length-1 loops, one at each collapsed class.
    * M = 2m >= 4: a closed run of m edges at the collapsed class and a
      run of m - 1 edges h+ to t-, closing through the surviving copy into
      an m-cycle; two m-cycles in total.

    The construction is performed for any valid orientation.  The map
    immerses when the orientation is admissible, which `is_admissible`
    decides; an inadmissible orientation may still give an immersion.
    `verdict`, when given, is `is_admissible(g)`, whose collapse classes
    are used instead of joining them again.
    """
    require_valid(g, oriented=True)
    root = (verdict and verdict.collapse or _collapse(g))[2]

    # each vertex class is named by its sorted members
    members: dict[int, list[str]] = {}
    for q, name in enumerate(quarter_vertices(g)):
        members.setdefault(root[q], []).append(name)
    old_class = {}
    for qs in members.values():
        name = "/".join(sorted(qs))
        for q in qs:
            old_class[q] = name

    vertices: set[str] = set(old_class.values())
    edges: list[Edge] = []

    def add_run(color: str, side: str, u: str, w: str, k: int) -> None:
        """k edges xb:<color>:<side>:e1..ek from u to w along the flow,
        subdividing the quarter edge xq:<color>:<side>."""
        chain = [u] + [f"xb:{color}:{side}:{i}" for i in range(1, k)] + [w]
        vertices.update(chain[1:-1])
        for i in range(k):
            eid = f"xb:{color}:{side}:e{i + 1}"
            edges.append(Edge(eid, chain[i], chain[i + 1], color))

    for e in g.sorted_edges:
        c = e.color
        if e.label == 2:
            add_run(c, "d+", old_class[plus(e.u)], old_class[plus(e.u)], 1)
            add_run(c, "d-", old_class[minus(e.u)], old_class[minus(e.u)], 1)
            continue
        t = e.iota
        if t is None:
            raise AssertionError(f"edge {e.color!r} has no tail")
        h = e.other(t)
        m = e.label // 2
        add_run(c, "p-" if t == e.u else "p+",
                old_class[minus(t)], old_class[plus(h)], 1)
        if e.label % 2 == 1:
            add_run(c, "d+", old_class[plus(h)], old_class[plus(t)], m)
            add_run(c, "d-", old_class[minus(h)], old_class[minus(t)], m)
        else:
            add_run(c, "d+" if t == e.u else "d-",
                    old_class[minus(h)], old_class[plus(t)], m)
            add_run(c, "d-" if t == e.u else "d+",
                    old_class[plus(h)], old_class[minus(t)], m - 1)

    return CollapsedQuarter(
        graph=ColoredGraph(vertices, edges), old_class=old_class
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


def compute_splitting(
    g: DefiningGraph, verdict: Optional[AdmissibilityVerdict] = None
) -> SplittingCertificate:
    """Derive the splitting with exact ranks; cross-checked on the graphs.

    Amalgam case (some odd label, or non-bipartite graph): ranks |E|,
    1 - |V| + 2|E| and 1 - 2|V| + 4|E|.  HNN case (bipartite, all labels
    even): base of rank |E| with a rank 1 - |V| + 2|E| edge group attached
    along its two embeddings.

    The cross-checks run on `_level_edges`, the integer edge lists that
    `build_family` spells out, on the one union-find: x_quarter has two
    classes exactly in the HNN case, x_half and x_quarter (or each of its
    halves) have the ranks above, and x_quarter covers x_half with degree
    2.  x0, a bouquet of |E| loops, has rank |E| by construction.
    `verdict`, when given, is `is_admissible(g)`; when it is missing it
    is decided first, and the lifts are always the ones it was decided
    on.  A disconnected graph is refused before an inadmissible one.
    """
    require_valid(g, oriented=True)
    if verdict is None:
        verdict = is_admissible(g)
    half, quarter = _level_edges(g, verdict.collapse[0])
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
    roots, quarter_rank = classes(2 * nv, quarter)
    # x_quarter's classes: its vertices less the edges that join two
    parts = 2 * nv - len(quarter) + quarter_rank
    hnn = is_bipartite(g) and all_labels_even(g)
    _require((parts == 2) == hnn, "x_quarter components")
    _require(half_rank == rank_b, "rank of x_half")
    _require(
        is_cover(quarter, (nv, half), [q % nv for q in range(2 * nv)],
                 [j // 2 for j in range(len(quarter))], 2),
        "x_quarter -> x_half double cover",
    )
    if hnn:
        edges = Counter(roots[a] for a, _ in quarter)
        for r, size in Counter(roots).items():
            _require(edges[r] - size + 1 == rank_b, "rank of an x_quarter half")
        return SplittingCertificate(
            kind="hnn",
            rank_a=rank_a,
            rank_b=rank_b,
            rank_c=None,
            index_c_in_b=None,
        )
    rank_c = 1 - 2 * nv + 4 * ne
    _require(parts == 1 and quarter_rank == rank_c, "rank of x_quarter")
    return SplittingCertificate(
        kind="amalgam",
        rank_a=rank_a,
        rank_b=rank_b,
        rank_c=rank_c,
        index_c_in_b=2,
    )
