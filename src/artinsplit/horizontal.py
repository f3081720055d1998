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
the splitting certified by `compute_splitting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .defining_graph import (
    DefiningGraph,
    all_labels_even,
    is_bipartite,
    is_connected,
    require_valid,
)
from .multigraph import (
    ColoredGraph,
    DisconnectedError,
    Edge,
    GraphMap,
    bouquet,
    connected_components,
    free_rank,
    is_degree_n_cover,
)
from .orientation import (
    AdmissibilityVerdict,
    _collapse,
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
    """The three level graphs and the covering map between the upper two."""

    x0: ColoredGraph
    x_half: ColoredGraph
    x_quarter: ColoredGraph
    cover: GraphMap


def build_family(g: DefiningGraph) -> HorizontalFamily:
    """Construct x0, x_half, x_quarter and the degree-2 cover between them.

    Only the parities of the labels matter here: an even edge lifts to two
    parallel families joining a+ to b- and a- to b+, an odd edge to the
    crossing family joining a+ to b+ and a- to b-.
    """
    require_valid(g, oriented=False)
    colors = [e.color for e in g.sorted_edges]
    x0 = bouquet(colors)

    half_vertices = list(g.vertices)
    half_edges = []
    q_vertices = quarter_vertices(g)
    q_edges = []
    vmap: dict[str, str] = {}
    emap: dict[str, str] = {}
    for v in g.vertices:
        vmap[plus(v)] = v
        vmap[minus(v)] = v
    for e in g.sorted_edges:
        c = e.color
        half_edges.append(Edge(f"xh:{c}:p", e.u, e.v, c))
        half_edges.append(Edge(f"xh:{c}:d", e.u, e.v, c))
        q_edges.append(Edge(f"xq:{c}:p+", plus(e.u), minus(e.v), c))
        q_edges.append(Edge(f"xq:{c}:p-", minus(e.u), plus(e.v), c))
        if e.label % 2 == 0:
            q_edges.append(Edge(f"xq:{c}:d+", plus(e.u), minus(e.v), c))
            q_edges.append(Edge(f"xq:{c}:d-", minus(e.u), plus(e.v), c))
        else:
            q_edges.append(Edge(f"xq:{c}:d+", plus(e.u), plus(e.v), c))
            q_edges.append(Edge(f"xq:{c}:d-", minus(e.u), minus(e.v), c))
        emap[f"xq:{c}:p+"] = f"xh:{c}:p"
        emap[f"xq:{c}:p-"] = f"xh:{c}:p"
        emap[f"xq:{c}:d+"] = f"xh:{c}:d"
        emap[f"xq:{c}:d-"] = f"xh:{c}:d"
    x_half = ColoredGraph(half_vertices, half_edges)
    x_quarter = ColoredGraph(q_vertices, q_edges)
    cover = GraphMap(x_quarter, x_half, vmap, emap)
    return HorizontalFamily(
        x0=x0, x_half=x_half, x_quarter=x_quarter, cover=cover
    )


@dataclass(frozen=True)
class CollapsedQuarter:
    """x_quarter after collapsing one parallel family per edge and
    subdividing the rest: the graph Xbar, whose coloring is the induced map
    onto the bouquet x0, each edge onto its color's loop, and the name of
    the class each x_quarter vertex collapses into."""

    graph: ColoredGraph
    old_class: dict[str, str]


def build_collapsed(g: DefiningGraph) -> CollapsedQuarter:
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
    """
    require_valid(g, oriented=True)
    root = _collapse(g)[2]

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


def compute_splitting(g: DefiningGraph) -> SplittingCertificate:
    """Derive the splitting with exact ranks; cross-checked on the graphs.

    Amalgam case (some odd label, or non-bipartite graph): ranks |E|,
    1 - |V| + 2|E| and 1 - 2|V| + 4|E|.  HNN case (bipartite, all labels
    even): base of rank |E| with a rank 1 - |V| + 2|E| edge group attached
    along its two embeddings.
    """
    require_valid(g, oriented=True)
    if not is_connected(g):
        raise DisconnectedError(
            "the splitting requires a connected defining graph; analyze "
            "connected components separately"
        )
    verdict = is_admissible(g)
    if not verdict.admissible:
        raise InadmissibleOrientation(verdict)
    family = build_family(g)
    nv, ne = len(g.vertices), len(g.edges)
    rank_a = ne
    rank_b = 1 - nv + 2 * ne
    comps = connected_components(family.x_quarter)
    hnn = is_bipartite(g) and all_labels_even(g)
    _require((len(comps) == 2) == hnn, "x_quarter components")
    _require(free_rank(family.x0) == rank_a, "rank of x0")
    _require(free_rank(family.x_half) == rank_b, "rank of x_half")
    _require(
        is_degree_n_cover(family.cover, 2), "x_quarter -> x_half double cover"
    )
    if hnn:
        for comp in comps:
            _require(free_rank(comp) == rank_b, "rank of an x_quarter half")
        return SplittingCertificate(
            kind="hnn",
            rank_a=rank_a,
            rank_b=rank_b,
            rank_c=None,
            index_c_in_b=None,
        )
    rank_c = 1 - 2 * nv + 4 * ne
    _require(free_rank(family.x_quarter) == rank_c, "rank of x_quarter")
    _require(rank_c == 2 * rank_b - 1, "rank_c = 2 rank_b - 1")
    return SplittingCertificate(
        kind="amalgam",
        rank_a=rank_a,
        rank_b=rank_b,
        rank_c=rank_c,
        index_c_in_b=2,
    )
