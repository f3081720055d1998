"""Partial orientations and the admissibility criterion.

An orientation assigns to each edge of label >= 3 a tail endpoint (`iota`).
The obstruction to admissibility is an almost misdirected cycle: a closed
non-backtracking walk (a1, ..., an, a1) whose initial path (a1, ..., an)
can be directed so that consecutive edges strictly alternate, where label-2
edges may be directed freely and oriented edges must follow their iota.

The decision procedure works on the sign double cover of the defining
graph: each edge {a, b} lifts to {a+, b-} and {a-, b+}, and a lift {t+, h-}
is collapsed when iota = t, or when the label is 2 (then both lifts are
collapsed); `collapsed_lifts` is the one place that rule is written.
Misdirected paths correspond exactly to paths inside the collapsed
subgraph, which reduces admissibility to a forest test plus connectivity
patterns.  The cover's vertices are numbered once, v+ as i and v- as
n + i, and the library's one union-find, `multigraph.classes` over those
quarter ids, holds the collapse classes `_collapse` joins for
`is_admissible`, whose verdict carries them on to
`horizontal.build_collapsed` and `compute_splitting`; the search joins and
undoes them with `multigraph.root` and `join`.
Quarter names and lift ids are spelled out only for a witness and for
Xbar's vertex names.  A bounded search over explicit closed walks,
`oracle_almost_misdirected`, provides an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .defining_graph import (
    DefiningEdge,
    DefiningGraph,
    enumerate_cycles,
    require_valid,
)
from .multigraph import (
    ColoredGraph,
    Edge,
    Walk,
    classes,
    join,
    root,
    shortest_path,
)


def plus(v: str) -> str:
    return v + "+"


def minus(v: str) -> str:
    return v + "-"


def quarter_vertices(g: DefiningGraph) -> list[str]:
    """The vertices of the sign double cover: every v+, then every v-."""
    return [plus(v) for v in g.vertices] + [minus(v) for v in g.vertices]


EdgeLifts = tuple[DefiningEdge, tuple[int, int], tuple[int, int]]


def edge_lifts(g: DefiningGraph) -> tuple[EdgeLifts, ...]:
    """Every edge with the ends of its two lifts to the sign double cover.

    In sorted edge order; the ends are quarter ids, numbered as
    `quarter_vertices` lists them: v+ is i and v- is n + i for the i-th of
    the n vertices.  The p lift joins u+ to v-, the m lift u- to v+.
    """
    n = len(g.vertices)
    at = {v: i for i, v in enumerate(g.vertices)}
    return tuple(
        (e, (at[e.u], n + at[e.v]), (n + at[e.u], at[e.v]))
        for e in g.sorted_edges
    )


def collapsed_lifts(
    lifts: Iterable[EdgeLifts],
    iota: Mapping[tuple[str, str], Optional[str]],
) -> dict[int, tuple[int, int]]:
    """The collapsed lifts under a partial orientation, as {lift: ends}.

    Lift 2k is the p lift of the k-th edge of `lifts`, lift 2k + 1 its m
    lift.  Both lifts of a label-2 edge collapse.  An orientable edge
    collapses the lift whose positive end lies over its tail `iota[key]`:
    the p lift for tail u, the m lift for tail v.  An edge that `iota`
    leaves without a tail collapses nothing yet.
    """
    out: dict[int, tuple[int, int]] = {}
    for k, (e, p_ends, m_ends) in enumerate(lifts):
        tail = iota.get(e.key)
        if e.label == 2 or tail == e.u:
            out[2 * k] = p_ends
        if e.label == 2 or tail == e.v:
            out[2 * k + 1] = m_ends
    return out


Collapse = tuple[
    tuple[EdgeLifts, ...], dict[int, tuple[int, int]], list[int], bool
]


def _collapse(g: DefiningGraph) -> Collapse:
    """The lifts of g, those its orientation collapses, the root of each
    quarter id's collapse class, and whether those lifts form a forest."""
    lifts = edge_lifts(g)
    collapsed = collapsed_lifts(lifts, g.orientation())
    roots, closing = classes(2 * len(g.vertices), collapsed.values())
    return lifts, collapsed, roots, not closing


@dataclass(frozen=True)
class WitnessCycle:
    """A closed walk of the defining graph with a direction extension.

    `vertices` lists the walk (v1, ..., vn); the closing edge returns to v1.
    `tails[i]` directs edge (v[i], v[i+1]), and the path's tails alternate.
    The final entry belongs to the closing edge: its iota when its label is
    3 or more, and None or one of its ends when its label is 2.
    """

    vertices: tuple[str, ...]
    tails: tuple[Optional[str], ...]


def check_witness(g: DefiningGraph, w: WitnessCycle) -> bool:
    """Re-verify a witness: a genuine cycle whose initial path misdirects
    under the tails it carries, closed as `WitnessCycle` describes."""
    seq, tails = w.vertices, w.tails
    if len(tails) != len(seq) or not _is_cycle_expression(g, seq):
        return False
    if _alternating_tails(g, seq, tails[0] == seq[0]) != list(tails[:-1]):
        return False
    closing = g.edge_between(seq[-1], seq[0])
    if closing is None:
        raise AssertionError("cycle expression does not close")
    if closing.label >= 3:
        return tails[-1] == closing.iota
    return tails[-1] in (None, seq[-1], seq[0])


def _is_cycle_expression(g: DefiningGraph, seq: tuple[str, ...]) -> bool:
    n = len(seq)
    if n < 3:
        return False
    for i in range(n):
        if g.edge_between(seq[i], seq[(i + 1) % n]) is None:
            return False
        if seq[(i + 2) % n] == seq[i]:
            return False  # backtracking
    return True


def _alternating_tails(
    g: DefiningGraph, seq: tuple[str, ...], first_forward: bool
) -> Optional[list[str]]:
    """The alternating tails of the path (seq[0], ..., seq[-1]) whose first
    edge runs forward or not, or None when an oriented edge disagrees."""
    tails = []
    for i in range(len(seq) - 1):
        e = g.edge_between(seq[i], seq[i + 1])
        if e is None:
            raise AssertionError("cycle expression skips an edge")
        forward = first_forward if i % 2 == 0 else not first_forward
        want_tail = seq[i] if forward else seq[i + 1]
        if e.label >= 3 and e.iota != want_tail:
            return None
        tails.append(want_tail)
    return tails


def _expression_misdirects(
    g: DefiningGraph, seq: tuple[str, ...]
) -> Optional[tuple[Optional[str], ...]]:
    """Tails making the path (seq[0], ..., seq[-1]) alternate, if any.

    Checks the fixed expression only; callers rotate.  Returns a full tails
    tuple including the closing edge's own iota.
    """
    if not _is_cycle_expression(g, seq):
        return None
    for first_forward in (True, False):
        tails = _alternating_tails(g, seq, first_forward)
        if tails is not None:
            closing = g.edge_between(seq[-1], seq[0])
            if closing is None:
                raise AssertionError("cycle expression does not close")
            return (*tails, closing.iota)
    return None


def oracle_almost_misdirected(
    g: DefiningGraph, max_len: int = 10
) -> Optional[WitnessCycle]:
    """Search closed walks up to max_len for an almost misdirected one.

    Exhaustive within the length bound, and independent of the double-cover
    criterion.  Returns the first witness in a deterministic order, or None.
    """
    require_valid(g, oriented=True)
    for cyc in enumerate_cycles(g, max_len):
        n = len(cyc)
        for direction in (cyc, tuple(reversed(cyc))):
            for shift in range(n):
                expr = direction[shift:] + direction[:shift]
                tails = _expression_misdirects(g, expr)
                if tails is not None:
                    return WitnessCycle(vertices=expr, tails=tails)
    return None


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """`is_admissible`'s answer for one oriented graph.  `collapse` holds
    the `_collapse` it was decided on, so that the splitting and Xbar of
    the same graph reuse its lifts and classes instead of joining them
    again; it takes no part in comparisons."""

    admissible: bool
    witness: Optional[WitnessCycle] = None
    reason: Optional[str] = None
    collapse: Optional[Collapse] = field(
        default=None, compare=False, repr=False
    )


def is_admissible(g: DefiningGraph) -> AdmissibilityVerdict:
    """Decide admissibility of (graph, iota); inadmissible verdicts carry a
    witness cycle that re-checks as almost misdirected.

    The criterion: the collapsed subgraph of the sign double cover is a
    forest, no vertex has its two lifts connected inside it, and for no edge
    are the endpoints of its uncollapsed lift connected.
    """
    require_valid(g, oriented=True)
    collapse = _collapse(g)
    lifts, collapsed, roots, forest = collapse
    n = len(g.vertices)
    names = quarter_vertices(g)
    # pairs a collapse class must keep apart but joins, as (kind, key, a, b):
    # kind 0 the two lifts v- and v+ of a vertex, kind 1 the two ends of an
    # uncollapsed lift
    candidates = [
        (0, v, names[n + i], names[i])
        for i, v in enumerate(g.vertices)
        if roots[i] == roots[n + i]
    ]
    candidates += [
        (1, e.color, names[a], names[b])
        for k, (e, p, m) in enumerate(lifts)
        for j, (a, b) in ((2 * k, p), (2 * k + 1, m))
        if j not in collapsed and roots[a] == roots[b]
    ]
    if forest and not candidates:
        return AdmissibilityVerdict(admissible=True, collapse=collapse)
    # the collapsed lifts alone, as a graph on the names of their ends
    sub = ColoredGraph(
        (names[q] for ends in collapsed.values() for q in ends),
        (
            Edge(f"dc:{lifts[j // 2][0].color}:{'pm'[j % 2]}",
                 names[a], names[b], lifts[j // 2][0].color)
            for j, (a, b) in collapsed.items()
        ),
    )
    if not forest:
        return AdmissibilityVerdict(
            admissible=False,
            witness=_witness_from_collapsed_cycle(sub),
            reason="collapsed lifts contain a cycle",
            collapse=collapse,
        )
    reason = (
        "two lifts of one vertex are joined by collapsed lifts"
        if candidates[0][0] == 0
        else "an uncollapsed lift closes a collapsed path"
    )
    return AdmissibilityVerdict(
        admissible=False,
        witness=_witness_from_patterns(g, sub, candidates),
        reason=reason,
        collapse=collapse,
    )


def _project(quarter: str) -> tuple[str, int]:
    """Split a double-cover vertex name into (base name, sign)."""
    return quarter[:-1], +1 if quarter.endswith("+") else -1


def _tails_from_lift_path(path: list[str]) -> list[str]:
    """Direction extension read off a path of collapsed lifts.

    Traversing a collapsed lift, the endpoint with positive sign is the
    tail of the projected edge.
    """
    tails = []
    for a, b in zip(path, path[1:]):
        na, sa = _project(a)
        nb, _ = _project(b)
        tails.append(na if sa == +1 else nb)
    return tails


def _witness_from_patterns(
    g: DefiningGraph,
    sub: ColoredGraph,
    candidates: list[tuple[int, str, str, str]],
) -> WitnessCycle:
    paths = []
    for kind, _, src, dst in sorted(candidates):
        steps = shortest_path(sub, src, dst)
        if steps is None:
            raise AssertionError("failing pattern has no collapsed path")
        paths.append((kind, list(Walk(sub, src, tuple(steps)).vertices())))
    # the first shortest path, preferring a vertex's two lifts on a tie
    kind, path = min(paths, key=lambda kp: (len(kp[1]), kp[0]))
    if kind == 0:
        # unlike a collapsed cycle's arc below, this path never wraps: one
        # whose first and last lifts project to one edge passes through both
        # lifts of an inner vertex, whose own kind-0 path is shorter
        vertices = tuple(_project(q)[0] for q in path[:-1])
        tails = _tails_from_lift_path(path)
        # last path edge closes the cycle; its tail entry is already there
        return WitnessCycle(vertices=vertices, tails=tuple(tails))
    vertices = tuple(_project(q)[0] for q in path)
    tails = _tails_from_lift_path(path)
    closing = g.edge_between(vertices[-1], vertices[0])
    if closing is None:
        raise AssertionError("witness path does not close in the graph")
    tails.append(closing.iota)
    return WitnessCycle(vertices=vertices, tails=tuple(tails))


def _witness_from_collapsed_cycle(sub: ColoredGraph) -> WitnessCycle:
    cycle = _find_collapsed_cycle(sub)
    by_name: dict[str, list[int]] = {}
    for i, q in enumerate(cycle):
        by_name.setdefault(_project(q)[0], []).append(i)
    split = None
    for name in sorted(by_name):
        if len(by_name[name]) == 2:
            i, j = by_name[name]
            if {_project(cycle[i])[1], _project(cycle[j])[1]} == {+1, -1}:
                split = (i, j)
                break
    if split is not None:
        i, j = split
        arc1 = cycle[i : j + 1]
        arc2 = cycle[j:] + cycle[: i + 1]
        path = list(arc1 if len(arc1) <= len(arc2) else arc2)
        # while the projection re-uses its first edge as its last, peel
        # both ends, which exposes the same situation one vertex further in
        while len(path) >= 5 and _project(path[1])[0] == _project(path[-2])[0]:
            path = path[1:-1]
        vertices = tuple(_project(q)[0] for q in path[:-1])
        return WitnessCycle(
            vertices=vertices, tails=tuple(_tails_from_lift_path(path))
        )
    # no vertex meets the cycle in both signs: the projection is a genuine
    # even misdirected cycle
    vertices = tuple(_project(q)[0] for q in cycle)
    tails = _tails_from_lift_path(list(cycle) + [cycle[0]])
    return WitnessCycle(vertices=vertices, tails=tuple(tails))


def _find_collapsed_cycle(sub: ColoredGraph) -> tuple[str, ...]:
    """Vertices of some simple cycle inside the collapsed lifts `sub`."""
    seen: set[str] = set()
    for start in sub.vertices:
        if start in seen:
            continue
        parent_edge: dict[str, Optional[str]] = {start: None}
        parent: dict[str, Optional[str]] = {start: None}
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            # by neighbour, then edge id
            for w, eid in sorted(
                (e.head if sign == +1 else e.tail, e.id)
                for e, sign in sub.incident_ends(v)
            ):
                if eid == parent_edge[v]:
                    continue
                if w in seen:
                    # back edge: walk tree paths to the common ancestor
                    pa: list[str] = [v]
                    while parent[pa[-1]] is not None:
                        pa.append(parent[pa[-1]])  # type: ignore[arg-type]
                    pb: list[str] = [w]
                    while parent[pb[-1]] is not None:
                        pb.append(parent[pb[-1]])  # type: ignore[arg-type]
                    sb = set(pb)
                    meet = next(x for x in pa if x in sb)
                    ca = pa[: pa.index(meet) + 1]
                    cb = pb[: pb.index(meet) + 1]
                    return tuple(ca + list(reversed(cb))[1:-1])
                parent[w] = v
                parent_edge[w] = eid
                stack.append(w)
    raise AssertionError("no cycle in collapsed subgraph")


class SearchSpaceError(ValueError):
    """The orientation search space is too large to explore."""


MAX_ORIENTABLE_EDGES = 24


def find_admissible_orientation(
    g: DefiningGraph,
) -> Optional[dict[tuple[str, str], str]]:
    """Backtracking search for an admissible orientation, or None.

    Returns the first admissible orientation in search order: edges sorted
    by (label, endpoints), tail u tried before tail v.  The dict lists the
    edges in that order.

    Choosing a tail collapses the one lift `collapsed_lifts` picks for it.
    The search joins that lift's ends with `multigraph.join` over quarter
    ids on the way down, and undoes the join from its own log on
    backtracking, which `multigraph.root` allows because it never
    compresses a path; `propagate` inlines the root walks.  The label-2
    lifts are joined once, before the first decision.  A join is refused
    when its ends are already in one class (a collapsed cycle) or when
    some pair that must stay apart would cross the two classes it merges:
    the two lifts v+ and v- of a vertex, or the ends of any other
    orientable lift that is not collapsed.  Each class carries a bit mask
    of the pairs its members belong to, so that test is one AND of two
    masks.  A refused join marks a partial orientation that no completion
    makes admissible, since collapsed subgraphs only grow.

    After every step each unassigned edge is checked: when neither tail
    can join, the search backtracks; when exactly one can, that tail is
    forced.  Pruning only subtrees without an admissible leaf keeps the
    first answer the same.  An explicit stack of open decisions drives the
    search, so its depth does not grow the Python stack.
    """
    require_valid(g, oriented=False)
    orientable = sorted(
        (e for e in g.edges if e.label >= 3), key=lambda e: (e.label, e.key)
    )
    if len(orientable) > MAX_ORIENTABLE_EDGES:
        raise SearchSpaceError(
            f"{len(orientable)} orientable edges exceed the search bound "
            f"{MAX_ORIENTABLE_EDGES}"
        )

    lifts = edge_lifts(g)
    by_key = {el[0].key: el for el in lifts}
    chosen = [by_key[e.key] for e in orientable]
    # lift j = 2i + c is the one that tail c of orientable[i] collapses
    lift = collapsed_lifts(chosen, {e.key: e.u for e in orientable})
    lift |= collapsed_lifts(chosen, {e.key: e.v for e in orientable})
    n = len(g.vertices)
    # mask[r], r a root: the pairs to keep apart with an end in r's class,
    # bit i for the two lifts of vertex i and bit n + j for lift j's ends
    mask = [1 << (q % n) for q in range(2 * n)]
    flat = []
    for j, (a, b) in sorted(lift.items()):
        mask[a] |= 1 << (n + j)
        mask[b] |= 1 << (n + j)
        flat.append((a, b, ~(1 << (n + j))))
    # options[i][c]: lift 2i + c's ends, and a mask that clears its pair bit
    options = list(zip(flat[::2], flat[1::2]))
    parent = list(range(2 * n))
    size = [1] * (2 * n)
    tails: list[Optional[int]] = [None] * len(orientable)
    # per join: (edge index, root ra joined under root rb, rb, rb's old mask)
    trail: list[tuple[int, int, int, int]] = []

    def merge(i: int, ra: int, rb: int) -> None:
        ra, rb = join(parent, size, ra, rb)
        trail.append((i, ra, rb, mask[rb]))
        mask[rb] |= mask[ra]

    def assign(i: int, c: int) -> None:
        a, b, _ = options[i][c]
        merge(i, root(parent, a), root(parent, b))
        tails[i] = c

    def undo_to(mark: int) -> None:
        while len(trail) > mark:
            i, ra, rb, before = trail.pop()
            parent[ra] = ra
            size[rb] -= size[ra]
            mask[rb] = before
            tails[i] = None

    def propagate() -> bool:
        """Force every edge with one joinable tail; False on a dead end."""
        forced = True
        while forced:
            forced = False
            for i, t in enumerate(tails):
                if t is not None:
                    continue
                (a, b, ka), (c, d, kc) = options[i]
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                while parent[c] != c:
                    c = parent[c]
                while parent[d] != d:
                    d = parent[d]
                if a != b and not mask[a] & mask[b] & ka:
                    if c == d or mask[c] & mask[d] & kc:
                        merge(i, a, b)
                        tails[i] = 0
                        forced = True
                elif c != d and not mask[c] & mask[d] & kc:
                    merge(i, c, d)
                    tails[i] = 1
                    forced = True
                else:
                    return False
        return True

    # the label-2 lifts stay collapsed, so their joins are never undone
    for a, b in collapsed_lifts(lifts, {}).values():
        ra, rb = root(parent, a), root(parent, b)
        if ra == rb or mask[ra] & mask[rb]:
            return None
        merge(-1, ra, rb)
    # open decisions: (edge index, trail length before its tail u)
    decisions: list[tuple[int, int]] = []
    alive = propagate()
    while True:
        if alive:
            if None not in tails:
                return {e.key: (e.u, e.v)[c] for e, c in zip(orientable, tails)}
            i = tails.index(None)
            decisions.append((i, len(trail)))
            assign(i, 0)
        elif decisions:
            i, mark = decisions.pop()
            undo_to(mark)
            assign(i, 1)
        else:
            return None
        alive = propagate()
