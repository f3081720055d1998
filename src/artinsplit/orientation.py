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
quarter ids, holds the collapse classes `is_admissible` joins.  Its
verdict names them `roots`, beside the `graph` it decided, its `lifts`
and the `collapsed` lifts, and is the one argument of
`horizontal.build_collapsed` and `compute_splitting`; the search joins
and undoes them with `multigraph.root` and `join`.  An inadmissible
verdict's witness is found on the same quarter ids, from the stars of the
collapsed lifts, taken in the order of the quarter names.  Names are
spelled out only in a returned `WitnessCycle` and in Xbar.  A bounded
search over explicit closed walks, `oracle_almost_misdirected`, provides
an independent check.

Reversing every tail swaps the p and m lifts of every edge, which the
deck involution v+ <-> v- of the cover does too, so an orientation and its
mirror image are admissible together.  `find_admissible_orientation` uses
this to fix tail u on its first edge: a search that finds nothing covers
half the tree.
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
from .multigraph import bfs_path, classes, join, root


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
    # only the empty walk stops here: the loop below rejects a 1-vertex
    # walk, which has no loop edge, and a 2-vertex one, which backtracks
    if not seq:
        return False
    n = len(seq)
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


def oracle_almost_misdirected(
    g: DefiningGraph, max_len: int = 10
) -> Optional[WitnessCycle]:
    """Search closed walks up to max_len for an almost misdirected one.

    Exhaustive within the length bound, and independent of the double-cover
    criterion.  Returns the first witness in a deterministic order, or None:
    per walk, direction and rotation, the first edge forward, then back.
    The walks of `enumerate_cycles` close and never backtrack, so no
    rotation is checked again as a cycle expression.
    """
    require_valid(g, oriented=True)
    for cyc in enumerate_cycles(g, max_len):
        n = len(cyc)
        for direction in (cyc, tuple(reversed(cyc))):
            for shift in range(n):
                expr = direction[shift:] + direction[:shift]
                for first_forward in (True, False):
                    tails = _alternating_tails(g, expr, first_forward)
                    if tails is not None:
                        iota = g.edge_between(expr[-1], expr[0]).iota
                        return WitnessCycle(expr, (*tails, iota))
    return None


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """`is_admissible`'s answer for one oriented graph, with the graph and
    the collapse it was decided on: `graph`, the validated oriented graph;
    `lifts`, its `edge_lifts`; `collapsed`, those its orientation
    collapses, as `collapsed_lifts` gives them; and `roots`, the root of
    each quarter id's collapse class.  The splitting and Xbar read all of
    them off the verdict instead of validating the graph or joining the
    classes again.  Every verdict carries all four, and they take no part
    in comparisons or the repr."""

    admissible: bool
    witness: Optional[WitnessCycle] = None
    reason: Optional[str] = None
    graph: DefiningGraph = field(compare=False, repr=False, kw_only=True)
    lifts: tuple[EdgeLifts, ...] = field(
        compare=False, repr=False, kw_only=True)
    collapsed: dict[int, tuple[int, int]] = field(
        compare=False, repr=False, kw_only=True)
    roots: list[int] = field(compare=False, repr=False, kw_only=True)


def is_admissible(g: DefiningGraph) -> AdmissibilityVerdict:
    """Decide admissibility of (graph, iota); inadmissible verdicts carry a
    witness cycle that re-checks as almost misdirected.

    The criterion: the collapsed subgraph of the sign double cover is a
    forest, no vertex has its two lifts connected inside it, and for no edge
    are the endpoints of its uncollapsed lift connected.
    """
    require_valid(g, oriented=True)
    lifts = edge_lifts(g)
    collapsed = collapsed_lifts(lifts, g.orientation())
    n = len(g.vertices)
    roots, closing = classes(2 * n, collapsed.values())
    decided = dict(graph=g, lifts=lifts, collapsed=collapsed, roots=roots)
    # pairs a collapse class must keep apart but joins: the two lifts of a
    # vertex, and the two ends of an uncollapsed lift
    twins = [i for i in range(n) if roots[i] == roots[n + i]]
    closed = [
        ends
        for k, (e, p, m) in enumerate(lifts)
        for j, ends in ((2 * k, p), (2 * k + 1, m))
        if j not in collapsed and roots[ends[0]] == roots[ends[1]]
    ]
    if not closing and not twins and not closed:
        return AdmissibilityVerdict(admissible=True, **decided)
    # quarter ids sort as their names do: a vertex name's characters all
    # sort above + and -, so by vertex name, then v+ before v-
    def by_name(q: int) -> tuple[str, bool]:
        return g.vertices[q % n], q >= n

    # the collapsed lifts at each quarter id, by the name of their other end
    star: list[list[int]] = [[] for _ in range(2 * n)]
    for a, b in collapsed.values():
        star[a].append(b)
        star[b].append(a)
    for ends in star:
        ends.sort(key=by_name)
    if closing:
        order = sorted(range(2 * n), key=by_name)
        return AdmissibilityVerdict(
            admissible=False,
            witness=_witness_from_collapsed_cycle(g, star, order),
            reason="collapsed lifts contain a cycle",
            **decided,
        )
    # as (kind, a, b): kind 0 runs v- to v+, by vertex name, and kind 1
    # joins the ends of a lift, in lift order, which is their colors' order
    twins.sort(key=g.vertices.__getitem__)
    candidates = [(0, n + i, i) for i in twins]
    candidates += [(1, a, b) for a, b in closed]
    return AdmissibilityVerdict(
        admissible=False,
        witness=_witness_from_patterns(g, star, candidates),
        reason=(
            "two lifts of one vertex are joined by collapsed lifts"
            if twins
            else "an uncollapsed lift closes a collapsed path"
        ),
        **decided,
    )


def _project(
    g: DefiningGraph, path: list[int]
) -> tuple[list[str], list[str]]:
    """The vertices a path of quarter ids along collapsed lifts passes
    over, and the tail of each lift's edge: the vertex under its positive
    end, the one whose id is below n."""
    n = len(g.vertices)
    names = [g.vertices[q % n] for q in path]
    tails = [names[i] if path[i] < n else names[i + 1]
             for i in range(len(path) - 1)]
    return names, tails


def _witness_from_patterns(
    g: DefiningGraph,
    star: list[list[int]],
    candidates: list[tuple[int, int, int]],
) -> WitnessCycle:
    """The first shortest collapsed path between a candidate's ends, which
    the collapsed forest makes unique; a vertex's two lifts come first, so
    they win a tie."""
    paths = []
    for kind, a, b in candidates:
        steps = bfs_path(a, b, lambda q: ((w, w) for w in star[q]))
        if steps is None:
            raise AssertionError("failing pattern has no collapsed path")
        paths.append((kind, [a] + steps))
    kind, path = min(paths, key=lambda kp: len(kp[1]))
    names, tails = _project(g, path)
    if kind == 0:
        # unlike a collapsed cycle's arc below, this path never wraps: one
        # whose first and last lifts project to one edge passes through both
        # lifts of an inner vertex, whose own kind-0 path is shorter
        return WitnessCycle(vertices=tuple(names[:-1]), tails=tuple(tails))
    closing = g.edge_between(names[-1], names[0])
    if closing is None:
        raise AssertionError("witness path does not close in the graph")
    return WitnessCycle(vertices=tuple(names), tails=(*tails, closing.iota))


def _witness_from_collapsed_cycle(
    g: DefiningGraph, star: list[list[int]], order: list[int]
) -> WitnessCycle:
    cycle = _find_collapsed_cycle(star, order)
    n = len(g.vertices)
    at: dict[int, list[int]] = {}
    for i, q in enumerate(cycle):
        at.setdefault(q % n, []).append(i)
    # the cycle closed, or split at the first vertex by name it meets in
    # both signs; order[::2] lists the v+, whose ids are the vertex ids
    path = cycle + cycle[:1]
    for v in order[::2]:
        if len(at.get(v, ())) == 2:
            i, j = at[v]
            arc1 = cycle[i : j + 1]
            arc2 = cycle[j:] + cycle[: i + 1]
            path = arc1 if len(arc1) <= len(arc2) else arc2
            # while the projection re-uses its first edge as its last, peel
            # both ends, which exposes the same situation one vertex further
            while len(path) >= 5 and path[1] % n == path[-2] % n:
                path = path[1:-1]
            break
    # with no split, the projection is a genuine even misdirected cycle
    names, tails = _project(g, path)
    return WitnessCycle(vertices=tuple(names[:-1]), tails=tuple(tails))


def _find_collapsed_cycle(
    star: list[list[int]], order: list[int]
) -> list[int]:
    """Quarter ids of some simple cycle along the collapsed lifts `star`,
    by a depth-first search from each id of `order` not yet reached.  No
    two collapsed lifts join the same two ids, so the lift back to a
    vertex's parent is the one to its parent id.  A seen neighbour w of a
    popped v, not its parent, closes the cycle up the tree: w pushed v, and
    v's parent, its last pusher, came after w, so below it.  An id pushed
    twice has two seen neighbours, so it closes a cycle at its first pop,
    and none is popped twice."""
    seen: set[int] = set()
    for start in order:
        if start in seen:
            continue
        parent = {start: -1}
        stack = [start]
        while stack:
            v = stack.pop()
            seen.add(v)
            for w in star[v]:
                if w == parent[v]:
                    continue
                if w in seen:
                    cycle = [v]
                    while cycle[-1] != w:
                        cycle.append(parent[cycle[-1]])
                    return cycle
                parent[w] = v
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
    forced.  An explicit stack of open decisions drives the search, so its
    depth does not grow the Python stack.

    Admissibility is symmetric under reversing every tail.  Reversal swaps
    each edge's p and m lifts, which the deck involution v+ <-> v- of the
    sign double cover maps onto each other, so it maps the collapsed lifts
    onto the collapsed lifts of the reversed orientation; the forest, the
    twins v+ and v- and the closed uncollapsed lifts all survive it.  So
    the first admissible orientation in search order has tail u on the
    first orientable edge: its mirror image is admissible too, and one of
    them has tail u there and comes first.  The search therefore makes
    that tail a root move, never pushed as a decision, and never tries
    tail v there.  The move is as safe as a decision: at the root only
    the label-2 lifts are joined, and they are invariant under the
    involution, so after the root `propagate` either the search is dead or
    every edge can join both its tails and none is forced.

    The pruning invariant: no cut subtree holds the first admissible
    leaf.  A refused join or a forced tail cuts only subtrees with no
    admissible leaf at all.  The skipped half, tail v on the first edge,
    does hold admissible leaves, but each is the mirror image of a leaf in
    the kept half, which comes earlier in search order.  So the first
    answer stays the same, and a search that finds nothing covers half
    the tree.
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
    if alive and tails:
        # the root move: the first edge takes tail u and never tail v, as
        # the mirror image of each orientation with tail v comes earlier
        assign(0, 0)
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
