"""Brute-force reference implementations the test-suite checks against.

Everything here trades speed for obviousness: exhaustive enumeration and
linear algebra done the long way, so that disagreement with the library
points at the library.
"""

import itertools
import json
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Optional, Sequence

from artinsplit import (
    AdmissibilityVerdict,
    ColoredGraph,
    DefiningGraph,
    DisconnectedError,
    Edge,
    HorizontalFamily,
    SplittingCertificate,
    StructureError,
    Walk,
    WitnessCycle,
    blocks,
    build_family,
    connected_components,
    free_rank,
)
from artinsplit.defining_graph import all_labels_even, is_bipartite
from artinsplit.multigraph import bfs_path, is_cover


class UnionFind:
    """Reference for the library's union-find: disjoint classes of
    hashable items held in dicts, joined by `union`, the smaller class
    under the larger, which keeps every `find` path logarithmic."""

    __slots__ = ("parent", "size")

    def __init__(self, items=()):
        self.parent = {x: x for x in items}
        self.size = dict.fromkeys(self.parent, 1)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        """Join the classes of a and b; False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        size = self.size
        if size[ra] > size[rb]:
            ra, rb = rb, ra
        self.parent[ra] = rb
        size[rb] += size[ra]
        return True


def is_simple_path(w: Walk) -> bool:
    """A walk that visits no vertex twice."""
    vs = w.vertices()
    return len(set(vs)) == len(vs)


def all_simple_cycles(g: ColoredGraph) -> list[Walk]:
    """Every simple cycle of g, once per edge set.

    A simple cycle is determined up to rotation and reversal by its set of
    edge ids, so deduplication keys on that.  Loops count as 1-cycles.
    """
    found: dict[frozenset[str], Walk] = {}
    for e in g.edges:
        if e.tail == e.head:
            found[frozenset([e.id])] = Walk(g, e.tail, ((e.id, +1),))
    pos = {v: i for i, v in enumerate(g.vertices)}
    for s in g.vertices:
        # simple paths from s through strictly later vertices, closed at s
        stack = [(s, (s,), ())]
        while stack:
            at, visited, steps = stack.pop()
            for e, _ in g.incident_ends(at):
                if e.tail == e.head:
                    continue
                w = e.head if e.tail == at else e.tail
                step = (e.id, +1 if e.tail == at else -1)
                if w == s and steps:
                    ids = frozenset(eid for eid, _ in steps) | {e.id}
                    if len(ids) == len(steps) + 1 and ids not in found:
                        found[ids] = Walk(g, s, steps + (step,))
                elif w not in visited and pos[w] > pos[s]:
                    stack.append((w, visited + (w,), steps + (step,)))
    return [found[k] for k in sorted(found, key=sorted)]


def shortest_path(
    g: ColoredGraph,
    src: str,
    dst: str,
    banned_vertices: Collection[str] = (),
    banned_edges: Collection[str] = (),
) -> Optional[list[tuple[str, int]]]:
    """Steps of a shortest path src -> dst avoiding the banned items, or
    None: `multigraph.bfs_path` over each vertex's star, in its order."""

    def step(v: str):
        for e, sign in g.incident_ends(v):
            w = e.head if sign == +1 else e.tail
            if e.id not in banned_edges and w not in banned_vertices:
                yield w, (e.id, sign)

    return bfs_path(src, dst, step)


def shortest_path_by_levels(
    g: ColoredGraph,
    src: str,
    dst: str,
    banned_vertices: Collection[str] = (),
    banned_edges: Collection[str] = (),
) -> Optional[list[tuple[str, int]]]:
    """Reference for `shortest_path`: steps of a shortest path
    src -> dst avoiding the banned items, or None.

    Breadth-first, trying the edges at each vertex in id order, so the
    answer is deterministic; in a forest it is the unique path.
    """
    if src == dst:
        return []
    prev: dict[str, tuple[str, str, int]] = {}
    seen = {src}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for e, _ in sorted(g.incident_ends(v), key=lambda t: t[0].id):
                if e.id in banned_edges:
                    continue
                w = e.head if e.tail == v else e.tail
                if w in seen or w in banned_vertices:
                    continue
                seen.add(w)
                prev[w] = (v, e.id, +1 if e.tail == v else -1)
                if w == dst:
                    steps = []
                    cur = w
                    while cur != src:
                        pv, eid, sign = prev[cur]
                        steps.append((eid, sign))
                        cur = pv
                    steps.reverse()
                    return steps
                nxt.append(w)
        frontier = nxt
    return None


def two_disjoint_paths(
    g: ColoredGraph,
    sources: tuple[str, str],
    sinks: tuple[str, str],
    banned_edges: set[str],
) -> Optional[dict[str, tuple[str, list[tuple[str, int]]]]]:
    """Reference for fiber._two_disjoint_paths: two vertex-disjoint paths
    joining the sources to the sinks, one each.

    Unit-capacity max flow on the split digraph: every vertex and every
    usable edge becomes a capacity-one arc, edges usable in either
    direction.  Returns {source: (sink, steps)} or None when no two such
    paths exist.  Sources and sinks are assumed pairwise distinct vertices.
    The flow is kept as capacities and read out one unit per arc, so no
    argument about how much flow a node can carry is needed.
    """
    S = ("S", "")
    T = ("T", "")
    cap: dict[tuple, int] = {}
    orig: dict[tuple, int] = {}

    def arc(a: tuple, b: tuple) -> None:
        cap[(a, b)] = cap.get((a, b), 0) + 1
        orig[(a, b)] = orig.get((a, b), 0) + 1
        cap.setdefault((b, a), 0)
        orig.setdefault((b, a), 0)

    for v in g.vertices:
        arc(("i", v), ("o", v))
    for e in g.edges:
        if e.id in banned_edges or e.tail == e.head:
            continue
        arc(("en", e.id), ("ex", e.id))
        arc(("o", e.tail), ("en", e.id))
        arc(("o", e.head), ("en", e.id))
        arc(("ex", e.id), ("i", e.tail))
        arc(("ex", e.id), ("i", e.head))
    for s in sources:
        arc(S, ("i", s))
    for t in sinks:
        arc(("o", t), T)

    adj: dict[tuple, list[tuple]] = {}
    for a, b in cap:
        adj.setdefault(a, []).append(b)
    for a in adj:
        adj[a].sort()

    pushed = 0
    for _ in range(2):
        prev: dict[tuple, tuple] = {}
        seen = {S}
        frontier = [S]
        reached = False
        while frontier and not reached:
            nxt = []
            for a in frontier:
                for b in adj.get(a, ()):
                    if b in seen or cap[(a, b)] <= 0:
                        continue
                    seen.add(b)
                    prev[b] = a
                    if b == T:
                        reached = True
                        break
                    nxt.append(b)
                if reached:
                    break
            frontier = nxt
        if not reached:
            break
        node = T
        while node != S:
            p = prev[node]
            cap[(p, node)] -= 1
            cap[(node, p)] += 1
            node = p
        pushed += 1
    if pushed < 2:
        return None

    # the heads of the arcs carrying flow, one per unit, per tail; each
    # step takes the least one left
    heads: dict[tuple, list[tuple]] = {}
    for (a, b), c in orig.items():
        if c > cap[(a, b)]:
            heads.setdefault(a, []).extend([b] * (c - cap[(a, b)]))
    for hs in heads.values():
        hs.sort(reverse=True)
    out: dict[str, tuple[str, list[tuple[str, int]]]] = {}
    for _ in range(2):
        trail = [S]
        node = S
        while node != T:
            nbr = heads[node].pop()
            trail.append(nbr)
            node = nbr
        source = trail[1][1]
        sink = trail[-2][1]
        steps: list[tuple[str, int]] = []
        for i in range(3, len(trail) - 2, 4):
            eid = trail[i][1]
            at = trail[i - 1][1]
            e = g.edge(eid)
            steps.append((eid, +1 if e.tail == at else -1))
        out[source] = (sink, steps)
    return out


def is_monochrome_walk(w: Walk) -> bool:
    return len({c for c, _ in w.word()}) <= 1


def has_mixed_simple_cycle(g: ColoredGraph) -> bool:
    return any(not is_monochrome_walk(w) for w in all_simple_cycles(g))


def gf2_span_rank(vectors: list[int]) -> int:
    """Rank over GF(2) of bitmask vectors, by plain elimination."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def cycle_edge_mask(w: Walk, index: dict[str, int]) -> int:
    mask = 0
    for eid, _ in w.steps:
        mask ^= 1 << index[eid]
    return mask


def monochrome_cycles_fill(g: ColoredGraph) -> bool:
    """Reference for fill_rank_check: do the simple monochrome cycles of a
    connected graph span its whole cycle space over GF(2)?"""
    index = {e.id: i for i, e in enumerate(g.edges)}
    masks = [
        cycle_edge_mask(w, index)
        for w in all_simple_cycles(g)
        if is_monochrome_walk(w)
    ]
    return gf2_span_rank(masks) == free_rank(g)


def rank_count_fills(g: ColoredGraph) -> bool:
    """Polynomial stand-in for `monochrome_cycles_fill` on graphs too large
    to enumerate: the per-color cycle ranks, each counted as in `free_rank`
    on one union-find of (color, vertex) pairs, add up to the free rank."""
    uf = UnionFind((e.color, v) for e in g.edges for v in (e.tail, e.head))
    per_color = sum(
        not uf.union((e.color, e.tail), (e.color, e.head)) for e in g.edges
    )
    return per_color == free_rank(g)


@dataclass(frozen=True)
class ExplicitProduct:
    """The self fiber product built with string ids throughout."""

    graph: ColoredGraph
    components: tuple[ColoredGraph, ...]
    classification: tuple[str, ...]
    diagonal_components: tuple[int, ...]


def explicit_fiber_product(Y: ColoredGraph) -> ExplicitProduct:
    """Reference for fiber_product: every pair "u|v" and every pair "e1|e2"
    of equally-colored edges as a string-keyed graph, split into its
    components by `connected_components`."""
    vertices = [f"{u}|{v}" for u in Y.vertices for v in Y.vertices]
    edges = [
        Edge(f"{e1.id}|{e2.id}", f"{e1.tail}|{e2.tail}",
             f"{e1.head}|{e2.head}", e1.color)
        for e1 in Y.edges
        for e2 in Y.edges
        if e1.color == e2.color
    ]
    graph = ColoredGraph(vertices, edges)
    comps = tuple(connected_components(graph))
    diagonal = {f"{v}|{v}" for v in Y.vertices}
    classification = tuple(
        "diagonal" if diagonal & set(comp.vertices)
        else "cycle-bearing" if len(comp.edges) >= len(comp.vertices)
        else "tree"
        for comp in comps
    )
    return ExplicitProduct(
        graph=graph,
        components=comps,
        classification=classification,
        diagonal_components=tuple(
            i for i, kind in enumerate(classification) if kind == "diagonal"
        ),
    )


def lowpoint_blocks(g: ColoredGraph) -> list[frozenset[str]]:
    """Reference for multigraph.blocks: biconnected blocks as edge-id sets
    by the iterative lowpoint depth-first search (Tarjan, "Depth-first
    search and linear graph algorithms", 1972); every edge lands in
    exactly one.

    Loops are their own blocks.  Parallel edges share a block.  The list is
    ordered by each block's smallest edge id.
    """
    loop_ids = {e.id for e in g.edges if e.tail == e.head}
    out: list[frozenset[str]] = [frozenset([lid]) for lid in sorted(loop_ids)]

    def neighbours(v: str):
        return (
            (e, e.head if sign == +1 else e.tail)
            for e, sign in g.incident_ends(v)
            if e.tail != e.head
        )

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    counter = 0
    estack: list[str] = []
    used_edges: set[str] = set()

    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        # frames: (vertex, id of the tree edge into it, end iterator)
        stack: list[tuple[str, Optional[str], object]] = [
            (root, None, neighbours(root))
        ]
        while stack:
            v, via, it = stack[-1]
            advanced = False
            for e, w in it:  # type: ignore[assignment]
                if e.id in used_edges:
                    continue
                used_edges.add(e.id)
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    estack.append(e.id)
                    stack.append((w, e.id, neighbours(w)))
                    advanced = True
                    break
                # w already visited and the edge unseen: w is an ancestor
                estack.append(e.id)
                low[v] = min(low[v], index[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] >= index[parent]:
                    block: list[str] = []
                    while estack:
                        eid = estack.pop()
                        block.append(eid)
                        if eid == via:
                            break
                    if block:
                        out.append(frozenset(block))
    out.sort(key=min)
    return out


def cycle_through(g: ColoredGraph, block: frozenset[str], e1: Edge,
                  e2: Edge) -> Walk:
    """Reference for fiber._cycle_through: a simple cycle of a biconnected
    block through two of its edges, neither a loop.

    When the edges share an end v (e1's tail if it is an end of both, as
    for parallel edges), the cycle runs e1 away from v, a shortest path
    in the block minus v from e1's other end to e2's, and e2 back to v.
    When they are disjoint, it runs e1 forward, the one of two disjoint
    paths that leaves e1's head, e2, and the other path back to e1's tail.
    """
    sub = ColoredGraph(
        {v for e in g.edges if e.id in block for v in (e.tail, e.head)},
        [e for e in g.edges if e.id in block],
    )

    def away(e: Edge, v: str) -> tuple[str, int]:
        return (e.id, +1 if e.tail == v else -1)

    def other(e: Edge, v: str) -> str:
        return e.head if e.tail == v else e.tail

    banned = {e1.id, e2.id}
    if e1.tail in (e2.tail, e2.head) or e1.head in (e2.tail, e2.head):
        v = e1.tail if e1.tail in (e2.tail, e2.head) else e1.head
        y = other(e2, v)
        mid = shortest_path_by_levels(sub, other(e1, v), y, {v}, banned)
        if mid is None:
            raise AssertionError("block not biconnected")
        return Walk(g, v, (away(e1, v), *mid, away(e2, y)))
    paths = two_disjoint_paths(
        sub, (e1.tail, e1.head), (e2.tail, e2.head), banned)
    if paths is None:
        raise AssertionError("block not biconnected")
    sink, from_head = paths[e1.head]
    _, from_tail = paths[e1.tail]
    back = [(eid, -sign) for eid, sign in reversed(from_tail)]
    return Walk(g, e1.tail, ((e1.id, +1), *from_head, away(e2, sink), *back))


def explicit_monochrome_witness(fp: ExplicitProduct) -> Optional[tuple]:
    """Reference for monochrome_check's witness as (component, start,
    steps), or None when every simple cycle is monochrome: the first
    cycle-bearing component that fails `rank_count_fills`, its first block
    of two colors by `lowpoint_blocks`, and `cycle_through` that block's
    least edge and its least edge of another color."""
    for idx, comp in enumerate(fp.components):
        if fp.classification[idx] != "cycle-bearing" or rank_count_fills(comp):
            continue
        for block in lowpoint_blocks(comp):
            e1 = comp.edge(min(block))
            others = [eid for eid in block if comp.edge(eid).color != e1.color]
            if others:
                w = cycle_through(comp, block, e1, comp.edge(min(others)))
                return idx, w.start, w.steps
    return None


def on_common_simple_cycle(g: ColoredGraph, eid1: str, eid2: str) -> bool:
    """Whether two distinct edges lie on one simple cycle (same block)."""
    for w in all_simple_cycles(g):
        ids = {eid for eid, _ in w.steps}
        if eid1 in ids and eid2 in ids:
            return True
    return False


def run_lengths(xbar: ColoredGraph, color: str) -> tuple[int, ...]:
    """Sorted lengths of the runs of one color in the collapsed graph, read
    off the edge ids xb:<color>:<side>:e<i>, one run per side."""
    runs: dict[str, int] = {}
    for e in xbar.edges:
        _, c, side, _ = e.id.split(":")
        if c == color:
            runs[side] = runs.get(side, 0) + 1
    return tuple(sorted(runs.values()))


def sign_cover_lifts(g: DefiningGraph) -> list[tuple]:
    """Every edge with its two lifts to the sign double cover, by name.

    In sorted edge order, as (edge, p lift, m lift), each lift an
    (id, (end, end)) pair: "dc:<color>:p" joins u+ to v-, "dc:<color>:m"
    joins u- to v+.
    """
    return [
        (e, (f"dc:{e.color}:p", (e.u + "+", e.v + "-")),
         (f"dc:{e.color}:m", (e.u + "-", e.v + "+")))
        for e in g.sorted_edges
    ]


def sign_cover_collapse(g: DefiningGraph, lifts: list[tuple], iota):
    """Reference for the collapse classes of the sign double cover, on
    quarter names and the dict-based `UnionFind`.

    Returns the collapsed lifts as {lift id: ends} (both lifts of a label-2
    edge, and the lift whose positive end lies over an orientable edge's
    tail in `iota`), their classes, and whether they form a forest.
    """
    collapsed = {}
    for e, (pid, p_ends), (mid, m_ends) in lifts:
        tail = iota.get(e.key)
        if e.label == 2 or tail == e.u:
            collapsed[pid] = p_ends
        if e.label == 2 or tail == e.v:
            collapsed[mid] = m_ends
    classes = UnionFind(v + s for s in "+-" for v in g.vertices)
    forest = True
    for a, b in collapsed.values():
        if not classes.union(a, b):
            forest = False
    return collapsed, classes, forest


def sign_cover_candidates(g, lifts, collapsed, classes) -> list[tuple]:
    """The pairs a collapse class must keep apart but joins, as (kind, key,
    a, b): kind 0 the two lifts v- and v+ of a vertex, kind 1 the two ends
    of an uncollapsed lift."""
    find = classes.find
    out = [(0, v, v + "-", v + "+") for v in sorted(g.vertices)
           if find(v + "-") == find(v + "+")]
    for e, p, m in lifts:
        for lid, (a, b) in (p, m):
            if lid not in collapsed and find(a) == find(b):
                out.append((1, e.color, a, b))
    return out


def sign_cover_admissible(g: DefiningGraph, lifts: list[tuple], iota) -> bool:
    """The criterion on the reference classes: the collapsed lifts form a
    forest that joins no pair it must keep apart."""
    collapsed, classes, forest = sign_cover_collapse(g, lifts, iota)
    return forest and not sign_cover_candidates(g, lifts, collapsed, classes)


def collapsed_lift_graph(lifts: list[tuple], collapsed) -> ColoredGraph:
    """The reference's collapsed lifts alone, as a graph on their ends."""
    return ColoredGraph(
        (q for ends in collapsed.values() for q in ends),
        (Edge(lid, a, b, e.color) for e, p, m in lifts
         for lid, (a, b) in (p, m) if lid in collapsed),
    )


def sign_cover_verdict(g: DefiningGraph) -> AdmissibilityVerdict:
    """Reference for is_admissible: the verdict on the reference classes,
    its witness built from the reference's own collapsed-lift graph and
    candidates by the named witness builders below."""
    lifts = sign_cover_lifts(g)
    collapsed, classes, forest = sign_cover_collapse(g, lifts, g.orientation())
    candidates = sign_cover_candidates(g, lifts, collapsed, classes)
    sub = collapsed_lift_graph(lifts, collapsed)
    if not forest:
        return AdmissibilityVerdict(
            False, _witness_from_collapsed_cycle(sub),
            "collapsed lifts contain a cycle",
        )
    if not candidates:
        return AdmissibilityVerdict(True)
    reason = (
        "two lifts of one vertex are joined by collapsed lifts"
        if candidates[0][0] == 0
        else "an uncollapsed lift closes a collapsed path"
    )
    return AdmissibilityVerdict(
        False, _witness_from_patterns(g, sub, candidates), reason
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


def first_admissible_orientation(g: DefiningGraph):
    """Reference for find_admissible_orientation: the first admissible
    orientation in search order, or None.

    Every orientation of the label >= 3 edges, sorted by (label, endpoints),
    is tried in `itertools.product` order with tail u before tail v, and
    decided by `sign_cover_admissible`.
    """
    orientable = sorted(
        (e for e in g.edges if e.label >= 3), key=lambda e: (e.label, e.key)
    )
    lifts = sign_cover_lifts(g)
    for tails in itertools.product(*((e.u, e.v) for e in orientable)):
        iota = {e.key: t for e, t in zip(orientable, tails)}
        if sign_cover_admissible(g, lifts, iota):
            return iota
    return None


def first_admissible_orientation_by_blocks(g: DefiningGraph):
    """`first_admissible_orientation` for graphs too wide to try all 2^k
    orientations at once: that oracle on each block of g alone, joined back
    in search order, or None.

    Every simple cycle lies in one block (`multigraph.blocks`), so an
    orientation is admissible exactly when its restriction to each block
    is.  The admissible orientations are then the products of each block's,
    and the first product in search order restricts to each block's first.
    """
    cg = ColoredGraph(
        g.vertices, [Edge(e.color, e.u, e.v, e.color) for e in g.edges]
    )
    iota = {}
    for block in blocks(cg):
        edges = [e for e in g.edges if e.color in block]
        first = first_admissible_orientation(DefiningGraph.build(
            sorted({v for e in edges for v in e.key}),
            [(e.u, e.v, e.label, None) for e in edges],
        ))
        if first is None:
            return None
        iota.update(first)
    orientable = sorted(
        (e for e in g.edges if e.label >= 3), key=lambda e: (e.label, e.key)
    )
    return {e.key: iota[e.key] for e in orientable}


def out_edges(g: ColoredGraph, v: str) -> tuple[Edge, ...]:
    """The edges with tail v, in edge-id order."""
    return tuple(e for e, sign in g.incident_ends(v) if sign == +1)


def in_edges(g: ColoredGraph, v: str) -> tuple[Edge, ...]:
    """The edges with head v, in edge-id order."""
    return tuple(e for e, sign in g.incident_ends(v) if sign == -1)


@dataclass(frozen=True)
class TraceResult:
    """Outcome of following a word letter by letter from a base vertex.

    outcome is "closes" (full trace returning to the base), "exits" (full
    trace ending elsewhere; `vertex` says where), or "no-edge" (the letter
    at `failed_index` has no continuation at `vertex`).
    """

    outcome: str
    vertex: str
    failed_index: Optional[int] = None


def traces_word(
    Y: ColoredGraph, y0: str, word: Sequence[tuple[str, int]]
) -> TraceResult:
    """Follow a word of (color, direction) letters through Y from y0.

    Y must immerse into the bouquet of its own colors, so each letter has
    at most one continuation; a repeated choice raises StructureError.
    """
    if y0 not in set(Y.vertices):
        raise StructureError(f"base vertex {y0!r} not in the graph")
    at = y0
    for i, (color, sign) in enumerate(word):
        if sign == +1:
            candidates = [e for e in out_edges(Y, at) if e.color == color]
        else:
            candidates = [e for e in in_edges(Y, at) if e.color == color]
        if len(candidates) > 1:
            raise StructureError(
                f"two {color!r} edges leave {at!r}; the graph does not "
                "immerse in its bouquet"
            )
        if not candidates:
            return TraceResult(outcome="no-edge", vertex=at, failed_index=i)
        e = candidates[0]
        at = e.head if sign == +1 else e.tail
    if at == y0:
        return TraceResult(outcome="closes", vertex=at)
    return TraceResult(outcome="exits", vertex=at)


def simple_paths(g: ColoredGraph, y0: str) -> list[Walk]:
    """Every nontrivial simple path from y0 as a walk, shortest first: each
    round extends the last round's paths by one step in every way that
    reaches a new vertex."""
    out: list[Walk] = []
    frontier = [Walk(g, y0, ())]
    while frontier:
        longer = []
        for w in frontier:
            seen = set(w.vertices())
            for e, sign in g.incident_ends(w.end):
                if (e.head if sign == +1 else e.tail) not in seen:
                    longer.append(Walk(g, y0, w.steps + ((e.id, sign),)))
        out += longer
        frontier = longer
    return out


def oppressive_pairs(
    Y: ColoredGraph, y0: str
) -> list[tuple[tuple[tuple[str, int], ...], Walk, Optional[Walk]]]:
    """Every path pair behind an oppressive word at y0, as (word, mu1, mu2).

    mu1 is a nontrivial simple path from y0; mu2 is None or a simple path
    into y0, built as the reverse of a simple path from y0, that starts
    away from the end of mu1.  The word is the colors mu1 and then mu2 read.
    """
    outward = simple_paths(Y, y0)
    out = []
    for mu1 in outward:
        out.append((mu1.word(), mu1, None))
        for back in outward:
            if back.end != mu1.end:
                mu2 = Walk(Y, back.end, tuple(
                    (eid, -sign) for eid, sign in reversed(back.steps)))
                out.append((mu1.word() + mu2.word(), mu1, mu2))
    return out


def restricted(g: ColoredGraph, edge_ids: Iterable[str]) -> ColoredGraph:
    """Subgraph of g spanned by the given edges (only their endpoints kept)."""
    keep = set(edge_ids)
    es = [e for e in g.edges if e.id in keep]
    vs = {e.tail for e in es} | {e.head for e in es}
    return ColoredGraph(vs, es)


@dataclass(frozen=True)
class GraphMap:
    """A combinatorial map: vertices to vertices, edges to edges.

    Edge images preserve the stored direction (tail goes to tail) and the
    color.  Construction raises StructureError unless the map is well formed.
    """

    source: ColoredGraph
    target: ColoredGraph
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, str]

    def __post_init__(self):
        tvs = set(self.target.vertices)
        for v in self.source.vertices:
            if v not in self.vertex_map:
                raise StructureError(f"vertex {v!r} has no image")
            if self.vertex_map[v] not in tvs:
                raise StructureError(f"image of vertex {v!r} is dangling")
        for e in self.source.edges:
            if e.id not in self.edge_map:
                raise StructureError(f"edge {e.id!r} has no image")
            img = self.target.edge(self.edge_map[e.id])
            if self.vertex_map[e.tail] != img.tail:
                raise StructureError(f"edge {e.id!r}: tail not preserved")
            if self.vertex_map[e.head] != img.head:
                raise StructureError(f"edge {e.id!r}: head not preserved")
            if e.color != img.color:
                raise StructureError(f"edge {e.id!r}: color not preserved")


def named_cover(family: HorizontalFamily) -> GraphMap:
    """The covering map x_quarter -> x_half, read off `build_family`'s
    names: v+ and v- go to v, and xq:<color>:p+ and :p- (or :d+ and :d-)
    to xh:<color>:p (or :d)."""
    q = family.x_quarter
    return GraphMap(
        q,
        family.x_half,
        {v: v[:-1] for v in q.vertices},
        {e.id: "xh" + e.id[2:-1] for e in q.edges},
    )


def _swap_sign(name: str) -> str:
    return name[:-1] + ("-" if name.endswith("+") else "+")


def deck_involution_on_quarter(family: HorizontalFamily) -> GraphMap:
    """The sign swap of x_quarter (v+ with v-, and each lift id ending in
    + with its partner ending in -) as a graph automorphism.

    Only meaningful as the edge-group twist in the amalgam case, so a
    disconnected x_quarter is refused.
    """
    if len(connected_components(family.x_quarter)) != 1:
        raise DisconnectedError(
            "x_quarter is disconnected; the splitting is an HNN extension "
            "and has no single-component involution"
        )
    q = family.x_quarter
    return GraphMap(
        q,
        q,
        {v: _swap_sign(v) for v in q.vertices},
        {e.id: _swap_sign(e.id) for e in q.edges},
    )


def is_degree_n_cover(m: GraphMap, n: int) -> bool:
    """True when m is a covering map with every fiber of size exactly n:
    `multigraph.is_cover` on the source and target numbered in their own
    order."""
    sv = {v: i for i, v in enumerate(m.source.vertices)}
    tv = {v: i for i, v in enumerate(m.target.vertices)}
    te = {e.id: j for j, e in enumerate(m.target.edges)}
    return is_cover(
        [(sv[e.tail], sv[e.head]) for e in m.source.edges],
        (len(tv), [(tv[e.tail], tv[e.head]) for e in m.target.edges]),
        [tv[m.vertex_map[v]] for v in m.source.vertices],
        [te[m.edge_map[e.id]] for e in m.source.edges],
        n,
    )


def splitting_on_named_graphs(g: DefiningGraph) -> SplittingCertificate:
    """The splitting of a connected admissible g, cross-checked on the
    string graphs of `build_family`: components, free ranks and the
    degree-2 cover counted by `connected_components`, `free_rank` and
    `is_degree_n_cover`."""
    family = build_family(g)
    nv, ne = len(g.vertices), len(g.edges)
    rank_a, rank_b = ne, 1 - nv + 2 * ne
    comps = connected_components(family.x_quarter)
    hnn = is_bipartite(g) and all_labels_even(g)
    checks = {
        "x_quarter components": (len(comps) == 2) == hnn,
        "rank of x0": free_rank(family.x0) == rank_a,
        "rank of x_half": free_rank(family.x_half) == rank_b,
        "double cover": is_degree_n_cover(named_cover(family), 2),
    }
    if hnn:
        checks["halves"] = all(free_rank(c) == rank_b for c in comps)
        rank_c = index = None
    else:
        rank_c, index = 1 - 2 * nv + 4 * ne, 2
        checks["rank of x_quarter"] = free_rank(family.x_quarter) == rank_c
    failed = [name for name, holds in checks.items() if not holds]
    if failed:
        raise AssertionError(f"reference cross-checks failed: {failed}")
    return SplittingCertificate(
        kind="hnn" if hnn else "amalgam", rank_a=rank_a, rank_b=rank_b,
        rank_c=rank_c, index_c_in_b=index,
    )


def neighbours_by_edge_scan(g: DefiningGraph, v: str) -> tuple[str, ...]:
    """v's sorted neighbours, read off a scan of every edge."""
    out = set()
    for e in g.edges:
        if e.u == v:
            out.add(e.v)
        elif e.v == v:
            out.add(e.u)
    return tuple(sorted(out))


def canonical_json_reference(payload) -> str:
    """The layout `certify.canonical_json` writes, by the standard
    library's encoder."""
    return json.dumps(payload, indent=2, sort_keys=True)
