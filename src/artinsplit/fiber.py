"""Stallings fiber products, monochromality, and oppressive word sets.

A colored graph in which no color repeats among the edges leaving a
vertex, or among those entering it, is an immersion into the bouquet of its
colors: each edge maps onto its color's loop.  Its self fiber product is
the graph whose vertices are pairs of vertices and whose edges are pairs of
equally-colored edges matched tail-to-tail.  Its connected components away
from the diagonal describe intersections of conjugates of the subgroup the
immersion represents; downstream certification asks whether every simple
cycle in those components is monochrome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .multigraph import (
    ColoredGraph,
    Edge,
    StructureError,
    UnionFind,
    Walk,
    blocks,
    connected_components,
    free_rank,
    is_immersion,
    shortest_path,
)


class FiberInputError(ValueError):
    """The graph handed to fiber_product or oppressive_set is not an
    immersion, so the pullback would not represent subgroup intersections."""


def _pair(u: str, v: str) -> str:
    return f"{u}|{v}"


@dataclass(frozen=True)
class FiberProduct:
    """The fiber product graph together with its component inventory.

    A vertex id "u|v" and an edge id "e1|e2" name the pair of factor
    vertices or edges, so the two projections are read off the ids and not
    stored.  `components` is ordered by smallest vertex id.
    `classification` runs in parallel with it; each entry is one of
    "diagonal", "tree", or "cycle-bearing".  The diagonal pairs (v, v) form
    full components isomorphic to the factor, since an edge leaving (v, v)
    pairs two edges of one color leaving v, which the immersion makes
    equal; `diagonal_components` lists them.
    """

    graph: ColoredGraph
    components: tuple[ColoredGraph, ...]
    classification: tuple[str, ...]
    diagonal_components: tuple[int, ...]

    def nontrivial_components(self) -> tuple[int, ...]:
        """Indices of off-diagonal components containing at least one cycle."""
        return tuple(
            i
            for i, kind in enumerate(self.classification)
            if kind == "cycle-bearing"
        )

    def branching_vertices(self, index: int) -> tuple[str, ...]:
        """Vertices of valence at least 3 in the given component."""
        comp = self.components[index]
        return tuple(v for v in comp.vertices if comp.valence(v) >= 3)


def fiber_product(Y: ColoredGraph) -> FiberProduct:
    """Pull the bouquet immersion Y back along itself.

    Vertices are all pairs (every vertex maps to the single bouquet
    vertex); edges are pairs of edges of one color, matched positively
    since the immersion preserves direction.
    """
    if not is_immersion(Y):
        raise FiberInputError("fiber products require immersions")

    vertices = [_pair(u, v) for u in Y.vertices for v in Y.vertices]

    by_color: dict[str, list[Edge]] = {}
    for e in Y.edges:
        by_color.setdefault(e.color, []).append(e)
    edges = []
    for e1 in Y.edges:
        for e2 in by_color[e1.color]:
            edges.append(
                Edge(
                    _pair(e1.id, e2.id),
                    _pair(e1.tail, e2.tail),
                    _pair(e1.head, e2.head),
                    e1.color,
                )
            )

    graph = ColoredGraph(vertices, edges)
    comps = tuple(connected_components(graph))

    diag_vertices = {_pair(v, v) for v in Y.vertices}
    diagonal = []
    classification = []
    for i, comp in enumerate(comps):
        if diag_vertices & set(comp.vertices):
            diagonal.append(i)
            classification.append("diagonal")
        elif len(comp.edges) >= len(comp.vertices):
            classification.append("cycle-bearing")
        else:
            classification.append("tree")

    return FiberProduct(
        graph=graph,
        components=comps,
        classification=tuple(classification),
        diagonal_components=tuple(diagonal),
    )


@dataclass(frozen=True)
class MonochromeVerdict:
    """Whether every simple cycle off the diagonal uses a single color.

    When not, `witness` is a simple cycle of the fiber graph using at least
    two colors and `witness_component` locates it.
    """

    all_monochrome: bool
    witness: Optional[Walk] = None
    witness_component: Optional[int] = None

    def witness_colors(self) -> tuple[str, ...]:
        if self.witness is None:
            return ()
        return tuple(sorted({c for c, _ in self.witness.word()}))


def monochrome_check(fp: FiberProduct) -> MonochromeVerdict:
    """Decide monochromality by the rank count of `fill_rank_check`.

    A component holds a mixed simple cycle exactly when it fails that
    count (see there), so every component that passes is skipped.  In the
    first one that fails, two distinct edges lie on a common simple cycle
    exactly when they share a biconnected block, so some block carries
    two colors; it yields an explicit witness cycle through two
    differently colored edges.
    """
    for idx in fp.nontrivial_components():
        comp = fp.components[idx]
        if fill_rank_check(comp):
            continue
        for block in blocks(comp):
            cols = {comp.edge(eid).color for eid in block}
            if len(cols) < 2:
                continue
            e1 = comp.edge(min(block))
            e2 = comp.edge(
                min(eid for eid in block if comp.edge(eid).color != e1.color)
            )
            witness = _cycle_through(comp, block, e1, e2)
            witness = Walk(fp.graph, witness.start, witness.steps)
            if not witness.is_simple_cycle():
                raise AssertionError("monochrome witness is not a simple cycle")
            return MonochromeVerdict(
                all_monochrome=False,
                witness=witness,
                witness_component=idx,
            )
        raise AssertionError("fill rank deficient without a mixed block")
    return MonochromeVerdict(all_monochrome=True)


def _step(e: Edge, from_vertex: str) -> tuple[str, int]:
    """The step traversing e away from one of its endpoints."""
    if e.tail == from_vertex:
        return (e.id, +1)
    if e.head == from_vertex:
        return (e.id, -1)
    raise StructureError(f"edge {e.id!r} not incident to {from_vertex!r}")


def _reverse_steps(steps: Sequence[tuple[str, int]]) -> list[tuple[str, int]]:
    return [(eid, -sign) for eid, sign in reversed(steps)]


def _cycle_through(
    g: ColoredGraph, block: frozenset[str], e1: Edge, e2: Edge
) -> Walk:
    """A simple cycle of the block through both of the given edges.

    One exists because any two edges of a biconnected block lie on a common
    simple cycle.  Three shapes: the edges are parallel, share one endpoint,
    or are disjoint (then joined by two vertex-disjoint paths).
    """
    sub = g.restricted(block)
    ends1 = {e1.tail, e1.head}
    ends2 = {e2.tail, e2.head}
    if ends1 == ends2:
        steps = [_step(e1, e1.tail), _step(e2, e1.head)]
        return Walk(g, e1.tail, tuple(steps))
    shared = ends1 & ends2
    if shared:
        v = min(shared)
        x = (ends1 - {v}).pop()
        y = (ends2 - {v}).pop()
        mid = shortest_path(sub, x, y, {v}, {e1.id, e2.id})
        if mid is None:
            raise AssertionError("block not biconnected")
        steps = [_step(e1, v)] + mid + [_step(e2, y)]
        return Walk(g, v, tuple(steps))
    paths = _two_disjoint_paths(
        sub, (e1.tail, e1.head), (e2.tail, e2.head), {e1.id, e2.id}
    )
    if paths is None:
        raise AssertionError("block not biconnected")
    sink_from_head, steps_from_head = paths[e1.head]
    _, steps_from_tail = paths[e1.tail]
    steps = (
        [(e1.id, +1)]
        + steps_from_head
        + [_step(e2, sink_from_head)]
        + _reverse_steps(steps_from_tail)
    )
    return Walk(g, e1.tail, tuple(steps))


def _two_disjoint_paths(
    g: ColoredGraph,
    sources: tuple[str, str],
    sinks: tuple[str, str],
    banned_edges: set[str],
) -> Optional[dict[str, tuple[str, list[tuple[str, int]]]]]:
    """Two vertex-disjoint paths joining the sources to the sinks, one each.

    Unit-capacity max flow on the split digraph: every vertex and every
    usable edge becomes a capacity-one arc, edges usable in either
    direction.  Returns {source: (sink, steps)} or None when no two such
    paths exist.  Sources and sinks are assumed pairwise distinct vertices.
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

    net = {a: orig[a] - cap[a] for a in orig if orig[a] - cap[a] > 0}
    out: dict[str, tuple[str, list[tuple[str, int]]]] = {}
    for _ in range(2):
        trail = [S]
        node = S
        while node != T:
            nbr = min(b for (a, b) in net if a == node)
            net[(node, nbr)] -= 1
            if net[(node, nbr)] == 0:
                del net[(node, nbr)]
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


def fill_rank_check(component: ColoredGraph) -> bool:
    """Whether the simple monochrome cycles span the whole cycle space;
    for a connected component, exactly when every simple cycle is
    monochrome.

    The monochrome simple cycles are the simple cycles of the single-color
    subgraphs, which span those subgraphs' cycle spaces, so the span in
    question is the sum of the per-color cycle spaces.  Every edge has one
    color, so those spaces have disjoint supports and the sum is direct;
    its dimension is the sum of the per-color cycle ranks, and it is the
    whole cycle space exactly when that equals the free rank.  Each rank
    is counted as in `free_rank`, on one union-find of (color, vertex)
    pairs.

    If every simple cycle is monochrome the count holds, since simple
    cycles span the cycle space.  Conversely, if it holds, a simple cycle
    C is a sum of per-color cycles with disjoint supports, so the edges of
    C of one color form an even subgraph of C.  A proper nonempty edge set
    of a simple cycle has vertices of degree one, so each color takes all
    of C or none of it: C is monochrome.
    """
    uf = UnionFind(
        (e.color, v) for e in component.edges for v in (e.tail, e.head)
    )
    per_color = sum(
        not uf.union((e.color, e.tail), (e.color, e.head))
        for e in component.edges
    )
    return per_color == free_rank(component)


@dataclass(frozen=True)
class OppressiveWord:
    """One word of the oppressive set with the path pair that produced it."""

    word: tuple[tuple[str, int], ...]
    mu1: Walk
    mu2: Optional[Walk]


@dataclass(frozen=True)
class OppressiveSet:
    """All words read off admissible path pairs, one witness pair per word."""

    basepoint: str
    elements: tuple[OppressiveWord, ...]

    def words(self) -> tuple[tuple[tuple[str, int], ...], ...]:
        return tuple(el.word for el in self.elements)


def oppressive_set(Y: ColoredGraph, y0: str) -> OppressiveSet:
    """Enumerate the oppressive words of an immersion at a basepoint.

    A word is the color sequence of mu1 followed by mu2, where mu1 is a
    nontrivial simple path from y0 ending at some y1 != y0, and mu2 is
    either empty or a simple path into y0 from some y2 with y2 != y1 and
    y2 != y0.  Reading any such word from y0 can never trace back to y0,
    because forward and backward lifts through an immersion are unique.
    The set is empty exactly when no nontrivial simple path leaves y0,
    which for a connected Y means Y embeds in the bouquet.

    Simple paths are enumerated exhaustively, so this is intended for
    small graphs.  Each distinct word appears once, with the witness pair
    that is shortest in the enumeration order.
    """
    if not is_immersion(Y):
        raise FiberInputError("oppressive sets require an immersion")
    if y0 not in set(Y.vertices):
        raise StructureError(f"basepoint {y0!r} not in the graph")

    outward = _simple_paths_from(Y, y0)

    best: dict[tuple, tuple[tuple, OppressiveWord]] = {}
    for mu1 in outward:
        y1 = mu1.end
        inward: list[Optional[Walk]] = [None]
        for back in outward:
            if back.end not in (y0, y1):
                inward.append(
                    Walk(Y, back.end, tuple(_reverse_steps(back.steps)))
                )
        for mu2 in inward:
            word = mu1.word()
            if mu2 is not None:
                word = word + mu2.word()
            key = (
                len(mu1.steps) + (len(mu2.steps) if mu2 else 0),
                mu1.steps,
                mu2.steps if mu2 else (),
            )
            if word not in best or key < best[word][0]:
                best[word] = (key, OppressiveWord(word, mu1, mu2))

    elements = tuple(
        best[w][1] for w in sorted(best, key=lambda w: (len(w), w))
    )
    return OppressiveSet(basepoint=y0, elements=elements)


def _simple_paths_from(g: ColoredGraph, y0: str) -> list[Walk]:
    """Every nontrivial simple path starting at y0, in search order; the
    search runs on an explicit stack, so long paths do not recurse."""

    def ends(at: str):
        return iter(sorted(g.incident_ends(at), key=lambda t: (t[0].id, -t[1])))

    out: list[Walk] = []
    steps: list[tuple[str, int]] = []
    visited = {y0}
    stack = [(y0, ends(y0))]
    while stack:
        at, untried = stack[-1]
        for e, _ in untried:
            w = e.head if e.tail == at else e.tail
            if w not in visited:
                steps.append((e.id, +1 if e.tail == at else -1))
                visited.add(w)
                out.append(Walk(g, y0, tuple(steps)))
                stack.append((w, ends(w)))
                break
        else:
            stack.pop()
            if stack:
                visited.discard(at)
                steps.pop()
    return out
