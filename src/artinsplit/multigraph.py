"""Finite colored multigraphs and the graph algorithms shared on them.

Edges are directed at the data level (every edge has a tail and a head) but
walks may traverse them either way; loops and parallel edges are allowed.
Each edge carries a color naming the relation edge it came from.  All
operations are pure: graphs are never mutated after construction, and every
listing (components, blocks, cycles) comes back in a deterministic order.
The one union-find, `root`, `join` and `classes` over integer ids
(`named_classes` numbers hashable names for it), counts components, free
ranks, blocks, a defining graph's forest and connectivity, the collapse
classes of the sign double cover and the fiber product's components.
The one breadth-first search, `bfs_tree`, runs paths, blocks and the
bipartite test.  The one blocks routine, `edge_blocks`, runs over
integer ids; `blocks` numbers a graph's names for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class StructureError(ValueError):
    """A graph or map references data that does not exist or is inconsistent."""


class DisconnectedError(ValueError):
    """Raised by operations that require a connected graph."""


@dataclass(frozen=True)
class Edge:
    """A directed colored edge.  `id` is unique within its graph."""

    id: str
    tail: str
    head: str
    color: str


class ColoredGraph:
    """An immutable multigraph with colored, directed edges.

    Vertices are identifiers (strings); ordering of vertices and of edge ids
    fixes the deterministic output order used everywhere downstream.
    """

    __slots__ = ("vertices", "edges", "_by_id", "_star")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        vs = tuple(sorted(set(vertices)))
        es = tuple(sorted(edges, key=lambda e: e.id))
        by_id: dict[str, Edge] = {}
        star: dict[str, list[tuple[Edge, int]]] = {v: [] for v in vs}
        for e in es:
            if e.id in by_id:
                raise StructureError(f"duplicate edge id {e.id!r}")
            if e.tail not in star or e.head not in star:
                raise StructureError(f"edge {e.id!r} has a dangling endpoint")
            by_id[e.id] = e
            star[e.tail].append((e, +1))
            star[e.head].append((e, -1))
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_star", {v: tuple(l) for v, l in star.items()})

    def __setattr__(self, name, value):
        raise AttributeError("ColoredGraph is immutable")

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise StructureError(f"no edge {edge_id!r}") from None

    def incident_ends(self, v: str) -> tuple[tuple[Edge, int], ...]:
        """The star of v: every edge-end at v as (edge, +1 for its tail end
        or -1 for its head end), in edge-id order.

        A loop at v contributes two ends, its +1 end first.  Every search
        over the graph tries the ends in this order, which makes its answer
        deterministic.
        """
        return self._star[v]

    def valence(self, v: str) -> int:
        # loops count twice, once per end
        return len(self._star[v])

    def __repr__(self) -> str:
        return (
            f"ColoredGraph({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )


def bouquet(colors: Iterable[str]) -> ColoredGraph:
    """One-vertex graph "*" with a loop per color: the level graph x0, onto
    which an immersion (see `is_immersion`) maps each edge by its color."""
    return ColoredGraph(
        ["*"], [Edge(f"x0:{c}", "*", "*", c) for c in sorted(set(colors))]
    )


def is_immersion(g: ColoredGraph) -> bool:
    """True when g immerses into the bouquet of its colors, each edge onto
    its color's loop: no two edges leaving one vertex share a color, and
    no two entering one do (Stallings, "Topology of finite graphs", 1983).
    """
    return all(
        len({(e.color, sign) for e, sign in g.incident_ends(v)}) == g.valence(v)
        for v in g.vertices
    )


def root(parent: list[int], x: int) -> int:
    """The root of id x's class.  The path is never compressed, so a join
    is undone by resetting the two entries `join` changed."""
    while parent[x] != x:
        x = parent[x]
    return x


def join(
    parent: list[int], size: list[int], ra: int, rb: int
) -> tuple[int, int]:
    """Join the classes of the distinct roots ra and rb, the smaller under
    the larger, which keeps every root walk logarithmic; returns the
    joined root and the surviving one."""
    if size[ra] > size[rb]:
        ra, rb = rb, ra
    parent[ra] = rb
    size[rb] += size[ra]
    return ra, rb


def classes(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """The root of each id 0..n-1 once every pair is joined, and the number
    of closing pairs, those whose ends earlier pairs already joined."""
    parent = list(range(n))
    size = [1] * n
    closing = 0
    for a, b in pairs:
        ra, rb = root(parent, a), root(parent, b)
        if ra == rb:
            closing += 1
        else:
            join(parent, size, ra, rb)
    return [root(parent, x) for x in range(n)], closing


def named_classes(names: Iterable, pairs: Iterable[tuple]) -> tuple[dict, int]:
    """`classes` over hashable names, numbered in order of first
    appearance: each name's root and the number of closing pairs."""
    at = {x: i for i, x in enumerate(dict.fromkeys(names))}
    roots, closing = classes(len(at), ((at[a], at[b]) for a, b in pairs))
    return dict(zip(at, roots)), closing


def connected_components(g: ColoredGraph) -> list[ColoredGraph]:
    """Components as graphs, ordered by their smallest vertex id."""
    of = named_classes(g.vertices, ((e.tail, e.head) for e in g.edges))[0]
    # g.vertices is sorted, so classes appear in order of their least vertex
    members: dict[int, list[str]] = {}
    for v in g.vertices:
        members.setdefault(of[v], []).append(v)
    edges: dict[int, list[Edge]] = {r: [] for r in members}
    for e in g.edges:
        edges[of[e.tail]].append(e)
    return [ColoredGraph(vs, edges[r]) for r, vs in members.items()]


def free_rank(g: ColoredGraph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph: the edges
    whose ends earlier edges already joined, counted on one union-find."""
    closing = named_classes(
        g.vertices, ((e.tail, e.head) for e in g.edges)
    )[1]
    if len(g.edges) - closing != len(g.vertices) - 1:
        raise DisconnectedError(
            "free_rank requires a connected graph; split with "
            "connected_components first"
        )
    return closing


def bfs_tree(start, step, goal=None) -> dict:
    """Level-order breadth-first search: {node: (previous node, label)} in
    discovery order, start mapped to None, stopping once `goal` is found;
    `step(node)` yields (next node, label) pairs in the order to try them."""
    tree: dict = {start: None}
    queue = [start]
    for node in queue:
        for w, label in step(node):
            if w not in tree:
                tree[w] = (node, label)
                if w == goal:
                    return tree
                queue.append(w)
    return tree


def bfs_forest(roots: Iterable, step) -> tuple[dict, dict]:
    """One `bfs_tree` from each root not yet reached, merged, and the depth
    of each node, read off the discovery order."""
    tree: dict = {}
    for start in roots:
        if start not in tree:
            tree.update(bfs_tree(start, step))
    depth: dict = {}
    for node, link in tree.items():
        depth[node] = 0 if link is None else depth[link[0]] + 1
    return tree, depth


def bfs_path(start, goal, step) -> Optional[list]:
    """The labels along the `bfs_tree` path start -> goal, or None."""
    if start == goal:
        return []
    tree = bfs_tree(start, step, goal)
    if goal not in tree:
        return None
    labels = []
    while goal != start:
        goal, label = tree[goal]
        labels.append(label)
    return labels[::-1]


def edge_blocks(n: int, ends: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Biconnected blocks of the graph on vertex ids 0..n-1 whose edge j
    runs ends[j] = (tail, head), as ascending lists of edge ids, ordered by
    smallest edge id.

    Each edge outside a `bfs_forest` (roots in id order, each star read in
    edge order) is joined, by `classes`, with the forest edges its
    fundamental cycle passes, found by walking the deeper end up until the
    ends meet.  Fundamental cycles are simple, so each class lies in one
    block.  Conversely, in a block of two or more edges every edge lies on
    a simple cycle, a sum of fundamental cycles, so on one of them.  If the
    classes split the block into parts X and Y, each simple cycle of it is
    a sum of fundamental cycles each inside X or Y, and since a proper
    nonempty edge set of a simple cycle has vertices of degree one, the
    cycle lies wholly in X or in Y; yet any two edges of a block share a
    simple cycle.  A loop is never a forest edge and a bridge is on no
    fundamental cycle, so each is its own block.  Parallel edges share a
    block.
    """
    star: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, (a, b) in enumerate(ends):
        star[a].append((b, j))
        star[b].append((a, j))
    tree, depth = bfs_forest(range(n), star.__getitem__)
    forest = {link[1] for link in tree.values() if link is not None}
    pairs = []
    for j, (a, b) in enumerate(ends):
        if j in forest:
            continue
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a, tree_edge = tree[a]
            pairs.append((j, tree_edge))
    members: dict[int, list[int]] = {}
    for j, r in enumerate(classes(len(ends), pairs)[0]):
        members.setdefault(r, []).append(j)
    return list(members.values())


def blocks(g: ColoredGraph) -> list[frozenset[str]]:
    """`edge_blocks` over g's names, numbered in their order: edge-id sets
    ordered by smallest edge id."""
    at = {v: i for i, v in enumerate(g.vertices)}
    ends = [(at[e.tail], at[e.head]) for e in g.edges]
    return [frozenset(g.edges[j].id for j in block)
            for block in edge_blocks(len(at), ends)]


@dataclass(frozen=True)
class Walk:
    """A walk in a graph: a start vertex and (edge id, direction) steps.

    Direction +1 traverses tail to head, -1 the other way.  Construction
    checks that consecutive steps are incident.
    """

    graph: ColoredGraph
    start: str
    steps: tuple[tuple[str, int], ...]

    def __post_init__(self):
        at = self.start
        if at not in set(self.graph.vertices):
            raise StructureError(f"walk starts at unknown vertex {at!r}")
        for eid, sign in self.steps:
            e = self.graph.edge(eid)
            a, b = (e.tail, e.head) if sign == +1 else (e.head, e.tail)
            if a != at:
                raise StructureError(f"walk step {eid!r} not incident at {at!r}")
            at = b

    def vertices(self) -> tuple[str, ...]:
        out = [self.start]
        at = self.start
        for eid, sign in self.steps:
            e = self.graph.edge(eid)
            at = e.head if sign == +1 else e.tail
            out.append(at)
        return tuple(out)

    def is_simple_cycle(self) -> bool:
        *vs, end = self.vertices()
        if end != self.start or not self.steps:
            return False
        if len(set(vs)) != len(vs):
            return False
        eids = [eid for eid, _ in self.steps]
        return len(set(eids)) == len(eids)

    def word(self) -> tuple[tuple[str, int], ...]:
        """The color-and-exponent sequence this walk reads off."""
        return tuple(
            (self.graph.edge(eid).color, sign) for eid, sign in self.steps
        )
