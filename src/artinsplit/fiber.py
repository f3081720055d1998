"""Stallings fiber products, monochromality, and oppressive word sets.

A colored graph in which no color repeats among the edges leaving a
vertex, or among those entering it, is an immersion into the bouquet of its
colors: each edge maps onto its color's loop.  Its self fiber product is
the graph whose vertices are pairs of vertices and whose edges are pairs of
equally-colored edges matched tail-to-tail.  Its connected components away
from the diagonal describe intersections of conjugates of the subgroup the
immersion represents; downstream certification asks whether every simple
cycle in those components is monochrome.

A pair of vertices or of edges of the factor is one integer, whose order
is that of its id "u|v" or "e1|e2" (`_pair_axes`).  The product is counted
on the runs of the factor, and a mixed witness cycle is found in the one
component grown over those integers; names are spelled out only in the
returned witness and in the graphs `FiberProduct.component` and `graph`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import gcd
from operator import eq
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .multigraph import (
    ColoredGraph,
    Edge,
    StructureError,
    Walk,
    bfs_path,
    bfs_tree,
    edge_blocks,
    is_immersion,
    join,
    root,
)


class FiberInputError(ValueError):
    """The graph handed to fiber_product or oppressive_set is not an
    immersion, so the pullback would not represent subgroup intersections."""


def _pair(u: str, v: str) -> str:
    return f"{u}|{v}"


def _pair_axes(ids: Sequence[str]) -> tuple[dict, dict, Callable[[int], str]]:
    """The integer pair index over sorted ids: (row, col, name).

    The pair (x, y) has index row[x] + col[y], and name(index) is its id
    "x|y".  col[y] is the place of y among the ids, and row[x] is n times
    the place of x + "|" among the strings w + "|".  No id contains "|",
    so x1 + "|" and x2 + "|" first differ at a place inside both, where the
    ids "x1|y1" and "x2|y2" first differ too.  Pair indices therefore run
    in the order of the pair ids.  Ordering by the ids x alone would not:
    "a1|b" sorts before "a|b".
    """
    n = len(ids)
    rows = sorted(ids, key=lambda v: v + "|")
    row = {v: i * n for i, v in enumerate(rows)}
    col = {v: i for i, v in enumerate(ids)}

    def name(index: int) -> str:
        i, j = divmod(index, n)
        return _pair(rows[i], ids[j])

    return row, col, name


def _runs(Y: ColoredGraph, row: dict, col: dict) -> tuple[dict, list, dict]:
    """The runs of the immersion Y, as (place, branches, by_color).

    A vertex is interior when its star is one in-edge and one out-edge of
    one color, and a branch vertex otherwise.  A run is a path p0, ..., pa
    of one color whose inner vertices are interior and whose ends are
    branch vertices, possibly the same one.  A cycle of one color whose
    vertices are all interior is a whole component of Y; its first vertex
    counts as a branch vertex too, which cuts the cycle open into a run.
    So every edge lies on exactly one run, and every interior vertex
    inside exactly one.

    `branches` lists the branch vertices, `by_color` the runs of each
    color, and `place` maps each interior vertex pk to (color, rows, cols,
    k).  A run is [rows, cols, mins]: row[pk] and col[pk] for k = 0, ..., a,
    and the range minima of the keys row[pk] + k (see `_min_table`).
    """
    out_edge = {}
    for v in Y.vertices:
        star = Y.incident_ends(v)
        if len(star) == 2:
            (e, s), (f, t) = star
            if s != t and e.color == f.color:
                out_edge[v] = e if s > 0 else f
    place: dict[str, tuple] = {}
    branches = [v for v in Y.vertices if v not in out_edge]
    by_color: dict[str, list[list]] = {}

    def walk(e: Edge) -> None:
        rows, cols = [row[e.tail]], [col[e.tail]]
        run = [rows, cols, None]
        w = e.head
        while w in out_edge:
            place[w] = (e.color, rows, cols, len(rows))
            rows.append(row[w])
            cols.append(col[w])
            w = out_edge[w].head
        rows.append(row[w])
        cols.append(col[w])
        # a single edge has no inner vertex to take a minimum over
        if len(rows) > 2:
            run[2] = _min_table([r + k for k, r in enumerate(rows)])
        by_color.setdefault(e.color, []).append(run)

    for v in branches:
        for e, sign in Y.incident_ends(v):
            if sign > 0:
                walk(e)
    for v in Y.vertices:
        if v in out_edge and v not in place:
            branches.append(v)
            walk(out_edge.pop(v))
    return place, branches, by_color


def _min_table(keys: list[int]) -> list[list[int]]:
    """Range minima: level j holds the minimum of each 2**j consecutive
    keys, so min(keys[lo:hi + 1]) is the smaller of levels[j][lo] and
    levels[j][hi + 1 - 2**j] for the largest 2**j <= hi + 1 - lo."""
    levels = [keys]
    span = 1
    while 2 * span <= len(keys):
        below = levels[-1]
        levels.append(list(map(min, below, below[span:])))
        span *= 2
    return levels


@dataclass(frozen=True)
class FiberProduct:
    """The self fiber product of an immersion Y, counted per component.

    A vertex id "u|v" and an edge id "e1|e2" name the pair of vertices or
    edges of the factor Y, so the two projections are read off the ids.
    Components are ordered by smallest vertex id.  `smallest` holds that
    pair as an integer index, which runs in the order of the ids (see
    `_pair_axes`), and `classification`, `vertex_counts`, `edge_counts`
    and `fill_rank_ok` run in parallel with it.  `component_of(u, v)` is
    the component of the pair (u, v).  Each classification entry is one of
    "diagonal", "tree", or "cycle-bearing".  The diagonal pairs (v, v) form
    full components isomorphic to Y, since an edge leaving (v, v) pairs two
    edges of one color leaving v, which the immersion makes equal;
    `diagonal_components` lists them.  `fill_rank_ok` holds the verdicts
    of `fill_rank_check`, and `_axes` the factor's vertex pair axes, which
    `fiber_product` computed.

    Nothing else is held per pair: `component_of` looks a pair up through
    its runs (see `fiber_product`).  `graph`, `components`, `component(i)`
    and the R7 witness are built when read, from the pairs' `_ends`.
    """

    factor: ColoredGraph
    component_of: Callable[[str, str], int]
    smallest: tuple[int, ...]
    classification: tuple[str, ...]
    diagonal_components: tuple[int, ...]
    vertex_counts: tuple[int, ...]
    edge_counts: tuple[int, ...]
    fill_rank_ok: tuple[bool, ...]
    _axes: tuple[dict, dict, Callable[[int], str]] = field(
        compare=False, repr=False)

    def nontrivial_components(self) -> tuple[int, ...]:
        """Indices of off-diagonal components containing at least one cycle."""
        return tuple(
            i
            for i, kind in enumerate(self.classification)
            if kind == "cycle-bearing"
        )

    def rank(self, index: int) -> int:
        """The free rank |E| - |V| + 1 of the given component."""
        return self.edge_counts[index] - self.vertex_counts[index] + 1

    def branching_vertices(self, index: int) -> tuple[str, ...]:
        """Vertices of valence at least 3 in the given component."""
        return self._branching.get(index, ())

    @cached_property
    def _branching(self) -> dict[int, tuple[str, ...]]:
        # the valence of (u, v) is the number of (color, sign) ends u and v
        # share, so both coordinates of a branching pair have valence 3 or
        # more
        Y = self.factor
        row, col, _ = self._axes
        ends = self._stars[1]
        high = {v: ends[col[v]].keys() for v in Y.vertices if Y.valence(v) >= 3}
        out: dict[int, list[str]] = {}
        for _, u, v in sorted((row[u] + col[v], u, v) for u in high
                              for v in high if len(high[u] & high[v]) >= 3):
            out.setdefault(self.component_of(u, v), []).append(_pair(u, v))
        return {i: tuple(vs) for i, vs in out.items()}

    @cached_property
    def _edge_axes(self) -> tuple[dict, dict, Callable[[int], str]]:
        return _pair_axes([e.id for e in self.factor.edges])

    @cached_property
    def _stars(self) -> tuple[list[dict], list[dict]]:
        """Each vertex's edge-ends by (color, sign), which the immersion
        makes unique, as (edge row, far end's row) by the vertex's row
        place and as (edge column, far end's column) by its column place:
        a pair's ends are the keys its coordinates share."""
        Y = self.factor
        n = len(Y.vertices)
        row, col, _ = self._axes
        erow, ecol, _ = self._edge_axes
        by_row: list = [None] * n
        by_col: list = [None] * n
        for v in Y.vertices:
            rs, cs = {}, {}
            for e, sign in Y.incident_ends(v):
                far = e.head if sign > 0 else e.tail
                rs[e.color, sign] = (erow[e.id], row[far])
                cs[e.color, sign] = (ecol[e.id], col[far])
            by_row[row[v] // n] = rs
            by_col[col[v]] = cs
        return by_row, by_col

    def _ends(self, p: int) -> tuple[list, list]:
        """Pair index p's edge-ends, one per key its coordinates share in
        `_stars`: its neighbours as `bfs_tree` steps, and the edges it is
        the tail of as (edge pair, p, head pair, color)."""
        by_row, by_col = self._stars
        other = by_col[p % len(by_col)]
        steps, tails = [], []
        for key, (e1, r) in by_row[p // len(by_row)].items():
            if key in other:
                e2, c = other[key]
                steps.append((r + c, None))
                if key[1] > 0:
                    tails.append((e1 + e2, p, r + c, key[0]))
        return steps, tails

    @cached_property
    def graph(self) -> ColoredGraph:
        """The whole product as one graph, each edge read at its tail pair."""
        pairs = range(len(self.factor.vertices) ** 2)
        return self._graph(pairs, [e for p in pairs for e in self._ends(p)[1]])

    @cached_property
    def components(self) -> tuple[ColoredGraph, ...]:
        """Every component as a graph."""
        return tuple(map(self.component, range(len(self.classification))))

    def component(self, index: int) -> ColoredGraph:
        """The given component as a graph: the pairs and edges of `_grow`,
        the growth `monochrome_check` runs too, spelled out."""
        return self._graph(*self._grow(index))

    def _graph(self, pairs: Iterable[int], edges: list[tuple]) -> ColoredGraph:
        """Pair indices and edges as `_grow` lists them, as a graph with
        the ids "u|v" and "e1|e2"."""
        name, edge_name = self._axes[2], self._edge_axes[2]
        return ColoredGraph(map(name, pairs), [
            Edge(edge_name(e), name(tail), name(head), color)
            for e, tail, head, color in edges
        ])

    def _grow(self, index: int) -> tuple[list[int], list[tuple]]:
        """The given component over integer indices, grown by a search from
        its smallest pair: its pair indices in discovery order, and each
        edge as (edge index, tail pair, head pair, color), listed out from
        its tail pair when that is found."""
        edges: list[tuple] = []

        def step(p: int) -> list:
            steps, tails = self._ends(p)
            edges.extend(tails)
            return steps

        return list(bfs_tree(self.smallest[index], step)), edges


def fiber_product(Y: ColoredGraph) -> FiberProduct:
    """Pull the bouquet immersion Y back along itself.

    Vertices are all pairs (every vertex maps to the single bouquet
    vertex); edges are pairs of edges of one color.  The pairs are
    counted by the runs of Y (see `_runs`), with no string built:

    * a pair with a branch coordinate is a node of the library's
      union-find (`multigraph.root` and `join`) over integer pair
      indices, each class sized by the pairs it holds;
    * a pair of interior vertices of one color c has one edge in and one
      out, both of color c, so it lies inside one diagonal segment
      (r1[i + t], r2[j + t]) of two runs of color c, which leads from a
      node to a node.  Each segment is one union-find edge weighted by
      its length, and its smallest pair is read off the range minima of
      r1, whose inner vertices are distinct;
    * a pair of interior vertices of different colors has no edge, and is
      a "tree" component alone, as is each node no segment reaches.

    So the cost follows the nodes and the components, not |Y|^2.  The
    counts are checked to cover every pair of vertices and every pair of
    equally-colored edges exactly once.
    """
    if not is_immersion(Y):
        raise FiberInputError("fiber products require immersions")
    if any("|" in x for x in chain(Y.vertices, (e.id for e in Y.edges))):
        raise FiberInputError('pair ids join factor ids with "|", so no '
                              'vertex or edge id may contain it')

    axes = _pair_axes(Y.vertices)
    row, col, _ = axes
    n = len(Y.vertices)
    place, branches, by_color = _runs(Y, row, col)
    index: list[int] = []
    for b in branches:
        index.extend(range(row[b], row[b] + n))
    branch_cols = [col[b] for b in branches]
    index += [row[u] + c for u in place for c in branch_cols]
    node = dict(zip(index, range(len(index))))
    parent = list(range(len(index)))
    vertices = [1] * len(index)
    edges = [0] * len(index)
    low = index[:]

    def segment(rows: list[int], mins: list, cols: list[int], i: int,
                j: int, length: int) -> None:
        """Join the nodes at the ends of the segment of `length` edges that
        leaves (r1[i], r2[j]), given r1's rows and range minima and r2's
        columns, and count its inner pairs (r1[i + t], r2[j + t])."""
        a = root(parent, node[rows[i] + cols[j]])
        b = root(parent, node[rows[i + length] + cols[j + length]])
        if a != b:
            b, a = join(parent, vertices, a, b)
            edges[a] += edges[b]
            if low[b] < low[a]:
                low[a] = low[b]
        vertices[a] += length - 1
        edges[a] += length
        if length > 1:
            w = (length - 1).bit_length() - 1
            key = min(mins[w][i + 1], mins[w][i + length - (1 << w)])
            t = key % n
            key += cols[j + t - i] - t
            if key < low[a]:
                low[a] = key

    # every segment leaves a node (r1[0], r2[k]) or (r2[k], r1[0]) of two
    # runs of its color
    for runs in by_color.values():
        for rows1, cols1, mins1 in runs:
            a1 = len(rows1) - 1
            for rows2, cols2, mins2 in runs:
                a2 = len(rows2) - 1
                for k in range(a2):
                    length = a1 if a1 < a2 - k else a2 - k
                    segment(rows1, mins1, cols2, 0, k, length)
                    if k:
                        segment(rows2, mins2, cols1, k, 0, length)

    # the pairs of interior vertices of different colors
    inside: dict[str, tuple[list, list]] = {}
    for v, (c, _, _, _) in place.items():
        rows, cols = inside.setdefault(c, ([], []))
        rows.append(row[v])
        cols.append(col[v])
    trees = [r + x for c, (rows, _) in inside.items()
             for d, (_, cols) in inside.items() if d != c
             for r in rows for x in cols]
    joined = [k for k, p in enumerate(parent) if k == p and edges[k]]
    smallest = tuple(sorted(
        [p for p, k in node.items() if not edges[k] and parent[k] == k]
        + trees + [low[r] for r in joined]
    ))
    count = len(smallest)
    number = {r: bisect_left(smallest, low[r]) for r in joined}

    def component_of(u: str, v: str) -> int:
        pu, pv = place.get(u), place.get(v)
        if pu and pv:
            c, rows, _, i = pu
            d, _, cols, j = pv
            if c != d:
                return bisect_left(smallest, row[u] + col[v])
            # back along the segment to the node it leaves
            t = min(i, j)
            p = rows[i - t] + cols[j - t]
        else:
            p = row[u] + col[v]
        k = number.get(root(parent, node[p]))
        return bisect_left(smallest, p) if k is None else k

    vertex_counts = [1] * count
    edge_counts = [0] * count
    ranks = [0] * count  # a tree's rank is 0
    classification = ["tree"] * count
    for r, i in number.items():
        vertex_counts[i] = vertices[r]
        edge_counts[i] = edges[r]
        ranks[i] = edges[r] - vertices[r] + 1
        if edges[r] >= vertices[r]:
            classification[i] = "cycle-bearing"
    per_color: dict[str, int] = {}
    for e in Y.edges:
        per_color[e.color] = per_color.get(e.color, 0) + 1
    if (sum(vertex_counts) != n * n
            or sum(edge_counts) != sum(k * k for k in per_color.values())):
        raise AssertionError("fiber product components miss or repeat pairs")
    # (v, v) for v inside a run leaves (p0, p0) of that run
    diagonal = sorted({component_of(b, b) for b in branches})
    for i in diagonal:
        classification[i] = "diagonal"
    return FiberProduct(
        factor=Y,
        component_of=component_of,
        smallest=smallest,
        classification=tuple(classification),
        diagonal_components=tuple(diagonal),
        vertex_counts=tuple(vertex_counts),
        edge_counts=tuple(edge_counts),
        fill_rank_ok=fill_rank_check(Y, component_of, ranks),
        _axes=axes,
    )


@dataclass(frozen=True)
class MonochromeVerdict:
    """Whether every simple cycle off the diagonal uses a single color.

    When not, `witness` is a simple cycle using at least two colors, a walk
    on the graph of its own edges, whose vertices lie in the fiber
    product's component `witness_component`.
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
    count (see there), so every component that passes is skipped, and
    only the first one that fails is grown, over pair indices, numbered in
    their order, which is that of the ids.  Two distinct edges lie on a
    common simple cycle exactly when they share a biconnected block, so
    some block carries two colors; its least edge and its least edge of
    another color lie on a witness cycle, spelled out on its own edges.
    """
    for idx in fp.nontrivial_components():
        if fp.fill_rank_ok[idx]:
            continue
        pairs, edges = fp._grow(idx)
        pairs.sort()
        edges.sort()
        at = {p: k for k, p in enumerate(pairs)}
        ends = [(at[tail], at[head]) for _, tail, head, _ in edges]
        for block in edge_blocks(len(pairs), ends):
            first = edges[block[0]][3]
            others = [j for j in block if edges[j][3] != first]
            if not others:
                continue
            start, steps = _cycle_through(len(pairs), ends, block,
                                          block[0], others[0])
            cycle = [edges[j] for j, _ in steps]
            edge_name = fp._edge_axes[2]
            witness = Walk(
                fp._graph([p for _, tail, head, _ in cycle
                           for p in (tail, head)], cycle),
                fp._axes[2](pairs[start]),
                tuple((edge_name(edges[j][0]), sign) for j, sign in steps),
            )
            if not witness.is_simple_cycle():
                raise AssertionError("monochrome witness is not a simple cycle")
            return MonochromeVerdict(
                all_monochrome=False,
                witness=witness,
                witness_component=idx,
            )
        raise AssertionError("fill rank deficient without a mixed block")
    return MonochromeVerdict(all_monochrome=True)


def _cycle_through(
    n: int, ends: Sequence[tuple[int, int]], block: list[int], e1: int,
    e2: int
) -> tuple[int, list[tuple[int, int]]]:
    """A simple cycle of the block through both of the given edges, neither
    a loop, over vertex ids 0..n-1 and edges (tail, head) = ends[j]: its
    start and its (edge, +1 or -1) steps.

    One exists because any two edges of a biconnected block lie on a common
    simple cycle.  From v, the end of e1 that e2 shares (its tail if both
    or neither are), it runs e1, one path of a two-paths flow to an end of
    e2, e2, and the other path back to v, v alone when v is an end of e2.
    """
    t1, h1 = ends[e1]
    t2, h2 = ends[e2]
    v, x = (h1, t1) if h1 in (t2, h2) and t1 not in (t2, h2) else (t1, h1)
    usable = [j for j in block if j != e1 and j != e2]
    paths = _two_disjoint_paths(n, ends, usable, (v, x), (t2, h2))
    if paths is None:
        raise AssertionError("block not biconnected")
    sink, path = paths[x]
    return v, [(e1, +1 if v == t1 else -1), *path,
               (e2, +1 if sink == t2 else -1),
               *[(j, -sign) for j, sign in reversed(paths[v][1])]]


def _two_disjoint_paths(
    n: int,
    ends: Sequence[tuple[int, int]],
    usable: Sequence[int],
    sources: tuple[int, int],
    sinks: tuple[int, int],
) -> Optional[dict[int, tuple[int, list[tuple[int, int]]]]]:
    """Two vertex-disjoint paths joining the sources to the sinks, one each,
    over vertex ids 0..n-1 and the usable edges j, (tail, head) = ends[j].

    Unit-capacity max flow on the split digraph: every vertex and every
    usable edge becomes a capacity-one arc, i(v) -> o(v) and en(j) ->
    ex(j), edges usable in either direction.  Returns {source: (sink,
    steps)}, the steps as (edge, +1 or -1), or None when no two such paths
    exist.  Sources are distinct, and so are sinks.  A vertex v among both
    is its own path: S, i(v), o(v), T is a shortest augmenting path, after
    which i(v) leads only back to S and no residual arc enters o(v).

    The digraph is not built.  Its nodes are numbered S, T, then en, ex, i
    and o in blocks, each in id order, and a node's arcs are read off its
    type: en(j) and i(v) have one arc leaving, to ex(j) and o(v), and ex(j)
    and o(v) one arc entering, from en(j) and i(v), whose arcs leaving are
    listed in `leaving` for the block's own edges and vertices only.  So
    every node but S and T carries at most one unit, and one entry per
    node keeps the flow: prv[b] = a and nxt[a] = b for each used arc a ->
    b.  A residual step runs an unused arc, or a used one backwards, and
    each node's are tried in ascending node number.  No two arcs join the
    same nodes in opposite directions, so a step a -> b runs a used arc
    backwards exactly when prv[a] == b; every step of a path is judged
    before the flow changes.  Each path is read out by following nxt from
    o(source).
    """
    m = len(ends)
    S, T, EN, EX, I, O = 0, 1, 2, 2 + m, 2 + 2 * m, 2 + 2 * m + n
    leaving = {O + v: [T] * (v in sinks) for v in (*sources, *sinks)}
    for j in sorted(usable):
        a, b = sorted(ends[j])
        if a != b:
            leaving[EX + j] = [I + a, I + b]
            leaving.setdefault(O + a, []).append(EN + j)
            leaving.setdefault(O + b, []).append(EN + j)
    prv: dict[int, int] = {}
    nxt: dict[int, int] = {}

    def residual(x: int):
        if x == S:
            heads = [I + s for s in sorted(sources) if prv.get(I + s) != S]
        elif x < EX or I <= x < O:  # en(j) -> ex(j), i(v) -> o(v)
            heads = [prv[x] if x in prv else x + (m if x < EX else n)]
        elif x not in nxt:  # ex(j) or o(v) carrying nothing: every arc out
            heads = leaving[x]
        else:  # the unused arcs out, and back to en(j) first or i(v) last
            heads = [h for h in leaving[x] if h != nxt[x]]
            heads = [x - m, *heads] if x < I else [*heads, x - n]
        return zip(heads, heads)

    for _ in range(2):
        path = bfs_path(S, T, residual)
        if path is None:
            return None
        hops = list(zip([S] + path, path))
        back = [prv.get(a) == b for a, b in hops]
        for (a, b), undo in zip(hops, back):
            if undo:
                del prv[a], nxt[b]
        for (a, b), undo in zip(hops, back):
            if not undo:
                prv[b], nxt[a] = a, b

    out = {}
    for source in sources:
        trail = [O + source]
        while trail[-1] != T:
            trail.append(nxt[trail[-1]])
        # trail: o(source), then en(j), ex(j), i(v), o(v) per edge
        steps = []
        for o, en in zip(trail[::4], trail[1:-1:4]):
            j = en - EN
            steps.append((j, +1 if ends[j][0] == o - O else -1))
        out[source] = (trail[-2] - O, steps)
    return out


def fill_rank_check(
    Y: ColoredGraph,
    component: Callable[[str, str], int],
    ranks: Sequence[int],
) -> tuple[bool, ...]:
    """Per component of the self fiber product of the immersion Y, whether
    its simple monochrome cycles span its whole cycle space; for a
    connected graph, exactly when every simple cycle is monochrome.
    `component` maps a pair of vertices of Y to its component, and `ranks`
    holds the components' free ranks.

    The monochrome simple cycles are the simple cycles of the single-color
    subgraphs, which span those subgraphs' cycle spaces, so the span in
    question is the sum of the per-color cycle spaces.  Every edge has one
    color, so those spaces have disjoint supports and the sum is direct;
    its dimension is the sum of the per-color cycle ranks, and it is the
    whole cycle space exactly when that equals the free rank.

    If every simple cycle is monochrome the count holds, since simple
    cycles span the cycle space.  Conversely, if it holds, a simple cycle
    C is a sum of per-color cycles with disjoint supports, so the edges of
    C of one color form an even subgraph of C.  A proper nonempty edge set
    of a simple cycle has vertices of degree one, so each color takes all
    of C or none of it: C is monochrome.

    The per-color ranks are read off Y.  Since Y immerses, its edges of
    one color c form a partial injection s of its vertices, tail to head,
    and the product's edges of color c form s x s.  The components of a
    partial injection are paths and cycles, so its cycle rank is its
    number of cycles.  Cycles of s of lengths a and b, through u0 and
    through consecutive v0, v1, ..., give gcd(a, b) cycles of s x s, one
    through each (u0, vk) with k < gcd(a, b); every other pair lies on a
    path.
    """
    monochrome = [0] * len(ranks)
    steps: dict[str, dict[str, str]] = {}
    for e in Y.edges:
        steps.setdefault(e.color, {})[e.tail] = e.head
    for step in steps.values():
        cycles = _cycles(step)
        for a in cycles:
            for b in cycles:
                for v in b[: gcd(len(a), len(b))]:
                    monochrome[component(a[0], v)] += 1
    return tuple(map(eq, monochrome, ranks))


def _cycles(step: dict[str, str]) -> list[list[str]]:
    """The cycles of a partial injection, each as its vertices in order."""
    out = []
    seen: set[str] = set()
    for start in step:
        path = []
        v = start
        while v in step and v not in seen:
            seen.add(v)
            path.append(v)
            v = step[v]
        # no vertex has two preimages, so a walk can only close at its start
        if path and v == start:
            out.append(path)
    return out


Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class OppressiveWords(Sequence[Word]):
    """A read-only sequence of words, each kept as a string over the sorted
    step alphabet `steps`: chr(k) stands for `steps[k]`, so keys sort as
    their words do, and `self[i]` decodes the i-th key into its word.
    Every key is nonempty and spells only steps of the alphabet, or
    ValueError is raised."""

    steps: tuple[tuple[str, int], ...]
    keys: tuple[str, ...]

    def __post_init__(self) -> None:
        if "" in self.keys:
            raise ValueError("an oppressive word is empty")
        alphabet = dict.fromkeys(range(len(self.steps)))
        if "".join(self.keys).translate(alphabet):
            raise ValueError("an oppressive word has a letter outside its "
                             "step alphabet")

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i: int) -> Word:  # type: ignore[override]
        return tuple([self.steps[ord(c)] for c in self.keys[i]])


def oppressive_set(Y: ColoredGraph, y0: str) -> OppressiveWords:
    """The oppressive words of an immersion at a basepoint, sorted by
    length and then by letters, as `OppressiveWords` over the steps
    (color, -1) and (color, +1) of every color of Y.

    A word is the color sequence of mu1 followed by mu2, where mu1 is a
    nontrivial simple path from y0 ending at some y1 != y0, and mu2 is
    either empty or a simple path into y0 from some y2 with y2 != y1 and
    y2 != y0.  Reading any such word from y0 can never trace back to y0,
    because forward and backward lifts through an immersion are unique.
    The set is empty exactly when no nontrivial simple path leaves y0,
    which for a connected Y means Y embeds in the bouquet.

    Each mu2 is a simple path from y0 read backwards, so its word is the
    inverse of that path's word, and each path's word is read once.
    Simple paths are enumerated exhaustively, so this is intended for
    small graphs.
    """
    if not is_immersion(Y):
        raise FiberInputError("oppressive sets require an immersion")
    if y0 not in Y.vertices:
        raise StructureError(f"basepoint {y0!r} not in the graph")

    steps = tuple((c, sign) for c in sorted({e.color for e in Y.edges})
                  for sign in (-1, 1))
    letter = {step: chr(k) for k, step in enumerate(steps)}
    paths = []
    inverses: dict[str, list[str]] = {}
    for end, word in _simple_paths_from(Y, y0):
        paths.append((end, "".join([letter[step] for step in word])))
        inverses.setdefault(end, []).append(
            "".join([letter[c, -sign] for c, sign in reversed(word)]))
    keys = set()
    for y1, key in paths:
        keys.add(key)
        for y2, tails in inverses.items():
            if y2 != y1:
                keys.update([key + tail for tail in tails])
    # sorted by letters, then stably by length
    return OppressiveWords(steps, tuple(sorted(sorted(keys), key=len)))


def _simple_paths_from(
    g: ColoredGraph, y0: str
) -> Iterator[tuple[str, Word]]:
    """(end, word) of every nontrivial simple path starting at y0, in
    search order; the search runs on an explicit stack, so long paths do
    not recurse."""

    word: list[tuple[str, int]] = []
    visited = {y0}
    stack = [(y0, iter(g.incident_ends(y0)))]
    while stack:
        at, untried = stack[-1]
        for e, _ in untried:
            w = e.head if e.tail == at else e.tail
            if w not in visited:
                word.append((e.color, +1 if e.tail == at else -1))
                visited.add(w)
                yield w, tuple(word)
                stack.append((w, iter(g.incident_ends(w))))
                break
        else:
            stack.pop()
            if stack:
                visited.discard(at)
                word.pop()
