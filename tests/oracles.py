"""Brute-force reference implementations the test-suite checks against.

Everything here trades speed for obviousness: exhaustive enumeration and
linear algebra done the long way, so that disagreement with the library
points at the library.
"""

import itertools

from artinsplit import (
    ColoredGraph,
    DefiningGraph,
    Walk,
    free_rank,
    is_admissible,
)


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


def on_common_simple_cycle(g: ColoredGraph, eid1: str, eid2: str) -> bool:
    """Whether two distinct edges lie on one simple cycle (same block)."""
    for w in all_simple_cycles(g):
        ids = {eid for eid, _ in w.steps}
        if eid1 in ids and eid2 in ids:
            return True
    return False


def first_admissible_orientation(g: DefiningGraph):
    """Reference for find_admissible_orientation: the first admissible
    orientation in search order, or None.

    Every orientation of the label >= 3 edges, sorted by (label, endpoints),
    is tried in `itertools.product` order with tail u before tail v.
    """
    orientable = sorted(
        (e for e in g.edges if e.label >= 3), key=lambda e: (e.label, e.key)
    )
    for tails in itertools.product(*((e.u, e.v) for e in orientable)):
        iota = {e.key: t for e, t in zip(orientable, tails)}
        if is_admissible(g.with_orientation(iota)).admissible:
            return iota
    return None
