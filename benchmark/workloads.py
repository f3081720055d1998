"""Seeded inputs for the three benchmark workloads.

Every generator takes the workload seed and returns a list of `Op`s, the
operations one pass of the timed loop runs in order.  The library sees only
these generated inputs.  Why each workload looks the way it does is set out
in README.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

DEFAULT_SEED = 0

# labels: per rung one tri(m,4,4) with m odd and one tri(m,4,5), and cycles
# C_n of every length in CYCLE_LENGTHS.  The graphs are drawn once, from a
# constant seed, and are the same in every run; the seed orders the pass.
# Moving the labels with the seed moved the median and 90th percentile
# latency by a tenth between seeds, and so did drawing the vertex names,
# where each label sits and the direction round the cycle from the seed:
# the same rung then cost up to a fifth more on one seed than on another.
# The rungs are dense so that neighbouring latencies, and with them the
# percentiles, lie close together.
LABELS_GRAPHS_SEED = 0
LABEL_RUNGS = (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 19, 21, 23, 25, 28,
               31, 34, 37, 41, 45, 50, 55, 61, 67, 74, 81, 89, 98, 107, 114,
               121)
CYCLE_LENGTHS = (5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 24, 27, 30,
                 33)
NAME_POOL = "abcdefghjkmnpqrstuvwxyz"

# search: one fixed set of graphs; the seed only orders the pass.  The
# orientation search has a heavy tail, so the mean cost of a fresh seeded
# draw of a few hundred graphs differs by about a fifth between seeds
# (interquartile range over median), more than any bound could absorb;
# with the set fixed, the same slow graphs are in every run.
SEARCH_GRAPHS_SEED = 2006
SEARCH_GRAPHS = 256
SEARCH_LABELS = (2, 3, 3, 4, 4, 5, 5, 6)

# cli: tiny graphs with random orientations, so more than half are refused.
# The triangles, the only graphs `fiber --oppressive` runs on, are the same
# on every seed: every label multiset over CLI_TRIANGLE_LABELS, once oriented
# head to tail and once at random.  oppressive_set's time and memory vary
# many-fold from one triangle to the next, so a seeded draw moved the peak
# RSS by a fifth between seeds.  The larger graphs are drawn from the seed.
CLI_TRIANGLES_SEED = 2006
CLI_TRIANGLE_LABELS = (2, 3, 4, 5, 6)
CLI_GRAPHS_PER_SIZE = 50
CLI_SIZES = (4, 5, 6)
CLI_LABELS = (2, 3, 3, 4, 4, 5, 6)


@dataclass(frozen=True)
class Op:
    """One operation: `certify(graph).to_json()` or `cli.main(argv)` with
    `text` on stdin.  `graph` is the input as a JSON object in both cases;
    `expect_rule` is the certificate rule the mathematics predicts, when
    the workload fixes it."""

    kind: str  # "certify" | "cli"
    graph: dict
    argv: tuple[str, ...] = ()
    expect_rule: Optional[str] = None

    @cached_property
    def text(self) -> str:
        return json.dumps(self.graph, sort_keys=True)

    @cached_property
    def key(self) -> str:
        """Stable id of the input, under which its output digest is kept."""
        return digest(json.dumps([self.kind, list(self.argv), self.text]))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def to_defining_graph(lib, graph: dict):
    rows = [(e["u"], e["v"], e["label"], e.get("iota")) for e in graph["edges"]]
    return lib.DefiningGraph.build(graph["vertices"], rows)


def _edge(u: str, v: str, label: int, tail: Optional[str]) -> dict:
    e: dict = {"u": u, "v": v, "label": label}
    if tail is not None:
        e["iota"] = tail
    return e


def _cyclic(names: list[str], labels: list[int], rng: random.Random) -> dict:
    """A cycle through `names` with its edges of label 3 or more oriented
    head to tail all the way round, in a seeded direction.  With no label 2,
    that orientation of a cycle is admissible."""
    if rng.random() < 0.5:
        names = names[::-1]
        labels = labels[::-1]
    n = len(names)
    edges = [
        _edge(names[i], names[(i + 1) % n], labels[i],
              names[i] if labels[i] >= 3 else None)
        for i in range(n)
    ]
    return {"vertices": sorted(names), "edges": edges}


def labels_ops(seed: int) -> list[Op]:
    rng = random.Random(LABELS_GRAPHS_SEED)
    ops = []
    for rung in LABEL_RUNGS:
        for m, others, rule in ((rung | 1, [4, 4], "R7"),
                                 (rung, [4, 5], "R4")):
            labels = [m] + others
            rng.shuffle(labels)
            names = rng.sample(NAME_POOL, 3)
            ops.append(Op("certify", _cyclic(names, labels, rng),
                          expect_rule=rule))
    for n in CYCLE_LENGTHS:
        names = [f"{rng.choice(NAME_POOL)}{i}" for i in range(n)]
        ops.append(Op("certify", _cyclic(names, [4] * n, rng),
                      expect_rule="R6"))
    # in seeded order, so that the operations of nearly equal cost that
    # decide a percentile are spread over the pass; run back to back, as
    # ascending rungs, they caught the machine's speed in one short window
    random.Random(seed).shuffle(ops)
    return ops


def _random_sparse(rng: random.Random, n: int, extra: int,
                   labels: tuple[int, ...], orient: bool) -> dict:
    """A random spanning tree on v0..v{n-1} plus `extra` random chords."""
    names = [f"v{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    pairs = {tuple(sorted((order[i], order[rng.randrange(i)])))
             for i in range(1, n)}
    chords = sorted({tuple(sorted((u, v))) for u in names for v in names
                     if u != v} - pairs)
    rng.shuffle(chords)
    pairs.update(chords[:extra])
    edges = []
    for u, v in sorted(pairs):
        label = rng.choice(labels)
        tail = rng.choice((u, v)) if orient and label >= 3 else None
        edges.append(_edge(u, v, label, tail))
    return {"vertices": names, "edges": edges}


def search_ops(seed: int) -> list[Op]:
    make = random.Random(SEARCH_GRAPHS_SEED)
    ops = []
    for _ in range(SEARCH_GRAPHS):
        n = make.randint(8, 14)
        graph = _random_sparse(make, n, make.randint(1, n // 2 + 1),
                               SEARCH_LABELS, orient=False)
        ops.append(Op("certify", graph))
    random.Random(seed).shuffle(ops)
    return ops


def cli_triangles() -> list[dict]:
    make = random.Random(CLI_TRIANGLES_SEED)
    names = ["v0", "v1", "v2"]
    out = []
    for labels in itertools.combinations_with_replacement(CLI_TRIANGLE_LABELS, 3):
        labels = list(labels)
        make.shuffle(labels)
        out.append(_cyclic(names, labels, make))
        edges = [_edge(u, v, label, make.choice((u, v)) if label >= 3 else None)
                 for (u, v), label in zip((("v0", "v1"), ("v1", "v2"),
                                           ("v0", "v2")), labels)]
        out.append({"vertices": names, "edges": edges})
    return out


def cli_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    graphs = cli_triangles() + [
        _random_sparse(rng, n, rng.randint(0, 2), CLI_LABELS, orient=True)
        for _ in range(CLI_GRAPHS_PER_SIZE) for n in CLI_SIZES
    ]
    rng.shuffle(graphs)
    ops = []
    for graph in graphs:
        commands = [("check",), ("split",), ("fiber",)]
        if len(graph["vertices"]) == 3:
            # oppressive_set enumerates every simple path of Xbar, which on
            # larger graphs can run for seconds; see README.md
            commands.append(("fiber", "--oppressive"))
        commands += [("certify",), ("export", "--graph", "fiber")]
        for cmd in commands:
            argv = (cmd[0], "--input", "-", "--format", "json") + cmd[1:]
            ops.append(Op("cli", graph, argv=argv))
    return ops


WORKLOADS = {"labels": labels_ops, "search": search_ops, "cli": cli_ops}
