"""Seeded random instance generators shared across the test-suite."""

import json
import random

from artinsplit import (
    ColoredGraph,
    DefiningGraph,
    Edge,
    SearchSpaceError,
    connected_components,
    find_admissible_orientation,
    is_admissible,
)

# the first seven names are the ones small graphs have always drawn
VERTEX_POOL = tuple("abcdefghijkl")

LABELS = (2, 3, 3, 4, 4, 5, 6, 7, 8)  # small labels slightly favoured


def ring(labels, tails=None) -> DefiningGraph:
    """The cycle a-b, b-c, ..., a-z on one vertex per label, z the last;
    by default the i-th edge has the i-th vertex as its tail, which
    directs the cycle a -> b -> ... -> z -> a."""
    names = VERTEX_POOL[: len(labels)]
    pairs = list(zip(names, names[1:])) + [(names[0], names[-1])]
    return DefiningGraph.build(names, [
        (u, v, label, tail)
        for (u, v), label, tail in zip(pairs, labels, tails or names)])


def triangle(labels=(3, 3, 3), tails=("a", "b", "c")) -> DefiningGraph:
    """The triangle a-b, b-c, a-c, by default directed a -> b -> c -> a."""
    return ring(labels, tails)


def random_defining_graph(
    rng: random.Random,
    max_vertices: int = 7,
    max_extra_edges: int = 4,
    connected: bool = True,
    labels: tuple[int, ...] = LABELS,
) -> DefiningGraph:
    """A random simple labelled graph without orientation, its labels
    drawn from `labels`.

    Connected variants get a random spanning tree plus a few extra edges,
    which keeps the cycle count low enough for the exhaustive oracles.
    """
    n = rng.randint(2, max_vertices)
    names = list(VERTEX_POOL[:n])
    chosen: list[tuple[str, str]] = []
    if connected:
        order = names[:]
        rng.shuffle(order)
        for i in range(1, n):
            p = order[rng.randrange(i)]
            chosen.append(tuple(sorted((order[i], p))))
    pool = [
        (u, v)
        for i, u in enumerate(names)
        for v in names[i + 1 :]
        if (u, v) not in set(chosen)
    ]
    rng.shuffle(pool)
    chosen.extend(pool[: rng.randint(0, max_extra_edges)])
    rows = [(u, v, rng.choice(labels), None) for u, v in chosen]
    return DefiningGraph.build(names, rows)


def with_random_orientation(rng: random.Random, g: DefiningGraph) -> DefiningGraph:
    rows = []
    for e in g.edges:
        iota = rng.choice((e.u, e.v)) if e.label >= 3 else None
        rows.append((e.u, e.v, e.label, iota))
    return DefiningGraph.build(g.vertices, rows)


def glued_cycle_blocks(
    rng: random.Random, labels: tuple[int, ...] = LABELS
) -> DefiningGraph:
    """2 to 4 cycles of 3 to 5 vertices, some with a chord, each after the
    first glued at one vertex to an earlier cycle, sometimes with a pendant
    bridge; labels drawn from `labels`, no orientation."""
    vertices: list[str] = []
    pairs: list[tuple[str, str]] = []
    for _ in range(rng.randint(2, 4)):
        glue = [rng.choice(vertices)] if vertices else []
        ring = glue + [
            f"v{len(vertices) + i}" for i in range(rng.randint(3, 5) - len(glue))
        ]
        vertices += ring[len(glue):]
        pairs += list(zip(ring, ring[1:] + ring[:1]))
        if len(ring) >= 4 and rng.random() < 0.5:
            pairs.append((ring[0], ring[2]))
    if rng.random() < 0.3:
        pairs.append((rng.choice(vertices), f"v{len(vertices)}"))
        vertices.append(pairs[-1][1])
    return DefiningGraph.build(
        vertices, [(u, v, rng.choice(labels), None) for u, v in pairs]
    )


def directed_cactus(rng: random.Random) -> DefiningGraph:
    """1 to 6 cycles of 3 to 6 vertices, each directed and glued at one
    vertex to what came before, and 0 to 3 pendant bridges oriented either
    way; labels 3 to 9."""
    vertices: list[str] = []
    rows = []
    for _ in range(rng.randint(1, 6)):
        glue = [rng.choice(vertices)] if vertices else []
        cycle = glue + [
            f"v{len(vertices) + i}" for i in range(rng.randint(3, 6) - len(glue))
        ]
        vertices += cycle[len(glue):]
        rows += [(u, v, rng.randint(3, 9), u)
                 for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    for _ in range(rng.randint(0, 3)):
        u, v = rng.choice(vertices), f"v{len(vertices)}"
        vertices.append(v)
        rows.append((u, v, rng.randint(3, 9), rng.choice((u, v))))
    return DefiningGraph.build(vertices, rows)


def square_chain(labels: list[int]) -> DefiningGraph:
    """4-cycles in a row, each joined by a bridge to the next one and the
    last to a K4; no orientation.  `labels` labels the edges in order,
    each square's four and then its bridge, then the K4's six, so 5k + 6
    labels give k squares."""
    squares, rest = divmod(len(labels) - 6, 5)
    if rest or squares < 0:
        raise ValueError("a square chain takes 5k + 6 labels")
    pairs = []
    for s in range(squares):
        a, b, c, d, nxt = (f"v{4 * s + i}" for i in range(5))
        pairs += [(a, b), (b, c), (c, d), (d, a), (c, nxt)]
    k4 = [f"v{4 * squares + i}" for i in range(4)]
    pairs += [(u, v) for i, u in enumerate(k4) for v in k4[i + 1:]]
    return DefiningGraph.build(
        sorted({v for p in pairs for v in p}),
        [(u, v, label, None) for (u, v), label in zip(pairs, labels)],
    )


def random_admissible_graph(rng: random.Random, **kwargs) -> DefiningGraph:
    """A connected graph together with an admissible orientation.

    Tries a handful of random orientations before falling back to the
    backtracking search; graphs admitting none are thrown away.
    """
    while True:
        g = random_defining_graph(rng, connected=True, **kwargs)
        for _ in range(6):
            candidate = with_random_orientation(rng, g)
            if is_admissible(candidate).admissible:
                return candidate
        try:
            assignment = find_admissible_orientation(g)
        except SearchSpaceError:
            continue
        if assignment is not None:
            return g.with_orientation(assignment)


COLORS = ("a", "b", "c")


def random_bouquet_immersion(
    rng: random.Random,
    max_vertices: int = 6,
    colors: tuple[str, ...] = COLORS,
    keep: float = 0.6,
) -> ColoredGraph:
    """A connected graph immersing into the bouquet on `colors`.

    Per color the edges form a partial injection on the vertices, which is
    exactly the local injectivity an immersion needs.  The component of the
    vertex y0 is returned.
    """
    n = rng.randint(1, max_vertices)
    vs = [f"y{i}" for i in range(n)]
    edges = []
    for c in colors:
        targets = vs[:]
        rng.shuffle(targets)
        for v, w in zip(vs, targets):
            if rng.random() < keep:
                edges.append(Edge(f"e:{c}:{v}", v, w, c))
    whole = ColoredGraph(vs, edges)
    return next(
        c for c in connected_components(whole) if "y0" in set(c.vertices)
    )


def subdivided_bouquet_immersion(
    rng: random.Random, max_run: int = 15, **kwargs
) -> ColoredGraph:
    """A `random_bouquet_immersion` with each edge e cut into a run of 1 to
    `max_run` edges of its color.  The pieces are numbered e:1, e:2, ...,
    and so are the inner vertices, so the ids of one run are prefixes of
    one another (e:1 and e:10).  Most runs of a color share one length,
    which keeps the mixed cycles of the product whole."""
    Y = random_bouquet_immersion(rng, **kwargs)
    length = {e.color: rng.randint(1, max_run) for e in Y.edges}
    vertices = list(Y.vertices)
    edges = []
    for e in Y.edges:
        k = length[e.color] if rng.random() < 0.75 else rng.randint(1, max_run)
        path = [e.tail] + [f"{e.id}:{i}" for i in range(1, k)] + [e.head]
        vertices += path[1:-1]
        edges += [
            Edge(f"{e.id}:{i}", a, b, e.color)
            for i, (a, b) in enumerate(zip(path, path[1:]), 1)
        ]
    return ColoredGraph(vertices, edges)


def random_colored_graph(
    rng: random.Random,
    max_vertices: int = 7,
    max_edges: int = 10,
    colors: tuple[str, ...] = COLORS,
    connected: bool = True,
) -> ColoredGraph:
    """A small random multigraph (loops and parallels allowed)."""
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(rng.randint(0, max_edges)):
        edges.append(
            Edge(
                f"e{i}",
                rng.choice(vs),
                rng.choice(vs),
                rng.choice(colors),
            )
        )
    g = ColoredGraph(vs, edges)
    if connected:
        comps = connected_components(g)
        g = comps[rng.randrange(len(comps))]
    return g


FUZZ_COMMANDS = [["check"], ["orient"], ["split"], ["fiber"], ["certify"]] + [
    ["export", "--graph", graph]
    for graph in ("input", "X0", "Xhalf", "Xquarter", "Xbar", "fiber")
]
ODD_VALUES = (None, True, 0, 1, -4, 2.5, "", "v0", "zz", [], {}, ["v0"])


def fuzz_graph(rng, top_label=9):
    """A random defining graph on up to 5 vertices, labels 2 to top_label,
    with some of the edges of label 3 or more left unoriented, as the JSON
    object the CLI reads."""
    names = [f"v{i}" for i in range(rng.randint(0, 5))]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    edges = []
    for u, v in rng.sample(pairs, rng.randint(0, min(len(pairs), 7))):
        edge = {"u": u, "v": v, "label": rng.randint(2, top_label)}
        if edge["label"] >= 3 and rng.random() < 0.9:
            edge["iota"] = rng.choice((u, v))
        edges.append(edge)
    return {"vertices": names, "edges": edges}


def malformed(rng, graph):
    """The graph's JSON truncated, with one character changed, or with one
    field removed, added or given a value of the wrong kind."""
    text = json.dumps(graph)
    kind = rng.randrange(3)
    if kind == 0:
        return text[: rng.randrange(len(text))]
    if kind == 1:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice('{}[],:"x0- ') + text[i + 1:]
    target = rng.choice([graph] + graph["edges"])
    key = rng.choice(list(target) + ["extra"])
    if rng.random() < 0.3:
        target.pop(key, None)
    else:
        target[key] = rng.choice(ODD_VALUES)
    return json.dumps(graph)


def fuzz_rounds(rng, top_label=9):
    """150 rounds of CLI fuzz: (round, texts, argvs).  The texts are a
    `fuzz_graph` and a `malformed` one; the argvs run every subcommand and
    export graph in every format, and `fiber --oppressive` on graphs of up
    to 3 vertices, since it enumerates every simple path of Xbar."""
    for round_ in range(150):
        graph = fuzz_graph(rng, top_label)
        texts = [json.dumps(graph), malformed(rng, fuzz_graph(rng, top_label))]
        commands = FUZZ_COMMANDS[:]
        if len(graph["vertices"]) <= 3:
            commands.append(["fiber", "--oppressive"])
            commands.append(["fiber", "--oppressive", "--basepoint",
                             rng.choice(("v0+", "v0+/v1-", "zz"))])
        yield round_, texts, [
            command + ["--format", fmt] for command in commands
            for fmt in ["json", "text"] + (["dot"] if command[0] == "export" else [])]
