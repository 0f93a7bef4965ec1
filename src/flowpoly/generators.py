"""Built-in DAG families and random instance generators.

Edge numbering conventions matter here: the id-ascending framing (see
framing.named_framing) reproduces the standard framing of each family
because generators emit "long" edges before "short" ones where it counts.
"""

from __future__ import annotations

import random

from .dag import Dag, VertexId, idle_edges, is_valid


def caracol(n: int) -> Dag:
    """Caracol graph on n vertices.

    Source 1 fans out to 2..n-1, the inner path runs 2 -> 3 -> ... -> n-1,
    and 2..n-1 fan into the sink n.  Sink-fan edges get the smallest ids,
    then the source fan, then the inner path, so that the id-ascending
    framing is the length framing (long edges first at every port).
    """
    if n < 4:
        raise ValueError("caracol needs n >= 4")
    edges = []
    eid = 0
    for v in range(2, n):  # sink fan
        edges.append((eid, v, n))
        eid += 1
    for v in range(2, n):  # source fan
        edges.append((eid, 1, v))
        eid += 1
    for v in range(2, n - 1):  # inner path
        edges.append((eid, v, v + 1))
        eid += 1
    return Dag.build(range(1, n + 1), edges)


def caracol_core(n: int) -> Dag:
    """The doubled-fan core on n-2 vertices.

    This is the inner part of the caracol picture after merging the source
    into vertex 2 and the sink into vertex n-1: source 1 fans to every
    inner vertex with the first fan edge doubled, inner path, fan into the
    sink with the last fan edge doubled.  Unlike the full contraction of
    caracol(n) it has no direct source-to-sink edges.
    """
    m = n - 2
    if m < 4:
        raise ValueError("caracol_core needs n >= 6")
    edges = []
    eid = 0
    for v in range(2, m):  # arcs into the sink m; (m-1, m) doubled by the path below
        edges.append((eid, v, m))
        eid += 1
    for v in range(2, m):  # arcs out of the source 1; (1, 2) doubled by the path
        edges.append((eid, 1, v))
        eid += 1
    for v in range(1, m):  # the straight path 1 -> 2 -> ... -> m
        edges.append((eid, v, v + 1))
        eid += 1
    return Dag.build(range(1, m + 1), edges)


def gkn(k: int, n_plus_1: int) -> Dag:
    """Vertex set 1..n+1 with edges (i, i+1) and (i, i+k).

    Path edges are numbered first so the id-ascending framing puts the
    short step before the long step at every port.
    """
    n = n_plus_1 - 1
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    edges = []
    eid = 0
    for i in range(1, n + 1):
        edges.append((eid, i, i + 1))
        eid += 1
    for i in range(1, n - k + 2):
        edges.append((eid, i, i + k))
        eid += 1
    return Dag.build(range(1, n + 2), edges)


def random_full_dag(
    rng: random.Random,
    n_inner: int,
    n_sources: int = 1,
    n_sinks: int = 1,
) -> Dag:
    """Random full DAG: every inner vertex gets in-degree 2 and out-degree 2.

    Inner vertices are created in topological order; each picks two tails
    among the sources and earlier inner vertices with spare out-capacity,
    and leftover inner out-capacity is closed off into random sinks.
    """
    sources = list(range(1, n_sources + 1))
    inner = list(range(n_sources + 1, n_sources + n_inner + 1))
    sinks = list(range(n_sources + n_inner + 1, n_sources + n_inner + n_sinks + 1))
    cap = {v: 2 for v in inner}
    edges: list[tuple[int, VertexId, VertexId]] = []
    eid = 0
    for v in inner:
        pool = sources + [u for u in inner if u < v and cap[u] > 0]
        for _ in range(2):
            t = rng.choice(pool)
            if t in cap:
                cap[t] -= 1
                if cap[t] == 0:
                    pool = [u for u in pool if u != t]
            edges.append((eid, t, v))
            eid += 1
    for v in inner:
        for _ in range(cap[v]):
            edges.append((eid, v, rng.choice(sinks)))
            eid += 1
    for s in sources:  # no isolated sources: give them a direct edge to a sink
        if not any(t == s for _, t, _ in edges):
            edges.append((eid, s, rng.choice(sinks)))
            eid += 1
    used = {t for _, t, _ in edges} | {h for _, _, h in edges}
    return Dag.build([v for v in sources + inner + sinks if v in used], edges)


def random_idle_expansion(rng: random.Random, g: Dag) -> Dag:
    """Split one vertex into an idle edge v -> new_v, growing a valid DAG.

    Two modes: the new edge becomes the unique out-edge of v (new_v takes
    all old out-edges plus a share of the in-edges), or the unique in-edge
    of new_v (new_v takes a nonempty share of the out-edges).
    """
    v = rng.choice(g.vertices)
    new_v = max(g.vertices) + 1
    new_e = max(g.edge_ids) + 1 if g.edges else 0
    ins = sorted(g.in_edges[v])
    outs = sorted(g.out_edges[v])
    moved: dict[int, str] = {}
    if rng.random() < 0.5:
        # v keeps a nonempty share of in-edges, out(v) becomes {new edge}
        if ins:
            k = rng.randrange(1, len(ins) + 1)
            rng.shuffle(ins)
            moved.update({e: "head" for e in ins[k:]})
        moved.update({e: "tail" for e in outs})
    else:
        # new_v takes a nonempty share of out-edges, in(new_v) = {new edge}
        if outs:
            k = rng.randrange(1, len(outs) + 1)
            rng.shuffle(outs)
            moved.update({e: "tail" for e in outs[:k]})
    edges = []
    for e, t, h in g.edges:
        if e in moved:
            edges.append((e, new_v, h) if moved[e] == "tail" else (e, t, new_v))
        else:
            edges.append((e, t, h))
    edges.append((new_e, v, new_v))
    return Dag.build(tuple(g.vertices) + (new_v,), edges)


def random_valid_dag(rng: random.Random, n_inner: int, expansions: int = 2, **kw) -> Dag:
    """Random valid DAG: idle expansions applied to a random full DAG.

    Only expansions that add exactly one idle edge are kept.  Splitting a
    source or sink between parallel edges can silently turn other edges
    idle and close an undirected cycle of idle edges; such graphs are still
    valid but fall outside the counting formula's hypotheses.
    """
    g = random_full_dag(rng, n_inner, **kw)
    for _ in range(expansions):
        for _attempt in range(8):
            g2 = random_idle_expansion(rng, g)
            new_edge = max(g2.edge_ids)
            if is_valid(g2) and idle_edges(g2) == idle_edges(g) | {new_edge}:
                g = g2
                break
    return g


GENERATORS = {
    "car": (caracol, 1),
    "carcore": (caracol_core, 1),
    "gkn": (gkn, 2),
}


def generate(name: str, args: list[int]) -> Dag:
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; choose from {sorted(GENERATORS)}")
    fn, arity = GENERATORS[name]
    if len(args) != arity:
        raise ValueError(f"generator {name} takes {arity} integer argument(s)")
    return fn(*args)
