"""Framings of DAGs: path orders, coherence, exceptional routes, ampleness.

A framing is a pair of linear orders (on the in-edges and the out-edges) at
every inner vertex.  It induces a total order on the maximal paths into and
out of each vertex; two routes conflict at a shared inner vertex when those
orders disagree, and the coherence relation this defines drives every
later stage (cliques, the triangulation, the poset).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .dag import (
    ContractionTrace, Dag, EdgeId, Route, VertexId, complete_contraction, enumerate_routes, find, idle_edges, is_full,
)
from .errors import ConsistencyError, FramingError, NotFullError


@dataclass(frozen=True)
class Framing:
    """Linear orders on the in- and out-edges of each inner vertex."""

    in_order: dict[VertexId, tuple[EdgeId, ...]]
    out_order: dict[VertexId, tuple[EdgeId, ...]]

    def key(self):
        """Hashable canonical form, for set comparisons of framings."""
        return (
            tuple(sorted(self.in_order.items())),
            tuple(sorted(self.out_order.items())),
        )


def validate_framing(g: Dag, f: Framing) -> None:
    if set(f.in_order) != set(g.inner) or set(f.out_order) != set(g.inner):
        raise FramingError("framing must order exactly the inner vertices")
    for v in g.inner:
        if tuple(sorted(f.in_order[v])) != g.in_edges[v]:
            raise FramingError(f"in_order at {v} is not a permutation of in-edges")
        if tuple(sorted(f.out_order[v])) != g.out_edges[v]:
            raise FramingError(f"out_order at {v} is not a permutation of out-edges")


def framing_by_edge_id(g: Dag) -> Framing:
    """Ascending edge ids at every port.

    With the generator numbering conventions this is the length framing on
    the caracol family and the standard framing on the gkn family.
    """
    return Framing(
        {v: g.in_edges[v] for v in g.inner},
        {v: g.out_edges[v] for v in g.inner},
    )


NAMED_FRAMINGS = ("by-id", "length", "paper-g27")


def named_framing(g: Dag, name: str) -> Framing:
    if name in NAMED_FRAMINGS:
        return framing_by_edge_id(g)
    raise FramingError(f"unknown framing name {name!r}; choose from {NAMED_FRAMINGS}")


def framing_to_json(f: Framing) -> str:
    return json.dumps(
        {
            "in_order": {str(v): list(o) for v, o in sorted(f.in_order.items())},
            "out_order": {str(v): list(o) for v, o in sorted(f.out_order.items())},
        }
    )


def framing_from_json(g: Dag, text: str) -> Framing:
    """The framing of g written by `framing_to_json`: each key is `str(v)`
    for an inner vertex v of g, each order a list of int edge ids."""
    try:
        data = json.loads(text)
        sides = [[(key, tuple(o)) for key, o in data[side].items()] for side in ("in_order", "out_order")]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FramingError(f"malformed framing JSON: {type(exc).__name__} {exc}") from exc
    inner = {str(v): v for v in g.inner}
    in_order: dict[VertexId, tuple[EdgeId, ...]] = {}
    out_order: dict[VertexId, tuple[EdgeId, ...]] = {}
    for orders, side in zip((in_order, out_order), sides):
        for key, o in side:
            if key not in inner:
                raise FramingError(f"framing names {key!r}, which is not an inner vertex")
            if not all(type(e) is int for e in o):
                raise FramingError(f"order at vertex {key!r} holds an edge id that is not an int: {list(o)}")
            orders[inner[key]] = o
    return Framing(in_order, out_order)


# -- coherence ----------------------------------------------------------------


class CoherenceTable:
    """Per-vertex route ranks for fast pairwise coherence tests.

    For each inner vertex v the framing totally orders the maximal paths of
    g into v (the prefixes) and out of v (the suffixes); a route's in-rank
    and out-rank at v are the positions of its prefix and suffix there.  A
    route pair conflicts at v exactly when its in-ranks and out-ranks compare
    in opposite directions.  The ranks count every path of g, so `routes`
    may be any set of routes of g (by default `enumerate_routes(g)`).
    """

    def __init__(self, g: Dag, f: Framing, routes: Sequence[Route] | None = None):
        validate_framing(g, f)
        self.g = g
        self.f = f
        self.routes: list[Route] = list(routes) if routes is not None else enumerate_routes(g)
        self._build_ranks()

    def _build_ranks(self) -> None:
        # The prefixes into an inner vertex v come in one block per in-edge e,
        # in port order, each block ordered like the prefixes into e's tail
        # (one, empty, at a source).  So a route's in-rank at v is its in-rank
        # at e's tail plus the sizes of the blocks before e's: a sum along the
        # route of each edge's offset.  Out-ranks are the same sum taken back
        # from the sink.  One sweep in topological order sizes the blocks of
        # prefixes, one in reverse order those of suffixes.
        g, f = self.g, self.f
        self.in_top, self.out_top = {}, {}  # each inner vertex's greatest in-rank and out-rank
        in_offset, out_offset = dict.fromkeys(g.tail, 0), dict.fromkeys(g.tail, 0)
        for top, sweep, order, offset, far in (
            (self.in_top, g.topological_order, f.in_order, in_offset, g.tail),
            (self.out_top, g.topological_order[::-1], f.out_order, out_offset, g.head),
        ):
            paths = dict.fromkeys(g.vertices, 1)  # the paths into (out of) each vertex
            for v in sweep:
                if v in order:
                    n = 0
                    for e in order[v]:
                        offset[e] = n
                        n += paths[far[e]]
                    paths[v], top[v] = n, n - 1

        self.route_cuts: list[dict[VertexId, int]] = []  # position of each inner vertex on each route
        self.in_rank: list[dict[VertexId, int]] = []
        self.out_rank: list[dict[VertexId, int]] = []
        head, inner = g.head, self.in_top
        for r in self.routes:
            cuts, ins, outs = {}, {}, {}
            k_in, k_out = 0, sum(map(out_offset.__getitem__, r))
            for idx, e in enumerate(r, 1):
                k_in += in_offset[e]
                k_out -= out_offset[e]
                v = head[e]
                if v in inner:
                    cuts[v], ins[v], outs[v] = idx, k_in, k_out
            self.route_cuts.append(cuts)
            self.in_rank.append(ins)
            self.out_rank.append(outs)

    def _conflicts(self, i: int, j: int) -> Iterator[VertexId]:
        """Shared inner vertices where the in- and out-ranks of routes i and j
        compare in opposite directions."""
        a, b = self.route_cuts[i], self.route_cuts[j]
        if len(a) > len(b):
            a, b = b, a
        in_i, in_j = self.in_rank[i], self.in_rank[j]
        out_i, out_j = self.out_rank[i], self.out_rank[j]
        for v in a:
            if v in b and (in_i[v] - in_j[v]) * (out_i[v] - out_j[v]) < 0:
                yield v

    def conflict_vertices(self, i: int, j: int) -> list[VertexId]:
        return sorted(self._conflicts(i, j))

    def coherent(self, i: int, j: int) -> bool:
        return next(self._conflicts(i, j), None) is None

    @functools.cached_property
    def adjacency(self) -> list[int]:
        """Coherence graph as bitmasks (bit j set on row i iff coherent).

        Per inner vertex, a route through it conflicts with the routes there
        ranked lower on one side and higher on the other, so its row is the
        complement of those bitmasks ORed over its vertices."""
        by_vertex: dict[VertexId, list[int]] = {}  # the routes through each inner vertex
        for i, cuts in enumerate(self.route_cuts):
            for v in cuts:
                by_vertex.setdefault(v, []).append(i)
        conflicts = [0] * len(self.routes)
        for v, through in by_vertex.items():
            ins = [self.in_rank[i][v] for i in through]
            outs = [self.out_rank[i][v] for i in through]
            below_in, above_in = _rank_masks(through, ins)
            below_out, above_out = _rank_masks(through, outs)
            for i, x, y in zip(through, ins, outs):
                conflicts[i] |= below_in[x] & above_out[y] | above_in[x] & below_out[y]
        full = (1 << len(self.routes)) - 1
        return [full ^ 1 << i ^ c for i, c in enumerate(conflicts)]

    @functools.cached_property
    def exceptional_indices(self) -> tuple[int, ...]:
        """The routes coherent with every route of g, read off the ranks: a
        prefix into v and a suffix out of v make a route of g, so the routes of
        g through v take every pair of ranks there, and one conflicts with none
        exactly when its ranks are both least, both greatest, or one side has
        one rank."""
        in_top, out_top = self.in_top, self.out_top
        return tuple(
            i for i, (ins, outs) in enumerate(zip(self.in_rank, self.out_rank))
            if all((ins[v] == 0 or outs[v] == out_top[v]) and (outs[v] == 0 or ins[v] == in_top[v]) for v in ins)
        )

    # the bitmask of the non-exceptional routes
    live = functools.cached_property(
        lambda self: (1 << len(self.routes)) - 1 ^ sum(1 << i for i in self.exceptional_indices)
    )

    @functools.cached_property
    def route_index(self) -> dict[Route, int]:
        """Each route's first position in `routes`."""
        index: dict[Route, int] = {}
        for i, r in enumerate(self.routes):
            index.setdefault(r, i)
        return index


def _rank_masks(routes: Sequence[int], ranks: Sequence[int]) -> tuple[dict[int, int], dict[int, int]]:
    """Per rank k that one of the `routes` holds, the bitmasks of the `routes`
    ranked below k and above k.  Only the ranks held are indexed: a table of a
    few routes may hold ranks far larger than its size."""
    at: dict[int, int] = {}
    for i, k in zip(routes, ranks):
        at[k] = at.get(k, 0) | 1 << i
    held = sorted(at)
    masks = [at[k] for k in held]
    below = dict(zip(held, [0, *itertools.accumulate(masks[:-1], operator.or_)]))
    above = dict(zip(held, [*itertools.accumulate(masks[:0:-1], operator.or_)][::-1] + [0]))
    return below, above


def exceptional_routes(table: CoherenceTable) -> list[Route]:
    """Routes coherent with every route; members of every maximal clique."""
    return [table.routes[i] for i in table.exceptional_indices]


def is_ample(table: CoherenceTable) -> bool:
    """Every non-idle edge lies on at least one exceptional route."""
    return set(table.g.tail) - idle_edges(table.g) <= {e for r in exceptional_routes(table) for e in r}


# -- edge labeling -------------------------------------------------------------


def edge_labeling(g: Dag, f: Framing) -> dict[EdgeId, int]:
    """Label each edge 1 (minimal at both ports) or 2 (maximal at both).

    Defined for ample framings on full DAGs; an edge that is minimal on one
    side and maximal on the other is a `FramingError` (the framing is not
    ample).  Edges with no framed port (source to sink) get label 1 by
    convention.
    """
    if not is_full(g):
        raise NotFullError("edge labeling needs a full DAG")
    validate_framing(g, f)
    labels: dict[EdgeId, int] = {}
    for e, t, h in g.edges:
        tail_label = None
        head_label = None
        # a single edge at a port carries no information
        if t in f.out_order and len(f.out_order[t]) > 1:
            tail_label = 1 if f.out_order[t][0] == e else 2
        if h in f.in_order and len(f.in_order[h]) > 1:
            head_label = 1 if f.in_order[h][0] == e else 2
        if tail_label is not None and head_label is not None and tail_label != head_label:
            raise FramingError(
                f"edge {e} is rank {tail_label} at its tail but {head_label} at its head"
            )
        labels[e] = tail_label or head_label or 1
    return labels


# -- exceptional set checking (adjacency graph) ---------------------------------


@dataclass
class AdjacencyGraph:
    """Routes of X joined when they share a full inner vertex."""

    routes: list[Route]
    edges: list[tuple[int, int]]

    def is_bipartite(self) -> tuple[bool, dict[int, int] | None]:
        color: dict[int, int] = {}
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.routes))}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for start in range(len(self.routes)):
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                x = queue.pop()
                for y in adj[x]:
                    if y not in color:
                        color[y] = 1 - color[x]
                        queue.append(y)
                    elif color[y] == color[x]:
                        return False, None
        return True, color


def adjacency_graph(g: Dag, routes: Sequence[Route]) -> AdjacencyGraph:
    full_vertices = {
        v for v in g.inner if len(g.in_edges[v]) == 2 and len(g.out_edges[v]) == 2
    }
    verts = [set(g.route_vertices(r)) & full_vertices for r in routes]
    edges = [
        (i, j)
        for i in range(len(routes))
        for j in range(i + 1, len(routes))
        if verts[i] & verts[j]
    ]
    return AdjacencyGraph(list(map(tuple, routes)), edges)


# -- path/cycle decomposition ----------------------------------------------------


@dataclass
class Component:
    """Edge-disjoint alternating walk: vertices v0..vk, edges e1..ek."""

    vertices: tuple[VertexId, ...]
    edges: tuple[EdgeId, ...]
    kind: str  # 'cycle' | 'path' | 'source-sink edge'

    def walk(self) -> tuple:
        out: list = [self.vertices[0]]
        for v, e in zip(self.vertices[1:], self.edges):
            out.append(e)
            out.append(v)
        return tuple(out)


@dataclass
class Decomposition:
    components: list[Component]
    m: int  # components containing at least one inner vertex


def path_cycle_decomposition(g: Dag) -> Decomposition:
    """Edge-disjoint alternating paths and cycles of a full DAG.

    At each inner vertex its two in-edges are partners, and so are its two
    out-edges, so an edge has at most one partner at each end and the
    partner relation splits the edges into paths, which end at sources or
    sinks, and cycles.  Each component is walked once: a path from the
    smaller of its two end edges, leaving from that edge's free end (the
    tail, for a lone source-sink edge); a cycle from its smallest edge,
    leaving from that edge's tail.  Components come in order of their
    smallest edge.  Alternating 1/2 labelings of them are exactly the ample
    framings.
    """
    if not is_full(g):
        raise NotFullError("decomposition is defined for full DAGs")
    inner = set(g.inner)
    walked: set[EdgeId] = set()
    components: list[Component] = []

    def walk(start: EdgeId, x: VertexId) -> None:
        vertices, edges, e = [x], [], start
        while True:
            edges.append(e)
            # cross e away from x; at an inner vertex step to e's partner there
            x, port = (g.head[e], g.in_edges) if x == g.tail[e] else (g.tail[e], g.out_edges)
            vertices.append(x)
            if x not in inner:
                kind = "path" if len(edges) > 1 else "source-sink edge"
                break
            a, b = port[x]
            e = b if e == a else a
            if e == start:
                kind = "cycle"  # the closed walk repeats its first vertex
                break
        walked.update(edges)
        components.append(Component(tuple(vertices), tuple(edges), kind))

    # in id order, an edge with a free end is the smaller end edge of its path
    for e in g.edge_ids:
        if e not in walked and (g.tail[e] not in inner or g.head[e] not in inner):
            walk(e, g.tail[e] if g.tail[e] not in inner else g.head[e])
    for e in g.edge_ids:
        if e not in walked:
            walk(e, g.tail[e])
    components.sort(key=lambda c: min(c.edges))
    m = sum(1 for c in components if c.kind != "source-sink edge")
    seen = [e for c in components for e in c.edges]
    if len(seen) != len(g.edges) or len(set(seen)) != len(seen):
        raise ConsistencyError("components-partition-edges", f"{len(seen)} edge slots for {len(g.edges)} edges")
    return Decomposition(components, m)


# -- counting and enumerating ample framings -------------------------------------


@dataclass
class IdleReachability:
    v1: frozenset[VertexId]  # non-source endpoints of source-reachable idle edges
    v2: frozenset[VertexId]  # non-sink endpoints of sink-reachable idle edges


def idle_reachability(g: Dag, idle: frozenset[EdgeId]) -> IdleReachability:
    """Classify g's idle edges `idle` by directed idle-edge paths from sources / to sinks."""
    return IdleReachability(
        _idle_reach(idle, g.sources, g.out_edges, g.head),
        _idle_reach(idle, g.sinks, g.in_edges, g.tail),
    )


def _idle_reach(
    idle: frozenset[EdgeId],
    ends: Sequence[VertexId],
    port: Mapping[VertexId, tuple[EdgeId, ...]],
    far: Mapping[EdgeId, VertexId],
) -> frozenset[VertexId]:
    """Vertices outside `ends` reached from them along idle edges, each
    taken from its end in `port` to its `far` end: one search from `ends`."""
    reached, stack = set(ends), list(ends)
    while stack:
        for e in port[stack.pop()]:
            if e in idle and far[e] not in reached:
                reached.add(far[e])
                stack.append(far[e])
    return frozenset(reached.difference(ends))


def _check_idle_forest(table: _PortTable) -> None:
    """The counting formula needs the table's idle edges to form a forest
    whose source-side vertices have a single in-edge (dually for the sink side).

    Vertex splits at sinks or sources can produce valid DAGs that break
    this (a previously non-idle parallel edge turns idle, closing a cycle);
    on those the product formula overcounts, so fail loudly instead.
    """
    g, reach = table.g, table.reach
    parent: dict[VertexId, VertexId] = {}
    for e in sorted(table.trace.idle):
        a, b = find(parent, g.tail[e]), find(parent, g.head[e])
        if a == b:
            raise ConsistencyError(
                "idle-forest-structure", f"idle edges contain a cycle through edge {e}"
            )
        parent[a] = b
    # the |out(v)|! factor at a source-side vertex is only free when all
    # in-paths through v coincide, i.e. the chain from v back to a source
    # is forced (in-degree one throughout); dually on the sink side
    for side, starts, ends, fan, chain, step in (
        ("source", reach.v1, g.sources, g.out_edges, g.in_edges, g.tail),
        ("sink", reach.v2, g.sinks, g.in_edges, g.out_edges, g.head),
    ):
        checked = set(ends)  # the ends, and the chains already walked back to one
        for v in sorted(starts):  # so the message names the smallest failing fan vertex
            if len(fan[v]) < 2:
                continue
            x = v
            while x not in checked:
                if len(chain[x]) != 1:
                    raise ConsistencyError(
                        "idle-forest-structure",
                        f"{side}-side idle chain through {v} branches at {x}",
                    )
                checked.add(x)
                x = step[chain[x][0]]


class _PortTable:
    """How each alternating labeling of g's complete contraction frames g.

    Labeling `index` sets one bit per live component of the contraction's
    `decomposition` (one holding an inner vertex); a clear bit labels that
    component 1 at its smallest edge.  `edges` lists each contraction edge
    as (e, bit, labels): its label when the bit is clear, then when it is
    set ((1, 1) off the live components).  `ports` lists g's in-ports, then
    its out-ports, in vertex order as (v, bit, orders): labeling `index`
    takes the first order when its bit is clear, else the second.  A port
    the contraction pins has two edges that stand, through contracted
    edges, for edges of one live component with opposite labels, so one
    bit picks its order.  The `free` ports (out-ports at V1, then in-ports
    at V2, each in vertex order) and single-edge ports keep ascending ids.
    A full g is its own contraction, with no idle edges.
    """

    def __init__(self, g: Dag, decomposition: Decomposition, trace: ContractionTrace, reach: IdleReachability):
        self.g, self.decomposition, self.trace, self.reach = g, decomposition, trace, reach
        bit_of, pair = {}, dict.fromkeys(trace.result.tail, (1, 1))
        for bit, comp in enumerate(c for c in decomposition.components if c.kind != "source-sink edge"):
            start = comp.edges.index(min(comp.edges))
            for i, e in enumerate(comp.edges):
                bit_of[e], pair[e] = bit, ((1, 2), (2, 1))[(i - start) % 2]
        self.edges = [(e, bit_of.get(e, 0), pair[e]) for e in sorted(pair)]
        self.free = [
            (v, side, at[v])
            for side, vs, at in (("out", reach.v1, g.out_edges), ("in", reach.v2, g.in_edges))
            for v in sorted(vs)
            if len(at[v]) > 1
        ]
        free = {(v, side) for v, side, _ in self.free}
        contracted = trace.contracted_edges

        def pulled(e: EdgeId, at: Mapping[VertexId, tuple[EdgeId, ...]], end: Mapping[EdgeId, VertexId]):
            """(bit, labels) of each contraction edge reached from e through
            contracted edges, stepping from each edge's `end` to its port there."""
            out, stack = set(), [e]
            while stack:
                d = stack.pop()
                if d in contracted:
                    stack.extend(at[end[d]])
                else:
                    out.add((bit_of.get(d), pair[d]))
            return out

        self.ports: tuple[list, list] = ([], [])
        for ports, side, at, end in zip(self.ports, ("in", "out"), (g.in_edges, g.out_edges), (g.tail, g.head)):
            for v in g.inner:
                port = at[v]
                if len(port) == 1 or (v, side) in free:
                    ports.append((v, 0, (port, port)))
                    continue
                sigs = [pulled(e, at, end) for e in port]
                bit = next(iter(sigs[0]), (None,))[0]
                first, second = {(bit, (1, 2))}, {(bit, (2, 1))}
                if sigs not in ([first, second], [second, first]):
                    raise ConsistencyError("port-alternation", f"edges {', '.join(map(str, port))} at {v}")
                ports.append((v, bit, (port, port[::-1]) if sigs[0] == first else (port[::-1], port)))

    # the routes of g and of its contraction, enumerated once for every lift;
    # a full g is its own contraction and shares its routes
    routes = functools.cached_property(lambda self: enumerate_routes(self.g))
    contraction_routes = functools.cached_property(
        lambda self: self.routes if self.trace.result is self.g else enumerate_routes(self.trace.result)
    )

    def labels(self, index: int) -> dict[EdgeId, int]:
        return {e: pair[index >> bit & 1] for e, bit, pair in self.edges}

    def framing(self, index: int, free: Sequence[tuple[EdgeId, ...]]) -> Framing:
        """Labeling `index`'s framing of g, with the free ports in the orders
        `free`, one per entry of `self.free`."""
        f = Framing(*({v: orders[index >> bit & 1] for v, bit, orders in side} for side in self.ports))
        for (v, side, _), order in zip(self.free, free):
            (f.in_order if side == "in" else f.out_order)[v] = order
        return f

    @functools.cached_property
    def _port_texts(self) -> tuple[list, ...]:
        """Per side, each port's `"v": [order]` JSON text when its bit is
        clear and when it is set, in the vertex order of `framing_to_json`."""
        return tuple(
            [
                (bit, tuple(f"{json.dumps(str(v))}: {json.dumps(list(o))}" for o in orders))
                for v, bit, orders in sorted(side, key=lambda port: port[0])
            ]
            for side in self.ports
        )

    def framing_json(self, index: int) -> str:
        """`framing_to_json` of labeling `index`'s framing with every free
        port in ascending order, joined from text built once per table."""
        in_text, out_text = (", ".join(texts[index >> bit & 1] for bit, texts in side) for side in self._port_texts)
        return f'{{"in_order": {{{in_text}}}, "out_order": {{{out_text}}}}}'


def port_table(g: Dag) -> _PortTable:
    """The port table of a valid DAG, read off its complete contraction and
    idle reachability; `NotFullError` unless the contraction is full."""
    trace = complete_contraction(g)
    if not is_full(trace.result):
        raise NotFullError("graph has no full contraction")
    return _PortTable(g, path_cycle_decomposition(trace.result), trace, idle_reachability(g, trace.idle))


def count_ample_framings(table: _PortTable) -> int:
    """2^M, times the orders of the free ports (none on a full DAG)."""
    _check_idle_forest(table)
    count = 1 << table.decomposition.m
    for _, _, port in table.free:
        count *= math.factorial(len(port))
    return count


@dataclass
class TaggedFraming:
    """One ample framing: alternating labeling `index` of the contraction,
    with the free ports in the orders `free`.

    Global 1<->2 label swaps of a full DAG give the same triangulation, so
    each framing records the index of its labeling's swap partner;
    `canonical` marks the chosen representative of each swap pair (the
    component holding the smallest edge id is labeled 1 at that edge).
    `labels` (of the contraction) and `framing` are built from the graph's
    port table when first read.
    """

    index: int
    swap_partner: int
    canonical: bool
    table: _PortTable = field(repr=False, compare=False)
    free: tuple[tuple[EdgeId, ...], ...]

    labels = functools.cached_property(lambda self: self.table.labels(self.index))
    framing = functools.cached_property(lambda self: self.table.framing(self.index, self.free))


def enumerate_ample_framings(table: _PortTable) -> Iterator[TaggedFraming]:
    """Every ample framing of the table's graph: each alternating labeling of
    its contraction, in index order, times the orders of the free ports."""
    _check_idle_forest(table)
    full = (1 << table.decomposition.m) - 1
    port_perms = [list(itertools.permutations(port)) for _, _, port in table.free]
    for index in range(full + 1):
        for free in itertools.product(*port_perms):
            yield TaggedFraming(index, full ^ index, not index & 1, table, free)


def lift_framing(
    table: _PortTable,
    f_full: Framing,
    choices: Mapping[VertexId, Mapping[str, Sequence[EdgeId]]] | None = None,
) -> Framing:
    """Extend an ample framing of the full contraction to the table's graph.

    The contraction's labels under `f_full` must be an alternating labeling
    of the port table; its index orders every pinned port.  The free ports
    (out-orders at non-source endpoints of source-reachable idle edges,
    in-orders at the sink-side mirror) take their order from `choices`,
    defaulting to ascending edge ids.  The lift is always checked to project
    its exceptional routes onto those of `f_full`.
    """
    h = table.trace.result
    labels = edge_labeling(h, f_full)
    index = functools.reduce(operator.or_, (1 << bit for e, bit, pair in table.edges if labels[e] != pair[0]), 0)
    if table.labels(index) != labels:
        raise FramingError("the framing's labels are not an alternating labeling of the contraction")
    free = [tuple((choices or {}).get(v, {}).get(side, port)) for v, side, port in table.free]
    for (v, side, port), order in zip(table.free, free):
        if tuple(sorted(order)) != port:
            raise FramingError(f"{side}-order at {v} must permute {port}")
    f = table.framing(index, free)
    exc = exceptional_routes(CoherenceTable(table.g, f, table.routes))
    exc_full = exceptional_routes(CoherenceTable(h, f_full, table.contraction_routes))
    projected = {table.trace.project_route(r) for r in exc}
    if projected != set(exc_full) or len(exc) != len(projected):
        raise FramingError("lift does not preserve the exceptional routes")
    return f
