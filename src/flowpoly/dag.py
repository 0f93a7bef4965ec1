"""Directed acyclic multigraph model: routes, idle edges, contraction.

Edges carry stable integer ids.  Every later stage (framings, routes,
characteristic vectors) is expressed over edge ids, never endpoint pairs,
because contraction and the caracol family produce parallel edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    CycleError,
    GraphError,
    IsolatedVertexError,
    RouteExplosionError,
)

VertexId = int
EdgeId = int
Route = tuple[EdgeId, ...]

DEFAULT_MAX_ROUTES = 10**6


@dataclass(frozen=True)
class Dag:
    """Immutable directed acyclic multigraph.

    `edges` is a tuple of (edge_id, tail, head) triples.  Edge ids must be
    distinct; endpoints must be listed in `vertices`; self-loops and
    directed cycles are rejected at construction.
    """

    vertices: tuple[VertexId, ...]
    edges: tuple[tuple[EdgeId, VertexId, VertexId], ...]

    @staticmethod
    def build(vertices: Iterable[VertexId], edges: Iterable[tuple[EdgeId, VertexId, VertexId]]) -> "Dag":
        vs = tuple(dict.fromkeys(vertices))
        g = Dag(vs, tuple((e, t, h) for e, t, h in edges))
        g._validate()
        return g

    def _validate(self) -> None:
        for v in self.vertices:
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                raise GraphError(f"vertex id {v!r} is neither an int nor a string")
        if len({isinstance(v, str) for v in self.vertices}) > 1:
            raise GraphError("vertex ids mix ints and strings")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise GraphError("duplicate vertex ids")
        seen: set[EdgeId] = set()
        for e, t, h in self.edges:
            if isinstance(e, bool) or not isinstance(e, int):
                raise GraphError(f"edge id {e!r} is not an int")
            if e in seen:
                raise GraphError(f"duplicate edge id {e}")
            seen.add(e)
            if t not in vset or h not in vset:
                raise GraphError(f"edge {e} has unknown endpoint")
            if t == h:
                raise CycleError(f"edge {e} is a self-loop")
        self.topological_order  # raises CycleError on a directed cycle

    # -- basic accessors -------------------------------------------------

    @cached_property
    def tail(self) -> dict[EdgeId, VertexId]:
        return {e: t for e, t, _ in self.edges}

    @cached_property
    def head(self) -> dict[EdgeId, VertexId]:
        return {e: h for e, _, h in self.edges}

    @cached_property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(sorted(e for e, _, _ in self.edges))

    @cached_property
    def in_edges(self) -> dict[VertexId, tuple[EdgeId, ...]]:
        d: dict[VertexId, list[EdgeId]] = {v: [] for v in self.vertices}
        for e, _, h in self.edges:
            d[h].append(e)
        return {v: tuple(sorted(es)) for v, es in d.items()}

    @cached_property
    def out_edges(self) -> dict[VertexId, tuple[EdgeId, ...]]:
        d: dict[VertexId, list[EdgeId]] = {v: [] for v in self.vertices}
        for e, t, _ in self.edges:
            d[t].append(e)
        return {v: tuple(sorted(es)) for v, es in d.items()}

    @cached_property
    def sources(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.vertices if not self.in_edges[v] and self.out_edges[v])

    @cached_property
    def sinks(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.vertices if not self.out_edges[v] and self.in_edges[v])

    @cached_property
    def inner(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.vertices if self.in_edges[v] and self.out_edges[v])

    @cached_property
    def topological_order(self) -> tuple[VertexId, ...]:
        import heapq

        indeg = {v: 0 for v in self.vertices}
        succ: dict[VertexId, list[VertexId]] = {v: [] for v in self.vertices}
        for _, t, h in self.edges:
            indeg[h] += 1
            succ[t].append(h)
        ready = sorted(v for v in self.vertices if indeg[v] == 0)
        order: list[VertexId] = []
        heapq.heapify(ready)
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != len(self.vertices):
            raise CycleError("graph contains a directed cycle")
        return tuple(order)

    @cached_property
    def nontree_edges(self) -> tuple[EdgeId, ...]:
        """Edges whose values coordinatize the integer-flow lattice.

        Collapsing all sources and sinks to one point turns flows into
        circulations; the fundamental cycles of a spanning forest are a lattice
        basis, and a flow's coordinates in it are its values on non-tree edges.
        """
        star = object()
        inner = set(self.inner)
        node = {v: (v if v in inner else star) for v in self.vertices}
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        tree: set[EdgeId] = set()
        for e in self.edge_ids:
            a, b = find(node[self.tail[e]]), find(node[self.head[e]])
            if a != b:
                parent[a] = b
                tree.add(e)
        return tuple(e for e in self.edge_ids if e not in tree)

    def route_vertices(self, route: Sequence[EdgeId]) -> tuple[VertexId, ...]:
        """Vertex sequence v0, ..., vk visited by an edge path."""
        if not route:
            return ()
        vs = [self.tail[route[0]]]
        for e in route:
            if self.tail[e] != vs[-1]:
                raise ValueError(f"edge {e} does not continue the path")
            vs.append(self.head[e])
        return tuple(vs)

    def __str__(self) -> str:
        return f"Dag({len(self.vertices)} vertices, {len(self.edges)} edges)"


# -- vertex classification and dimensions --------------------------------


def classify_vertices(g: Dag) -> tuple[set[VertexId], set[VertexId], set[VertexId]]:
    """Partition vertices into (sources, sinks, inner).

    Raises IsolatedVertexError when a vertex has no incident edges at all.
    """
    for v in g.vertices:
        if not g.in_edges[v] and not g.out_edges[v]:
            raise IsolatedVertexError(f"vertex {v} has no incident edges")
    return set(g.sources), set(g.sinks), set(g.inner)


def flow_dims(g: Dag) -> tuple[int, int]:
    """(dim of the flow space, dim of the strength-one flow polytope)."""
    d = len(g.edges) - len(g.inner)
    return d, d - 1


# -- route enumeration ----------------------------------------------------


def enumerate_routes(g: Dag, max_routes: int = DEFAULT_MAX_ROUTES) -> list[Route]:
    """All maximal source-to-sink edge paths, sorted by edge-id sequence."""
    routes: list[Route] = []
    out = g.out_edges
    head = g.head
    for s in g.sources:
        stack: list[tuple[VertexId, tuple[EdgeId, ...]]] = [(s, ())]
        while stack:
            v, path = stack.pop()
            if not out[v]:
                routes.append(path)
                if len(routes) > max_routes:
                    raise RouteExplosionError(f"more than {max_routes} routes")
                continue
            for e in reversed(out[v]):
                stack.append((head[e], path + (e,)))
    routes.sort()
    return routes


# -- idle edges and contraction -------------------------------------------


def idle_edges(g: Dag) -> frozenset[EdgeId]:
    """Edges that are the unique in-edge or unique out-edge of an inner vertex."""
    idle: set[EdgeId] = set()
    for v in g.inner:
        if len(g.in_edges[v]) == 1:
            idle.add(g.in_edges[v][0])
        if len(g.out_edges[v]) == 1:
            idle.add(g.out_edges[v][0])
    return frozenset(idle)


@dataclass(frozen=True)
class ContractionTrace:
    """Replayable record of a complete contraction.

    steps: (contracted edge id, (kept vertex, removed vertex)) per step,
    in contraction order.  vertex_map sends every original vertex to its
    final merged representative.  Contracted edges disappear; all other
    edges keep their ids with endpoints remapped.
    """

    steps: tuple[tuple[EdgeId, tuple[VertexId, VertexId]], ...]
    result: Dag
    vertex_map: dict[VertexId, VertexId]

    @cached_property
    def contracted_edges(self) -> frozenset[EdgeId]:
        return frozenset(e for e, _ in self.steps)

    def project_route(self, route: Sequence[EdgeId]) -> Route:
        """Route of the original graph -> route of the contraction."""
        dropped = self.contracted_edges
        return tuple(e for e in route if e not in dropped)


def complete_contraction(g: Dag) -> ContractionTrace:
    """Contract idle edges (smallest id first) until none remain.

    Contracting e = (u, v) merges u and v into min(u, v); every other edge
    keeps its id.  Multi-edges arise naturally.  A graph that collapses to
    a bundle of parallel source-to-sink edges is a legitimate result.

    A graph without idle edges is its own result.  Otherwise the steps
    update plain tail/head/port maps, and the result is built (and
    validated) once at the end.  No step can create a self-loop, a
    cycle or a duplicate id: an idle edge is the only way into its head or
    the only way out of its tail.  No step makes an edge idle either (the
    merged vertex's single in- or out-edge was idle already), so one pass
    over the idle edges of g, in id order, contracts each one that no
    earlier step has made non-idle.
    """
    idle = sorted(idle_edges(g))
    if not idle:
        return ContractionTrace((), g, {v: v for v in g.vertices})
    tail, head = dict(g.tail), dict(g.head)
    ins = {v: set(es) for v, es in g.in_edges.items()}
    outs = {v: set(es) for v, es in g.out_edges.items()}
    steps: list[tuple[EdgeId, tuple[VertexId, VertexId]]] = []
    for e in idle:
        u, v = tail[e], head[e]
        # still idle: the only edge into an inner head or out of an inner tail
        if not (len(ins[v]) == 1 and outs[v] or len(outs[u]) == 1 and ins[u]):
            continue
        del tail[e], head[e]
        keep, drop = (u, v) if u < v else (v, u)
        steps.append((e, (keep, drop)))
        outs[u].discard(e)
        ins[v].discard(e)
        for d in ins[drop]:
            head[d] = keep
        for d in outs[drop]:
            tail[d] = keep
        ins[keep] |= ins.pop(drop)
        outs[keep] |= outs.pop(drop)
    # each vertex is dropped once, so later steps have already resolved
    # the final representative of every vertex kept at an earlier step
    final: dict[VertexId, VertexId] = {}
    for _, (keep, drop) in reversed(steps):
        final[drop] = final.get(keep, keep)
    result = Dag.build(
        (x for x in g.vertices if x in ins),
        ((e, tail[e], head[e]) for e, _, _ in g.edges if e in tail),
    )
    return ContractionTrace(tuple(steps), result, {v: final.get(v, v) for v in g.vertices})


def is_full(g: Dag) -> bool:
    """Every inner vertex has in-degree 2 and out-degree 2."""
    return all(
        len(g.in_edges[v]) == 2 and len(g.out_edges[v]) == 2 for v in g.inner
    )


def is_valid(g: Dag) -> bool:
    """The complete contraction is full."""
    return is_full(complete_contraction(g).result)


# -- serialization ---------------------------------------------------------


def dag_to_json(g: Dag) -> str:
    return json.dumps(
        {
            "vertices": list(g.vertices),
            "edges": [{"id": e, "tail": t, "head": h} for e, t, h in g.edges],
        }
    )


def dag_from_json(text: str) -> Dag:
    try:
        data = json.loads(text)
        vertices = data["vertices"]
        edges = [(e["id"], e["tail"], e["head"]) for e in data["edges"]]
        return Dag.build(vertices, edges)
    except (ValueError, KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {type(exc).__name__} {exc}") from exc


def dag_from_edge_list(text: str) -> Dag:
    """Line-oriented format: `tail head [edge_id]`, ids default to line order."""
    edges: list[tuple[EdgeId, VertexId, VertexId]] = []
    used: set[int] = set()
    pending: list[tuple[VertexId, VertexId]] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            nums = [int(x) for x in line.split()]
        except ValueError:
            nums = []
        if len(nums) == 3:
            t, h, e = nums
            edges.append((e, t, h))
            used.add(e)
        elif len(nums) == 2:
            pending.append((nums[0], nums[1]))
        else:
            raise GraphError(f"bad edge-list line: {line!r}")
    nxt = 0
    for t, h in pending:
        while nxt in used:
            nxt += 1
        edges.append((nxt, t, h))
        used.add(nxt)
    vertices = sorted({t for _, t, _ in edges} | {h for _, _, h in edges})
    return Dag.build(vertices, edges)

