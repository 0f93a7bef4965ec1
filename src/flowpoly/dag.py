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

from .errors import GraphError, RouteExplosionError

VertexId = int
EdgeId = int
Route = tuple[EdgeId, ...]

DEFAULT_MAX_ROUTES = 10**6


def find(parent: dict, x):
    """Representative of x's class, halving the path walked.

    `parent` maps each merged element to another element of its class, never
    to itself; an element it does not map represents its class.
    """
    while x in parent:
        up = parent[x]
        parent[x] = parent.get(up, up)
        x = parent[x]
    return x


@dataclass(frozen=True)
class Dag:
    """Immutable directed acyclic multigraph.

    `edges` is a tuple of (edge_id, tail, head) triples.  Edge ids must be
    distinct; endpoints must be listed in `vertices`; self-loops and
    directed cycles are rejected at construction.  A vertex without edges
    is neither a source, a sink nor inner, so no stage reads it.
    """

    vertices: tuple[VertexId, ...]
    edges: tuple[tuple[EdgeId, VertexId, VertexId], ...]

    @staticmethod
    def build(vertices: Iterable[VertexId], edges: Iterable[tuple[EdgeId, VertexId, VertexId]]) -> "Dag":
        g = Dag(tuple(vertices), tuple((e, t, h) for e, t, h in edges))
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
                raise GraphError(f"edge {e} is a self-loop")
        self.topological_order  # raises GraphError on a directed cycle

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
            raise GraphError("graph contains a directed cycle")
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
        tree: set[EdgeId] = set()
        for e in self.edge_ids:
            a, b = find(parent, node[self.tail[e]]), find(parent, node[self.head[e]])
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


# -- dimensions -----------------------------------------------------------


def flow_dims(g: Dag) -> tuple[int, int]:
    """(dim of the flow space, dim of the strength-one flow polytope)."""
    d = len(g.edges) - len(g.inner)
    return d, d - 1


# -- route enumeration ----------------------------------------------------


def enumerate_routes(g: Dag, max_routes: int = DEFAULT_MAX_ROUTES) -> list[Route]:
    """All maximal source-to-sink edge paths, sorted by edge-id sequence, each copied once."""
    routes: list[Route] = []
    out, head = g.out_edges, g.head
    for s in g.sources:
        # one depth-first path: the edges into stack[1:]'s vertices, and the out-edges left at each
        path, stack = [], [iter(out[s])]
        while stack:
            for e in stack[-1]:
                if out[head[e]]:
                    path.append(e)
                    stack.append(iter(out[head[e]]))
                    break
                routes.append((*path, e))
                if len(routes) > max_routes:
                    raise RouteExplosionError(f"more than {max_routes} routes")
            else:  # every out-edge tried: step back
                stack.pop()
                del path[-1:]
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
    edges keep their ids with endpoints remapped.  idle: the original's idle edges.
    """

    steps: tuple[tuple[EdgeId, tuple[VertexId, VertexId]], ...]
    result: Dag
    vertex_map: dict[VertexId, VertexId]
    idle: frozenset[EdgeId]

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

    A graph without idle edges is its own result.  Otherwise a union-find
    over the vertices (`find`) holds the merges, with in- and out-degree
    counts per class, so no step relabels an edge and the contraction runs
    in near-linear time; the result is built (and validated) once at the
    end.  No step can create a self-loop, a cycle or a duplicate id: an idle
    edge is the only way into its head or the only way out of its tail.  No
    step makes an edge idle either (the merged vertex's single in- or
    out-edge was idle already), so one pass over the idle edges of g, in id
    order, contracts each one that no earlier step has made non-idle.
    """
    idle = idle_edges(g)
    if not idle:
        return ContractionTrace((), g, {v: v for v in g.vertices}, idle)
    indeg = {v: len(es) for v, es in g.in_edges.items()}
    outdeg = {v: len(es) for v, es in g.out_edges.items()}
    parent: dict[VertexId, VertexId] = {}
    steps: list[tuple[EdgeId, tuple[VertexId, VertexId]]] = []
    for e in sorted(idle):
        u, v = find(parent, g.tail[e]), find(parent, g.head[e])
        # still idle: the only edge into an inner head or out of an inner tail
        if not (indeg[v] == 1 and outdeg[v] or outdeg[u] == 1 and indeg[u]):
            continue
        outdeg[u] -= 1
        indeg[v] -= 1
        keep, drop = (u, v) if u < v else (v, u)
        steps.append((e, (keep, drop)))
        parent[drop] = keep
        indeg[keep] += indeg[drop]
        outdeg[keep] += outdeg[drop]
    contracted = {e for e, _ in steps}
    result = Dag.build(
        (x for x in g.vertices if x not in parent),
        ((e, find(parent, t), find(parent, h)) for e, t, h in g.edges if e not in contracted),
    )
    return ContractionTrace(tuple(steps), result, {v: find(parent, v) for v in g.vertices}, idle)


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

