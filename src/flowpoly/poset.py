"""The tau-tilting order on the dual graph of the triangulation.

Each dual edge joins cliques exchanging one route pair; the unique common
component of the two routes entered on a weight-2 edge and exited on a
weight-1 edge (by the upper route) orients the edge and becomes its brick
label.  That depends only on the exchanged route pair, so it is computed
once per entry of the flip traversal's pair table, however many dual edges
exchange it.  The Hasse edges are int columns with interned brick ids.
Down-cover statistics of the resulting poset give the h*-vector.
"""

from __future__ import annotations

import functools
import heapq
import random
from array import array
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .dag import Dag, EdgeId, Route
from .errors import (
    AmbiguousKappaImageError,
    ConsistencyError,
    CycleDetectedError,
    MultipleQualifyingComponentsError,
    NoKappaImageError,
    NoQualifyingComponentError,
    NotLinearExtensionError,
)
from .framing import CoherenceTable, Framing, edge_labeling
from .triangulation import Clique, DualGraph, maximal_cliques_by_flips

# A brick is a walk in the base DAG: (v0, e1, v1, ..., ek, vk), possibly a
# single vertex (v0,).
Brick = tuple[int, ...]


def common_components(g: Dag, r1: Route, r2: Route) -> list[tuple[Brick, int, int]]:
    """Connected components of the intersection of two routes, as walks,
    each with the position of its first vertex on r1 and on r2."""
    verts1 = g.route_vertices(r1)
    at2 = {v: i for i, v in enumerate(g.route_vertices(r2))}
    edges2 = set(r2)
    comps: list[tuple[list[int], int, int]] = []
    cur: list[int] | None = None
    for i, v in enumerate(verts1):
        if v not in at2:
            cur = None
            continue
        if cur is not None and r1[i - 1] in edges2:
            cur.append(r1[i - 1])
            cur.append(v)
        else:
            cur = [v]
            comps.append((cur, i, at2[v]))
    return [(tuple(c), i1, i2) for c, i1, i2 in comps]


def orient_dual_edge(
    g: Dag, labels: Mapping[EdgeId, int], r1: Route, r2: Route
) -> tuple[int, Brick]:
    """Decide which of the exchanged routes sits above the other.

    Returns (+1, w) when the clique containing r1 covers the one with r2,
    (-1, w) for the opposite, where w is the qualifying component: r-upper
    enters w on a weight-2 edge and leaves on a weight-1 edge while the
    lower route does the reverse.
    """
    hits: list[tuple[int, Brick]] = []
    for w, i1, i2 in common_components(g, r1, r2):
        k = len(w) // 2  # edges of w; r[i - 1] enters w on r and r[i + k] leaves it
        if min(i1, i2) == 0 or i1 + k == len(r1) or i2 + k == len(r2):
            continue  # w holds an end of a route
        pat1 = (labels[r1[i1 - 1]], labels[r1[i1 + k]])
        pat2 = (labels[r2[i2 - 1]], labels[r2[i2 + k]])
        if pat1 == (2, 1) and pat2 == (1, 2):
            hits.append((1, w))
        elif pat1 == (1, 2) and pat2 == (2, 1):
            hits.append((-1, w))
    if not hits:
        raise NoQualifyingComponentError(f"no qualifying component for {r1} vs {r2}")
    if len(hits) > 1:
        raise MultipleQualifyingComponentsError(
            f"{len(hits)} qualifying components for {r1} vs {r2}"
        )
    return hits[0]


class Hasse:
    """A poset's Hasse edges as (lower, upper, brick) triples, read from its
    columns on demand."""

    def __init__(self, poset: TauPoset) -> None:
        self._p = poset

    def __len__(self) -> int:
        return len(self._p.lo)

    def __iter__(self) -> Iterator[tuple[int, int, Brick]]:
        p = self._p
        return zip(p.lo, p.hi, map(p.bricks.__getitem__, p.brick))


@dataclass
class TauPoset:
    """Oriented dual graph with brick labels; nodes are clique indices.

    Hasse edge k runs from lo[k] up to hi[k] and carries the brick
    bricks[brick[k]]; each brick is interned once.  The columns are indexed
    once into per-node cover lists, which the order, linear extensions and
    kappa walk."""

    cliques: list[Clique]
    routes: list[Route]
    lo: array
    hi: array
    brick: array
    bricks: list[Brick]
    dual: DualGraph

    @property
    def hasse(self) -> Hasse:
        return Hasse(self)

    def _by_node(self, ends: array, values: array) -> list[list[int]]:
        """Per node, values[k] of every Hasse edge k with the node at ends[k]."""
        out: list[list[int]] = [[] for _ in self.cliques]
        for node, value in zip(ends, values):
            out[node].append(value)
        return out

    ups = functools.cached_property(lambda self: self._by_node(self.lo, self.hi))  # upper covers
    downs = functools.cached_property(lambda self: self._by_node(self.hi, self.lo))  # lower covers

    def dcov(self, node: int) -> int:
        return len(self.downs[node])

    def ucov(self, node: int) -> int:
        return len(self.ups[node])

    def dcov_polynomial(self) -> list[int]:
        """Coefficient i counts nodes covering exactly i elements."""
        dcov = list(map(len, self.downs))
        return [dcov.count(k) for k in range(max(dcov, default=0) + 1)]

    @functools.cached_property
    def heights(self) -> list[int]:
        h = [0] * len(self.cliques)
        downs = self.downs
        for node in self.topological_nodes:
            h[node] = max([h[lo] + 1 for lo in downs[node]], default=0)
        return h

    @functools.cached_property
    def topological_nodes(self) -> list[int]:
        indeg = list(map(len, self.downs))
        ready = [i for i, d in enumerate(indeg) if not d]  # sorted, so a heap
        ups = self.ups
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for hi in ups[v]:
                indeg[hi] -= 1
                if not indeg[hi]:
                    heapq.heappush(ready, hi)
        if len(order) != len(self.cliques):
            raise CycleDetectedError("oriented dual graph is not acyclic")
        return order

    def default_linear_extension(self) -> list[int]:
        """Nodes by (height, index): a stable sort on the height alone."""
        return sorted(range(len(self.cliques)), key=self.heights.__getitem__)

    def random_linear_extensions(self, count: int, seed: int) -> list[list[int]]:
        rng = random.Random(seed)
        ups = self.ups
        indeg0 = list(map(len, self.downs))
        outs = []
        for _ in range(count):
            indeg = indeg0[:]
            ready = [i for i, d in enumerate(indeg) if not d]
            order: list[int] = []
            while ready:
                v = ready.pop(rng.randrange(len(ready)))
                order.append(v)
                for hi in ups[v]:
                    indeg[hi] -= 1
                    if not indeg[hi]:
                        ready.append(hi)
            outs.append(order)
        return outs

    def check_linear_extension(self, ext: Sequence[int]) -> list[int]:
        """Raise unless `ext` is a linear extension; return each node's position."""
        n = len(self.cliques)
        pos = [-1] * n  # the inverse permutation; n entries fill it iff they permute
        for k, v in enumerate(ext):
            if 0 <= v < n:
                pos[v] = k
        if len(ext) != n or -1 in pos:
            raise NotLinearExtensionError("not a permutation of the nodes")
        for lo, hi in zip(self.lo, self.hi):
            if pos[lo] > pos[hi]:
                raise NotLinearExtensionError(f"{lo} must precede {hi}")
        return pos

    def h_from_shelling(self, ext: Sequence[int]) -> list[int]:
        """Restriction sizes along a shelling order: |R_j| counts the
        facet's neighbors appearing earlier, so each dual edge counts
        toward its later end.

        `build_poset` makes every dual edge a cover, so on any linear
        extension the earlier neighbors of a node are its lower covers and
        this equals the down-cover polynomial: comparing the two checks only
        that `ext` is a linear extension (`NotLinearExtensionError` if not).
        """
        pos = self.check_linear_extension(ext)
        sizes = [0] * len(pos)
        for a, b in zip(self.dual.a, self.dual.b):
            sizes[a if pos[a] > pos[b] else b] += 1
        return [sizes.count(k) for k in range(max(sizes, default=0) + 1)]

    @functools.cached_property
    def kappa(self) -> dict[int, int]:
        """Node whose up-brick multiset equals the argument's down-brick multiset.

        So dcov(i) == ucov(kappa[i]) holds by construction."""
        up_index: dict[tuple[int, ...], list[int]] = {}
        for i, ws in enumerate(self._by_node(self.lo, self.brick)):
            up_index.setdefault(tuple(sorted(ws)), []).append(i)
        for key, nodes in up_index.items():
            if len(nodes) > 1:
                raise ConsistencyError(
                    "up-bricks-determine-node",
                    f"nodes {nodes} share up-brick multiset",
                )
        out: dict[int, int] = {}
        for i, ws in enumerate(self._by_node(self.hi, self.brick)):
            hit = up_index.get(tuple(sorted(ws)))
            if not hit:
                raise NoKappaImageError(f"node {i} has no kappa image")
            if len(hit) > 1:
                raise AmbiguousKappaImageError(f"node {i} has several kappa images")
            out[i] = hit[0]
        if len(set(out.values())) != len(out):
            raise ConsistencyError("kappa-bijective", "kappa is not injective")
        return out

    def covers(self, lo: int, hi: int) -> bool:
        return lo in self.downs[hi]


def build_poset(
    g: Dag,
    f: Framing,
    table: CoherenceTable | None = None,
    dual: DualGraph | None = None,
    labels: Mapping[EdgeId, int] | None = None,
) -> TauPoset:
    """Orient every flip record and assert the result is its own Hasse diagram.

    `table`, the flip traversal `dual` of it and the edge `labels` of `f`
    are computed when not given.  A record names its exchanged route pair,
    so no clique pair is compared here, and each pair of `dual.pairs` is
    oriented once for all of its records.
    """
    table = table or CoherenceTable(g, f)
    dual = dual if dual is not None else maximal_cliques_by_flips(table)
    labels = labels if labels is not None else edge_labeling(g, f)
    routes = table.routes
    brick_ids: dict[Brick, int] = {}
    # per pair: does the clique that holds `leaving` (a record's a) sit
    # above, and the pair's brick id
    a_above, brick_of = [], []
    for ex in dual.pairs:
        sign, brick = orient_dual_edge(g, labels, routes[ex.leaving], routes[ex.entering])
        a_above.append(sign > 0)
        brick_of.append(brick_ids.setdefault(brick, len(brick_ids)))
    lo, hi = array("i"), array("i")
    for a, b, p in zip(dual.a, dual.b, dual.pair):
        if a_above[p]:
            a, b = b, a
        lo.append(a)
        hi.append(b)
    brick = array("i", map(brick_of.__getitem__, dual.pair))
    poset = TauPoset(dual.cliques, list(routes), lo, hi, brick, list(brick_ids), dual)
    poset.topological_nodes  # acyclicity check
    _assert_transitively_reduced(poset)
    return poset


def _assert_transitively_reduced(p: TauPoset) -> None:
    """No oriented dual edge may be implied by a longer chain."""
    # strictly-above closures as int bitsets, in reverse topological order;
    # a node's set is dropped once every node it covers has read it, so only
    # the sweep's frontier is held (2.8 MB on gkn(2,11), 8.6 MB for all)
    above = [0] * len(p.cliques)
    unread = list(map(len, p.downs))
    for node in reversed(p.topological_nodes):
        ups = p.ups[node]
        mask = 0
        for hi in ups:
            mask |= 1 << hi
        if any(above[mid] & mask for mid in ups):
            hi, mid = next((hi, mid) for hi in ups for mid in ups if above[mid] >> hi & 1)
            raise ConsistencyError(
                "oriented-dual-edges-are-covers",
                f"edge {node}<{hi} implied through {mid}",
            )
        for hi in ups:
            mask |= above[hi]
            unread[hi] -= 1
            if not unread[hi]:
                above[hi] = 0
        above[node] = mask
