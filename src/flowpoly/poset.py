"""The tau-tilting order on the dual graph of the triangulation.

Each dual edge joins cliques exchanging one route pair; the unique common
component of the two routes entered on a weight-2 edge and exited on a
weight-1 edge (by the upper route) orients the edge and becomes its brick
label.  That depends only on the exchanged route pair, so it is computed
once per entry of the flip traversal's pair table, however many dual edges
exchange it.  The Hasse edges are int columns with interned brick ids; the
nodes are the dual graph's clique numbers, decoded to route tuples only for
output.  Down-cover statistics of the resulting poset give the h*-vector.

The oriented dual graph is certified as its own Hasse diagram by the
kissing order: a <=_kiss b iff no route of a kisses one of b
(`gentle.kiss_table`), the inclusion of torsion classes (Adachi-Iyama-
Reiten, Compos. Math. 2014; for gentle algebras the non-kissing order,
Palu-Pilaud-Plamondon, Mem. AMS 2021), so it is transitive.  C1: no route
kisses itself or a coherent route.  C2: on each Hasse edge lo -> hi,
trading route r of lo for route s of hi, s kisses r and r not s.  All
route pairs across lo, hi but (r, s) lie in lo or in hi, so lo <=_kiss hi.
Up-covers mid = x - r1 + s1 != hi = x - r2 + s2 of a node x have r1 in
hi, kissed by s1, so mid is not <=_kiss hi, while a chain x -> mid -> ...
-> hi would force it: no oriented dual edge is implied by a longer chain.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from operator import lt
from typing import Iterator, Mapping, Sequence

from .dag import Dag, EdgeId, Route
from .errors import (
    ConsistencyError,
    CycleDetectedError,
    MultipleQualifyingComponentsError,
    NoKappaImageError,
    NoQualifyingComponentError,
    NotLinearExtensionError,
)
from .framing import CoherenceTable
from .triangulation import Clique, DualGraph

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

    routes: list[Route]
    lo: Sequence[int]
    hi: Sequence[int]
    brick: Sequence[int]
    bricks: list[Brick]
    dual: DualGraph

    @property
    def hasse(self) -> Hasse:
        return Hasse(self)

    @property
    def cliques(self) -> list[Clique]:
        """Each node's clique as a sorted route tuple, decoded on first use."""
        return self.dual.cliques

    def __len__(self) -> int:
        return len(self.dual.masks)

    def _by_node(self, ends: Sequence[int], values: Sequence[int]) -> list[list[int]]:
        """Per node, values[k] of every Hasse edge k with the node at ends[k]."""
        out: list[list[int]] = [[] for _ in range(len(self))]
        for node, value in zip(ends, values):
            out[node].append(value)
        return out

    ups = functools.cached_property(lambda self: self._by_node(self.lo, self.hi))  # upper covers
    downs = functools.cached_property(lambda self: self._by_node(self.hi, self.lo))  # lower covers

    def dcov(self, node: int) -> int:
        return len(self.downs[node])

    def ucov(self, node: int) -> int:
        return len(self.ups[node])

    _dcov = functools.cached_property(lambda self: Counter(map(len, self.downs)))  # nodes by dcov

    def dcov_polynomial(self) -> list[int]:
        """Coefficient i counts nodes covering exactly i elements."""
        return [self._dcov[k] for k in range(max(self._dcov, default=0) + 1)]

    @functools.cached_property
    def heights(self) -> list[int]:
        """Each node's longest chain down to a minimal node, by Kahn's pass one
        level at a time: a node becomes ready in the level after that of its
        last placed lower cover, which is its highest one."""
        indeg = list(map(len, self.downs))
        ups, h = self.ups, [0] * len(self)
        level = [i for i, d in enumerate(indeg) if not d]
        placed = height = 0
        while level:
            placed += len(level)
            height += 1
            next_level = []
            for v in level:
                for hi in ups[v]:
                    indeg[hi] -= 1
                    if not indeg[hi]:
                        h[hi] = height
                        next_level.append(hi)
            level = next_level
        if placed != len(self):
            raise CycleDetectedError("oriented dual graph is not acyclic")
        return h

    @functools.cached_property
    def topological_nodes(self) -> list[int]:
        """Nodes by (height, index): a stable sort on the height alone."""
        return sorted(range(len(self)), key=self.heights.__getitem__)

    def default_linear_extension(self) -> list[int]:
        return list(self.topological_nodes)

    def random_linear_extensions(self, count: int, seed: int) -> list[list[int]]:
        """Each step takes a ready node by `randrange`, inlined."""
        getrandbits = random.Random(seed).getrandbits
        ups = self.ups
        indeg0 = list(map(len, self.downs))
        outs = []
        for _ in range(count):
            indeg = indeg0[:]
            ready = [i for i, d in enumerate(indeg) if not d]
            order: list[int] = []
            while ready:
                n = len(ready)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                v = ready.pop(r)
                order.append(v)
                for hi in ups[v]:
                    indeg[hi] -= 1
                    if not indeg[hi]:
                        ready.append(hi)
            outs.append(order)
        return outs

    def _positions(self, ext: Sequence[int]) -> list[int]:
        """Each node's position in `ext`; raise unless `ext` permutes the nodes."""
        n = len(self)
        pos = [-1] * n  # the inverse permutation; n entries fill it iff they permute
        for k, v in enumerate(ext):
            if 0 <= v < n:
                pos[v] = k
        if len(ext) != n or -1 in pos:
            raise NotLinearExtensionError("not a permutation of the nodes")
        return pos

    def check_linear_extension(self, ext: Sequence[int]) -> list[int]:
        """Raise unless `ext` is a linear extension; return each node's position."""
        pos = self._positions(ext)
        for lo, hi in zip(self.lo, self.hi):
            if pos[lo] > pos[hi]:
                raise NotLinearExtensionError(f"{lo} must precede {hi}")
        return pos

    def h_from_shelling(self, ext: Sequence[int]) -> list[int]:
        """Restriction sizes along a shelling order: each dual edge counts
        toward its later end.  Dual record k is Hasse edge k, so each later
        end must be its upper end (`NotLinearExtensionError` if not): the
        sizes are the down-cover polynomial, and comparing the two checks
        only that `ext` is a linear extension."""
        pos = self._positions(ext)
        at = pos.__getitem__
        if not all(map(lt, map(at, self.lo), map(at, self.hi))):
            k = next(k for k, (lo, hi) in enumerate(zip(self.lo, self.hi)) if pos[lo] > pos[hi])
            raise NotLinearExtensionError(f"{self.lo[k]} must precede {self.hi[k]}")
        return self.dcov_polynomial()

    def shelling_agrees(self, extensions: int, seed: int) -> bool:
        """The shelling h-vector equals the down-cover polynomial on the
        default linear extension and on `extensions` random ones."""
        dcov = self.dcov_polynomial()
        exts = [self.default_linear_extension(), *self.random_linear_extensions(extensions, seed)]
        return all(self.h_from_shelling(e) == dcov for e in exts)

    @functools.cached_property
    def kappa(self) -> dict[int, int]:
        """Node whose up-brick set equals the argument's down-brick set, so
        dcov(i) == ucov(kappa[i]) by construction.  Cover labels at a node
        form a semibrick, so a node's bricks each way are distinct."""
        n, bits = len(self), [1 << w for w in range(len(self.bricks))]
        up, down = [0] * n, [0] * n
        for lo, hi, w in zip(self.lo, self.hi, self.brick):
            bit, u, d = bits[w], up[lo], down[hi]
            if u & bit or d & bit:
                node, side = (lo, "up") if u & bit else (hi, "down")
                raise ConsistencyError(
                    "cover-bricks-distinct",
                    f"brick {self.bricks[w]} labels two {side}-covers of node {node}",
                )
            up[lo], down[hi] = u | bit, d | bit
        up_index = dict(zip(up, range(n)))
        if len(up_index) < n:  # name the nodes of the first repeated key
            key = next(key for i, key in enumerate(up) if up_index[key] != i)
            nodes = [i for i, other in enumerate(up) if other == key]
            raise ConsistencyError(
                "up-bricks-determine-node", f"nodes {nodes} share up-brick multiset"
            )
        try:
            out = dict(zip(range(n), map(up_index.__getitem__, down)))
        except KeyError:
            i = next(i for i, key in enumerate(down) if key not in up_index)
            raise NoKappaImageError(f"node {i} has no kappa image") from None
        if len(set(out.values())) != len(out):
            raise ConsistencyError("kappa-bijective", "kappa is not injective")
        return out

    def covers(self, lo: int, hi: int) -> bool:
        return lo in self.downs[hi]


def build_poset(
    g: Dag,
    table: CoherenceTable,
    dual: DualGraph,
    labels: Mapping[EdgeId, int],
    kiss: Sequence[int],
) -> TauPoset:
    """Orient every flip record of `dual`, the flip traversal of `table`,
    each pair of `dual.pairs` once by the edge `labels`, and certify the
    result as its own Hasse diagram from the routes' `kiss` rows (module
    docstring)."""
    routes = table.routes
    brick_ids: dict[Brick, int] = {}
    # per pair: does the clique that holds `leaving` (a record's a) sit
    # above, and the pair's brick id
    a_above, brick_of = [], []
    for ex in dual.pairs:
        sign, brick = orient_dual_edge(g, labels, routes[ex.leaving], routes[ex.entering])
        a_above.append(sign > 0)
        brick_of.append(brick_ids.setdefault(brick, len(brick_ids)))
    lo = tuple([b if a_above[p] else a for a, b, p in zip(dual.a, dual.b, dual.pair)])
    hi = tuple([a if a_above[p] else b for a, b, p in zip(dual.a, dual.b, dual.pair)])
    brick = tuple(map(brick_of.__getitem__, dual.pair))
    poset = TauPoset(list(routes), lo, hi, brick, list(brick_ids), dual)
    poset.topological_nodes  # acyclicity check
    _certify_covers(poset, kiss, table.adjacency)
    return poset


def _certify_covers(p: TauPoset, kiss: Sequence[int], adj: Sequence[int]) -> None:
    """C1 and C2 in O(routes + pairs + records), from the routes' `kiss`
    rows and coherence rows `adj`.  Hasse edge k must be dual record k,
    between cliques that differ by the record's exchange."""
    for u, (row, coherent) in enumerate(zip(kiss, adj)):
        if row & (coherent | 1 << u):
            raise ConsistencyError("hasse-edges-follow-kissing-order", f"route {u} kisses a coherent route")
    d, masks = p.dual, p.dual.masks
    # per pair: may a record's a lie below (its entering route kisses the
    # leaving one, not back), may it lie above, and the two routes
    below = [kiss[x.entering] >> x.leaving & 1 and not kiss[x.leaving] >> x.entering & 1 for x in d.pairs]
    above = [kiss[x.leaving] >> x.entering & 1 and not kiss[x.entering] >> x.leaving & 1 for x in d.pairs]
    routes = [1 << x.leaving | 1 << x.entering for x in d.pairs]
    for lo, hi, a, b, q in zip(p.lo, p.hi, d.a, d.b, d.pair):
        ends = hi == b if lo == a else lo == b and hi == a
        if ends and (below[q] if lo == a else above[q]) and masks[a] ^ masks[b] == routes[q]:
            continue
        r, s = (d.pairs[q].leaving, d.pairs[q].entering)[:: 1 if lo == a else -1]
        against = ends and masks[a] ^ masks[b] == routes[q] and kiss[r] >> s & 1
        raise ConsistencyError(
            "hasse-edges-follow-kissing-order" if against else "oriented-dual-edges-are-covers",
            f"edge {lo}<{hi} on dual edge {a}-{b} trades route {r} for {s}",
        )
    if len(p.lo) != len(d.a):
        raise ConsistencyError(
            "oriented-dual-edges-are-covers", f"{len(p.lo)} Hasse edges for {len(d.a)} dual edges"
        )
