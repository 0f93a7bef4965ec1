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
from typing import Callable, Iterator, Mapping, Sequence

from .dag import EdgeId
from .errors import ConsistencyError, FlowpolyError, NotLinearExtensionError
from .framing import CoherenceTable
from .triangulation import Clique, DualGraph

# A brick is a walk in the base DAG: (v0, e1, v1, ..., ek, vk), possibly a
# single vertex (v0,).
Brick = tuple[int, ...]


def orient_dual_edge(
    table: CoherenceTable, labels: Mapping[EdgeId, int], i: int, j: int
) -> tuple[int, Brick]:
    """Decide which of the exchanged routes i and j of `table` sits above
    the other.

    Returns (+1, w) when the clique containing route i covers the one with
    route j, (-1, w) for the opposite, where w is the qualifying common
    component: r-upper enters w on a weight-2 edge and leaves on a weight-1
    edge while the lower route does the reverse.  A component through a
    source or sink never qualifies, because its shared end edge gives both
    routes one label, so the components read here are runs of shared inner
    vertices joined by the same edge on both routes.  The shared vertices
    and their cuts are read off the two routes' `table.stops`.
    """
    r1, r2 = table.routes[i], table.routes[j]
    stops2 = table.stops[j]
    hits: list[tuple[int, int, int, int]] = []  # (sign, first vertex, its cut on r1, edges)
    for v, (c1, _, _) in table.stops[i].items():
        c2 = stops2[v][0] if v in stops2 else None
        if c2 is None or labels[r1[c1 - 1]] == labels[r2[c2 - 1]]:
            continue  # not shared, or both enter on one label (or one edge)
        k = 0  # edges of the component
        while c1 + k < len(r1) and r1[c1 + k] == r2[c2 + k]:
            k += 1
        if c1 + k == len(r1):
            continue  # it holds the routes' sink
        pat1 = (labels[r1[c1 - 1]], labels[r1[c1 + k]])
        pat2 = (labels[r2[c2 - 1]], labels[r2[c2 + k]])
        if pat1 == (2, 1) and pat2 == (1, 2):
            hits.append((1, v, c1, k))
        elif pat1 == (1, 2) and pat2 == (2, 1):
            hits.append((-1, v, c1, k))
    if not hits:
        raise ConsistencyError("dual-edge-orientation-exists", f"no qualifying component for {r1} vs {r2}")
    if len(hits) > 1:
        raise ConsistencyError(
            "dual-edge-orientation-unique", f"{len(hits)} qualifying components for {r1} vs {r2}"
        )
    sign, v, c1, k = hits[0]
    head, w = table.g.head, [v]
    for e in r1[c1 : c1 + k]:
        w += (e, head[e])
    return sign, tuple(w)


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
    bricks[brick[k]]; each brick is interned once.  Beside these columns
    the poset keeps only each node's upper covers (`ups`, one int tuple per
    node, which the garbage collector untracks), which Kahn's sweep reads,
    its cover counts each way as int lists, and kappa as a node list."""

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

    @functools.cached_property
    def ups(self) -> list[tuple[int, ...]]:
        """Each node's upper covers, in Hasse edge order."""
        out: list = [[] for _ in range(len(self))]
        for lo, hi in zip(self.lo, self.hi):
            out[lo].append(hi)
        for node, covers in enumerate(out):  # one list freed per tuple made
            out[node] = tuple(covers)
        return out

    @functools.cached_property
    def down_degrees(self) -> list[int]:
        """Each node's number of lower covers."""
        count = Counter(self.hi)
        return [count[node] for node in range(len(self))]

    up_degrees = functools.cached_property(lambda self: list(map(len, self.ups)))
    _dcov = functools.cached_property(lambda self: Counter(self.down_degrees))  # nodes by down-degree

    def dcov_polynomial(self) -> list[int]:
        """Coefficient i counts nodes covering exactly i elements."""
        return [self._dcov[k] for k in range(max(self._dcov, default=0) + 1)]

    def _sweep(self, getrandbits: Callable[[int], int] | None = None) -> list[int]:
        """Kahn's sweep (Kahn, CACM 1962): place a ready node, one whose lower
        covers are all placed, until none is left.  It takes the last ready
        node, or with `getrandbits` one drawn as `randrange` draws, inlined."""
        ups, indeg = self.ups, self.down_degrees[:]
        ready = [node for node, d in enumerate(indeg) if not d]
        order: list[int] = []
        while ready:
            if getrandbits is None:
                v = ready.pop()
            else:
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
        if len(order) != len(self):
            raise ConsistencyError("order-closure-acyclic", "oriented dual graph is not acyclic")
        return order

    _default_order = functools.cached_property(lambda self: self._sweep())

    def default_linear_extension(self) -> list[int]:
        """The sweep taking the last ready node, run once: `build_poset` reads
        it as its acyclicity check."""
        return list(self._default_order)

    def random_linear_extensions(self, count: int, seed: int) -> list[list[int]]:
        """`count` sweeps drawing from one `random.Random(seed)`."""
        if count < 0:
            raise FlowpolyError(f"extension count {count} is negative")
        getrandbits = random.Random(seed).getrandbits
        return [self._sweep(getrandbits) for _ in range(count)]

    def check_linear_extension(self, ext: Sequence[int]) -> list[int]:
        """Raise unless `ext` is a linear extension; return each node's position."""
        n = len(self)
        pos = [-1] * n  # the inverse permutation; n entries fill it iff they permute
        for k, v in enumerate(ext):
            if 0 <= v < n:
                pos[v] = k
        if len(ext) != n or -1 in pos:
            raise NotLinearExtensionError("not a permutation of the nodes")
        at = pos.__getitem__
        if not all(map(lt, map(at, self.lo), map(at, self.hi))):
            k = next(k for k, (lo, hi) in enumerate(zip(self.lo, self.hi)) if pos[lo] > pos[hi])
            raise NotLinearExtensionError(f"{self.lo[k]} must precede {self.hi[k]}")
        return pos

    def h_from_shelling(self, ext: Sequence[int]) -> list[int]:
        """Restriction sizes along a shelling order: each dual edge counts
        toward its later end.  Dual record k is Hasse edge k, so each later
        end must be its upper end (`NotLinearExtensionError` if not): the
        sizes are the down-cover polynomial, and comparing the two checks
        only that `ext` is a linear extension."""
        self.check_linear_extension(ext)
        return self.dcov_polynomial()

    def shelling_agrees(self, extensions: int, seed: int) -> bool:
        """The shelling h-vector equals the down-cover polynomial on the
        default linear extension and on `extensions` random ones; False if
        one of them is not a linear extension."""
        dcov = self.dcov_polynomial()
        exts = [self.default_linear_extension(), *self.random_linear_extensions(extensions, seed)]
        try:
            return all(self.h_from_shelling(e) == dcov for e in exts)
        except NotLinearExtensionError:
            return False

    @functools.cached_property
    def kappa(self) -> list[int]:
        """kappa[i] is the node whose up-cover bricks are node i's down-cover
        bricks.  Cover labels at a node form a semibrick, so a node's bricks
        are distinct each way and down_degrees[i] == up_degrees[kappa[i]]
        holds by construction: only a broken kappa fails
        `kappa-swaps-cover-statistics`.  Each side is a bitmask of brick ids
        per node, and the one dict, from up-masks to nodes, is transient."""
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
            out = list(map(up_index.__getitem__, down))
        except KeyError:
            i = next(i for i, key in enumerate(down) if key not in up_index)
            raise ConsistencyError("kappa-total", f"node {i} has no kappa image") from None
        hit = bytearray(n)
        for j in out:
            hit[j] = 1
        if hit.count(0):
            raise ConsistencyError("kappa-bijective", "kappa is not injective")
        return out


def build_poset(
    table: CoherenceTable,
    dual: DualGraph,
    labels: Mapping[EdgeId, int],
    kiss: Sequence[int],
) -> TauPoset:
    """Orient every flip record of `dual`, the flip traversal of `table`,
    each pair of `dual.pairs` once by the edge `labels`, and certify the
    result as its own Hasse diagram from the routes' `kiss` rows (module
    docstring)."""
    brick_ids: dict[Brick, int] = {}
    # per pair: does the clique that holds `leaving` (a record's a) sit
    # above, and the pair's brick id
    a_above, brick_of = [], []
    for ex in dual.pairs:
        sign, brick = orient_dual_edge(table, labels, ex.leaving, ex.entering)
        a_above.append(sign > 0)
        brick_of.append(brick_ids.setdefault(brick, len(brick_ids)))
    lo = tuple([b if a_above[p] else a for a, b, p in zip(dual.a, dual.b, dual.pair)])
    hi = tuple([a if a_above[p] else b for a, b, p in zip(dual.a, dual.b, dual.pair)])
    brick = tuple(map(brick_of.__getitem__, dual.pair))
    poset = TauPoset(lo, hi, brick, list(brick_ids), dual)
    poset._default_order  # acyclicity check
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
