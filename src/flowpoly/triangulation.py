"""DKK triangulation: maximal cliques, unimodularity, dual graph, flips.

Maximal simplices of the triangulation are the maximal sets of pairwise
coherent routes.  Two enumeration strategies are provided (pivoting
Bron-Kerbosch on the coherence graph, and flip traversal from a seed
clique) so each can certify the other.  Both keep a clique as a bitmask of
routes, and a sorted route tuple is decoded only where one is printed or
reported.  The flip traversal counts, per clique, how many of its members
each route conflicts with: the counts certify that the clique is maximal
and name, for each member, the one route that replaces it.  It also yields
the dual graph as int columns, one record per dual edge, and those records
certify unimodularity from a single determinant by an exchange argument
(`unimodular_by_exchange`).  A record's swaps depend only on its exchanged
route pair, which many records share, so each record holds the id of its
pair in one table, and the swaps are computed once per pair, from the two
routes' entries in the coherence table's stop table (`stops`).  Cliques are
numbered in breadth-first visit order, which no verdict depends on;
lexicographic numbers exist only in printed output
(`DualGraph.relabelled`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .dag import Dag, Route, flow_dims
from .errors import CliqueExplosionError, ConsistencyError
from .framing import CoherenceTable

Clique = tuple[int, ...]  # sorted route indices

DEFAULT_MAX_CLIQUES = 10**6


def bron_kerbosch(
    adj: Sequence[int], candidates: int, max_cliques: int = DEFAULT_MAX_CLIQUES, base: int = 0
) -> list[int]:
    """Maximal cliques of the graph induced on the `candidates` bitmask.

    `adj[v]` is the neighbour bitmask of vertex v, without v itself.
    Pivoting Bron-Kerbosch (Tomita-Tanaka-Takahashi): the pivot is the
    vertex of P | X with the most neighbours in P.  Cliques come back as
    vertex bitmasks in search order, each joined with `base` (vertices
    outside `candidates`); no candidates gives [base].
    """
    out: list[int] = []
    _expand(adj, base, candidates, 0, out, max_cliques)
    return out


def _expand(adj: Sequence[int], r: int, p: int, x: int, out: list[int], max_cliques: int) -> None:
    """Append to `out` every maximal clique that adds to r vertices of p and none of x."""
    if not p:  # r is maximal iff no vertex of x extends it either
        if not x:
            out.append(r)
            if len(out) > max_cliques:
                raise CliqueExplosionError(f"more than {max_cliques} maximal cliques")
        return
    pool = p | x
    best, best_cover = -1, -1
    while pool:  # highest bit first, as in `mask_members`
        v = pool.bit_length() - 1
        pool ^= 1 << v
        c = (p & adj[v]).bit_count()
        if c > best_cover:
            best, best_cover = v, c
    cand = p & ~adj[best]
    while cand:
        v = cand.bit_length() - 1
        bit = 1 << v
        cand ^= bit
        _expand(adj, r | bit, p & adj[v], x & adj[v], out, max_cliques)
        p ^= bit
        x |= bit


def mask_members(mask: int) -> Clique:
    """The set bits of `mask`, ascending: a clique mask decoded."""
    members = []
    while mask:  # highest bit first: two int operations per bit, not four
        v = mask.bit_length() - 1
        mask ^= 1 << v
        members.append(v)
    return tuple(reversed(members))


def clique_masks(table: CoherenceTable, max_cliques: int = DEFAULT_MAX_CLIQUES) -> list[int]:
    """All maximal cliques of the coherence graph, as sorted route bitmasks.

    Every maximal clique contains the exceptional routes, so the search
    starts from them and runs on the non-exceptional part only.
    """
    exceptional = (1 << len(table.routes)) - 1 ^ table.live
    masks = bron_kerbosch(table.adjacency, table.live, max_cliques, exceptional)
    masks.sort()
    return masks


def maximal_cliques(table: CoherenceTable, max_cliques: int = DEFAULT_MAX_CLIQUES) -> list[Clique]:
    """All maximal cliques of the coherence graph as sorted route tuples, sorted."""
    return sorted(map(mask_members, clique_masks(table, max_cliques)))


# -- unimodularity ------------------------------------------------------------


def simplex_volume(g: Dag, routes: Sequence[Route]) -> int:
    """Normalized volume of the simplex on the routes' characteristic vectors.

    Computed relative to the lattice of integer flows of equal strength.
    The d+1 routes of a d-simplex, written in the d+1 flow-lattice
    coordinates, form a square matrix; strength is a primitive linear form
    that is 1 on every route, so the absolute determinant is the simplex's
    normalized volume.  1 means unimodular, 0 means degenerate.  Fewer or
    more than d+1 routes break `cliques-are-simplices`.
    """
    d = flow_dims(g)[1]
    if len(routes) != d + 1:
        raise ConsistencyError("cliques-are-simplices", f"clique has {len(routes)} routes, need {d + 1}")
    pos = {e: i for i, e in enumerate(g.nontree_edges)}
    mat = []
    for r in routes:
        row = [0] * len(pos)
        for e in r:
            if e in pos:
                row[pos[e]] = 1
        mat.append(row)
    return abs(_int_det(mat))


def _int_det(m: list[list[int]]) -> int:
    """Bareiss fraction-free determinant."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def verify_unimodular(g: Dag, routes: Sequence[Route]) -> bool:
    """True iff the clique spans a unimodular simplex (`simplex_volume`)."""
    return simplex_volume(g, routes) == 1


# -- dual graph and flips -------------------------------------------------------


class Exchange(NamedTuple):
    """An exchanged route pair: `entering` takes the place of `leaving`.

    `swap` and `swap_in` are the routes that trade tails at a conflict
    vertex v of the pair, leaving[:cut] + entering[cut':] and
    entering[:cut'] + leaving[cut:] with cut, cut' the positions of v.
    So leaving + entering = swap + swap_in as 0/1 edge vectors.  A swap
    that is not a route of the table is -1.
    """

    leaving: int
    entering: int
    swap: int
    swap_in: int


@dataclass
class DualGraph:
    """The flip traversal's cliques and dual edges, as int columns: tuples,
    which the garbage collector stops scanning, that share one int object
    per clique number, so a pass over them allocates no ints.

    Cliques are numbered in breadth-first visit order from the greedy seed,
    clique 0, which is the lexicographically least clique; `relabelled()`
    renumbers them in lexicographic order of their route tuples, for
    printed output only.  masks[i] is clique i as a bitmask of all its
    routes, exceptional ones included, and `cliques` decodes them.  Each
    dual edge has one record: record k joins cliques a[k] and b[k], where
    clique b[k] is clique a[k] with pairs[pair[k]].leaving replaced by its
    entering route, the larger one; records that exchange one route pair
    share its entry of `pairs`.  In visit order the records come in the
    order of the clique each was flipped from."""

    masks: list[int]
    a: Sequence[int]
    b: Sequence[int]
    pair: Sequence[int]
    pairs: list[Exchange]

    # every clique decoded, on first use
    cliques = functools.cached_property(lambda self: list(map(mask_members, self.masks)))

    def relabelled(self) -> DualGraph:
        """The same dual graph with its cliques numbered in lexicographic
        order of their route tuples, its records sorted by clique pair and
        its pairs numbered in order of first use.  Cliques that differ in
        one route compare as those two routes, so a record's a, which holds
        the smaller one, stays below its b.  The decoded cliques carry over."""
        cliques = self.cliques
        order = sorted(range(len(cliques)), key=cliques.__getitem__)
        rank = sorted(range(len(order)), key=order.__getitem__)  # the inverse permutation
        # one int key per record: (a * n_cliques + b) * n_pairs + pair
        n_cliques, n_pairs = len(order), len(self.pairs)
        keys = sorted(
            (a * n_cliques + b) * n_pairs + p
            for a, b, p in zip(map(rank.__getitem__, self.a), map(rank.__getitem__, self.b), self.pair)
        )
        del rank
        old = [key % n_pairs for key in keys]
        pair_of = {p: q for q, p in enumerate(dict.fromkeys(old))}  # in order of first use
        row, nodes = n_cliques * n_pairs, list(range(n_cliques))
        out = DualGraph(
            [self.masks[i] for i in order],
            tuple([nodes[key // row] for key in keys]),
            tuple([nodes[key // n_pairs % n_cliques] for key in keys]),
            tuple(map(pair_of.__getitem__, old)),
            [self.pairs[p] for p in pair_of],
        )
        out.cliques = [cliques[i] for i in order]
        return out


def dual_graph(cliques: Sequence[Clique]) -> list[tuple[int, int]]:
    """Sorted clique pairs (a, b), a < b, that differ in exactly one route.

    Hashes every ridge of every clique: the reference that the flip
    traversal's records are tested against."""
    ridges: dict[tuple[int, ...], list[int]] = {}
    for idx, c in enumerate(cliques):
        for drop in c:
            ridge = tuple(x for x in c if x != drop)
            ridges.setdefault(ridge, []).append(idx)
    for ridge, members in ridges.items():
        if len(members) > 2:
            raise ConsistencyError("unique-flip-neighbor", f"ridge {ridge} lies in {len(members)} maximal cliques")
    return sorted(tuple(sorted(pair)) for pair in ridges.values() if len(pair) == 2)


def _swaps(table: CoherenceTable, r: int, s: int) -> tuple[int, int]:
    """The routes r[:cut] + s[cut':] and s[:cut'] + r[cut:] cut at the
    smallest conflict vertex of routes r and s, as indices (-1 if not in
    the table).  The conflicts are read off the routes' stops, so neither
    route is walked."""
    _, cut_r, cut_s = min(table.conflict_cuts(r, s))
    route_r, route_s = table.routes[r], table.routes[s]
    index = table.route_index
    return (
        index.get(route_r[:cut_r] + route_s[cut_s:], -1),
        index.get(route_s[:cut_s] + route_r[cut_r:], -1),
    )


def maximal_cliques_by_flips(
    table: CoherenceTable, max_cliques: int = DEFAULT_MAX_CLIQUES
) -> DualGraph:
    """Flip traversal from a greedy seed clique: every maximal clique,
    numbered in breadth-first visit order, and one record per dual edge.

    The cross-check for `maximal_cliques`.  Route v's clash row holds the
    non-exceptional routes that conflict with it.  Per clique, the rows of
    its non-exceptional members are summed into bit-sliced counters: `once`
    holds the routes that conflict with at least one member, `twice` those
    that conflict with two or more.  The clique is one when no member is in
    `once`, and maximal when every other non-exceptional route is.  The
    routes that could replace member r are those that conflict with r
    alone, in `once` but not in `twice`, and there must be exactly one:
    none or two raise `unique-flip-neighbor`.  A flip and its reverse test
    the same ridge, so each dual edge is flipped once: flipping r out of a
    clique marks the reverse flip on the neighbour as done.  An exceptional
    route is coherent with every other one, so it has no clash row to
    count and rides along in every clique mask.
    """
    n = len(table.routes)
    adj, live = table.adjacency, table.live
    clash = [live & ~row & ~(1 << v) for v, row in enumerate(adj)]
    # the exceptional routes, then each other route coherent with all routes taken before it
    seed = (1 << n) - 1 ^ live
    for v in range(n):
        if live >> v & 1 and not seed & ~adj[v]:
            seed |= 1 << v
    # clique i is visited i-th, as a bitmask of all its routes; done[i]
    # marks the routes of clique i whose flip is already recorded from the
    # other side
    masks = [seed]
    ids = {seed: 0}
    done = [0]
    # record k joins clique a[k], which holds the smaller route of the
    # exchanged pair pairs[pair[k]], to clique b[k]; the pair table is
    # keyed by the two-bit mask of the pair
    a, b, pair = [], [], []
    a_append, b_append, pair_append = a.append, b.append, pair.append
    pairs: list[Exchange] = []
    pair_ids: dict[int, int] = {}
    clique_of, pair_of = ids.get, pair_ids.get
    for i, mask in enumerate(masks):  # `masks` grows as the walk goes on
        members = mask & live
        once = twice = 0
        rest = members
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            row = clash[v]
            twice |= once & row
            once |= row
        if once & members:
            raise ConsistencyError("unique-flip-neighbor", "clique is not a clique of this coherence table")
        if once | members != live:
            raise ConsistencyError("unique-flip-neighbor", "clique is not maximal in this coherence table")
        alone = once ^ twice  # the routes that conflict with one member
        todo = members ^ done[i]  # done[i] holds members only
        while todo:
            bit = todo & -todo
            todo ^= bit
            r = bit.bit_length() - 1
            entering = alone & clash[r]
            if not entering or entering & entering - 1:  # not a single bit
                raise ConsistencyError(
                    "unique-flip-neighbor", f"ridge admits {entering.bit_count()} exchanges for route {r}, expected 1"
                )
            common = bit | entering
            other = mask ^ common
            j = clique_of(other)
            if j is None:
                j = ids[other] = len(masks)
                if j >= max_cliques:
                    raise CliqueExplosionError(f"more than {max_cliques} maximal cliques")
                masks.append(other)
                done.append(entering)
            else:
                done[j] |= entering
            p = pair_of(common)
            if p is None:
                p = pair_ids[common] = len(pairs)
                s = entering.bit_length() - 1
                lo, hi = (r, s) if r < s else (s, r)
                pairs.append(Exchange(lo, hi, *_swaps(table, lo, hi)))
            if bit < entering:  # r < s
                a_append(i)
                b_append(j)
            else:
                a_append(j)
                b_append(i)
            pair_append(p)
    del ids, done, pair_ids, clique_of, pair_of
    nodes, pair_nums = list(range(len(masks))), list(range(len(pairs)))
    return DualGraph(
        masks,
        tuple(map(nodes.__getitem__, a)),
        tuple(map(nodes.__getitem__, b)),
        tuple(map(pair_nums.__getitem__, pair)),
        pairs,
    )


def unimodular_by_exchange(g: Dag, table: CoherenceTable, dual: DualGraph) -> bool:
    """Every clique of the flip traversal `dual` spans a unimodular simplex.

    Exchange argument: on a record, write R for the shared ridge, r and r'
    for the leaving and entering routes and s, s' for the swaps.  If
    r + r' = s + s' as edge vectors and s, s' lie in R, then expanding the
    determinant along the exchanged row gives det(R, r') = det(R, s) +
    det(R, s') - det(R, r) = -det(R, r), since a repeated row makes a
    determinant vanish.  So |det| is the same on the two cliques of every
    record, the traversal's dual graph is connected, and one determinant,
    on clique 0, settles all of them.  The vector identity is checked
    once per exchanged pair, and the ridge R of a record is the AND of its
    two clique masks.  False if a record breaks the argument or that
    determinant is not 1.
    """
    routes, pos = table.routes, {e: i for i, e in enumerate(g.edge_ids)}
    vectors = [sum(1 << pos[e] for e in r) for r in routes]  # over edge positions, not ids
    swaps = []  # per pair, the bitmask of its two swaps
    for r, r_in, s, s_in in dual.pairs:
        if s < 0 or s_in < 0:
            return False
        if (
            vectors[r] & vectors[r_in] != vectors[s] & vectors[s_in]
            or vectors[r] | vectors[r_in] != vectors[s] | vectors[s_in]
        ):
            return False
        swaps.append(1 << s | 1 << s_in)
    masks = dual.masks
    for a, b, p in zip(dual.a, dual.b, dual.pair):
        if masks[a] & masks[b] & swaps[p] != swaps[p]:
            return False
    seed = dual.masks[0]
    return verify_unimodular(g, [r for i, r in enumerate(routes) if seed >> i & 1])
