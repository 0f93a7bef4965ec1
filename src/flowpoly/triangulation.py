"""DKK triangulation: maximal cliques, unimodularity, dual graph, flips.

Maximal simplices of the triangulation are the maximal sets of pairwise
coherent routes.  Two enumeration strategies are provided (pivoting
Bron-Kerbosch on the coherence graph, and flip traversal from a seed
clique) so each can certify the other.  Both keep a clique as a bitmask of
routes, and a sorted route tuple is decoded only where one is printed or
reported.  The flip traversal also yields the dual graph as int columns,
one record per dual edge, and those records certify unimodularity from a
single determinant by an exchange argument (`unimodular_by_exchange`).  A
record's swaps depend only on its exchanged route pair, which many records
share, so each record holds the id of its pair in one table, and the swaps
are computed once per pair.
"""

from __future__ import annotations

import bisect
import functools
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .dag import Dag, Route, flow_dims
from .errors import CliqueExplosionError, NoFlipError, NotSimplexError
from .framing import CoherenceTable

Clique = tuple[int, ...]  # sorted route indices

DEFAULT_MAX_CLIQUES = 10**6


def bron_kerbosch(
    adj: Sequence[int], candidates: int, max_cliques: int = DEFAULT_MAX_CLIQUES
) -> list[int]:
    """Maximal cliques of the graph induced on the `candidates` bitmask.

    `adj[v]` is the neighbour bitmask of vertex v, without v itself.
    Pivoting Bron-Kerbosch (Tomita-Tanaka-Takahashi): the pivot is the
    vertex of P | X with the most neighbours in P.  Cliques come back as
    vertex bitmasks in search order; no candidates gives [0].
    """
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            if len(out) > max_cliques:
                raise CliqueExplosionError(f"more than {max_cliques} maximal cliques")
            return
        pool = p | x
        best, best_cover = -1, -1
        while pool:
            v = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            c = (p & adj[v]).bit_count()
            if c > best_cover:
                best, best_cover = v, c
        cand = p & ~adj[best]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    try:
        expand(0, candidates, 0)
    finally:
        # expand refers to itself through its closure cell, a reference
        # cycle that would keep `out` alive until a full collection; emptying
        # the cell breaks it
        del expand
    return out


def mask_members(mask: int) -> Clique:
    """The set bits of `mask`, ascending: a clique mask decoded."""
    members = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        members.append(v)
    return tuple(members)


def clique_masks(table: CoherenceTable, max_cliques: int = DEFAULT_MAX_CLIQUES) -> list[int]:
    """All maximal cliques of the coherence graph, as sorted route bitmasks.

    Every maximal clique contains the exceptional routes, so the search
    runs on the non-exceptional part only.
    """
    exceptional = sum(1 << i for i in table.exceptional_indices)
    rest = (1 << len(table.routes)) - 1 ^ exceptional
    return sorted([c | exceptional for c in bron_kerbosch(table.adjacency, rest, max_cliques)])


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
    normalized volume.  1 means unimodular, 0 means degenerate.
    """
    d = flow_dims(g)[1]
    if len(routes) != d + 1:
        raise NotSimplexError(f"clique has {len(routes)} routes, need {d + 1}")
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
    """True iff the clique spans a unimodular simplex; NotSimplex if not dim+1."""
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

    Cliques are numbered in lexicographic order of their route tuples.
    masks[i] is clique i as a bitmask of routes, and members[i] its
    non-exceptional routes, ascending; `clique(i)` adds the `exceptional`
    routes.  Record k joins cliques a[k] < b[k], sorted by (a, b): clique
    b[k] is clique a[k] with pairs[pair[k]].leaving replaced by its
    entering route; records that exchange one route pair share its entry
    of `pairs`."""

    members: list[Clique]
    exceptional: Clique
    masks: list[int]
    a: Sequence[int]
    b: Sequence[int]
    pair: Sequence[int]
    pairs: list[Exchange]

    def clique(self, i: int) -> Clique:
        """Clique i as a sorted route tuple."""
        return tuple(sorted(self.members[i] + self.exceptional))

    # every clique decoded, on first use
    cliques = functools.cached_property(lambda self: list(map(self.clique, range(len(self.members)))))


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
            raise NoFlipError(f"ridge {ridge} lies in {len(members)} maximal cliques")
    return sorted(tuple(sorted(pair)) for pair in ridges.values() if len(pair) == 2)


def _exchange(adj: Sequence[int], common: int, route_idx: int) -> int:
    """The route that replaces `route_idx` over a ridge whose common
    coherent neighbours form the bitmask `common`.

    Every route coherent with the whole ridge belongs to one of the (at
    most two) maximal cliques over it, so `common` holds exactly the
    outgoing route and its unique replacement, and the two conflict.
    """
    if not common >> route_idx & 1:
        raise NoFlipError("clique is not a clique of this coherence table")
    others = common & ~(1 << route_idx)
    if others.bit_count() != 1 or adj[route_idx] & others:
        raise NoFlipError(
            f"ridge admits {others.bit_count()} exchanges for route {route_idx}, expected 1"
        )
    return others.bit_length() - 1


def _swaps(table: CoherenceTable, r: int, s: int) -> tuple[int, int]:
    """The routes r[:cut] + s[cut':] and s[:cut'] + r[cut:] cut at the
    smallest conflict vertex of routes r and s, as indices (-1 if not in
    the table)."""
    v = table.conflict_vertices(r, s)[0]
    cut_r, cut_s = table.route_cuts[r][v], table.route_cuts[s][v]
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
    sorted, and one record per dual edge, sorted by clique pair.

    The cross-check for `maximal_cliques`.  A flip and its reverse test the
    same ridge, so each dual edge is flipped once: flipping r out of a
    clique marks the reverse flip on the neighbour as done.  The ridge
    masks of a clique come from prefix and suffix ANDs of its members'
    adjacency rows.  An exceptional route is coherent with every other one,
    so the traversal ANDs only the non-exceptional members' rows, from the
    non-exceptional routes, and adds the exceptional routes at the end.
    """
    n = len(table.routes)
    adj = table.adjacency
    exc = table.exceptional_indices
    exceptional = sum(1 << i for i in exc)
    rest = (1 << n) - 1 ^ exceptional
    members: list[int] = []
    for v in range(n):
        if rest >> v & 1 and all(adj[v] >> i & 1 for i in (*exc, *members)):
            members.append(v)
    # cliques in order of discovery, as non-exceptional route tuples and
    # bitmasks; done[i] marks the routes of clique i whose flip is already
    # recorded from the other side
    found = [tuple(members)]
    masks = [sum(1 << i for i in members)]
    ids = {masks[0]: 0}
    done = [0]
    # flip k goes from clique flip_i[k] to flip_j[k], in discovery ids, and
    # exchanges the unordered pair exchanges[flip_code[k] >> 1] = (r, s,
    # swap, swap_in), r < s, keyed by the ridge's two-bit `common` mask; the
    # low bit is set when the flip exchanges s for r
    flip_i, flip_j, flip_code = array("i"), array("i"), array("i")
    exchanges: list[tuple[int, int, int, int]] = []
    pair_ids: dict[int, int] = {}
    stack = [0]
    while stack:
        i = stack.pop()
        c, mask, skip = found[i], masks[i], done[i]
        suffix, acc = [rest], rest  # suffix[k]: the AND of rest and c[k:]'s rows
        for r in reversed(c):
            acc &= adj[r]
            suffix.append(acc)
        suffix.reverse()
        prefix = rest
        for k, r in enumerate(c):
            if skip >> r & 1:
                prefix &= adj[r]
                continue
            common = prefix & suffix[k + 1]
            prefix &= adj[r]
            bit = 1 << r  # common must be r and its one replacement s
            if common.bit_count() != 2 or not common & bit or adj[r] & common:
                _exchange(adj, common, r)  # raises
            s = (common ^ bit).bit_length() - 1
            other = mask ^ common
            j = ids.get(other)
            if j is None:
                j = ids[other] = len(masks)
                if j >= max_cliques:
                    raise CliqueExplosionError(f"more than {max_cliques} maximal cliques")
                ridge = c[:k] + c[k + 1 :]
                at = bisect.bisect(ridge, s)
                found.append(ridge[:at] + (s,) + ridge[at:])
                masks.append(other)
                done.append(1 << s)
                stack.append(j)
            else:
                done[j] |= 1 << s
            p = pair_ids.get(common)
            if p is None:
                p = pair_ids[common] = len(exchanges)
                lo, hi = (r, s) if r < s else (s, r)
                exchanges.append((lo, hi, *_swaps(table, lo, hi)))
            flip_i.append(i)
            flip_j.append(j)
            flip_code.append(2 * p + (r > s))
    del ids, done, pair_ids
    # the least route in one clique and not in the other decides the
    # lexicographic order, and it is never exceptional
    order = sorted(range(len(found)), key=found.__getitem__)
    rank = sorted(range(len(order)), key=order.__getitem__)  # the inverse permutation
    found = [found[i] for i in order]
    masks = [masks[i] | exceptional for i in order]
    # one int key per flip sorts the records by clique pair a < b:
    # (a * n_cliques + b) * n_codes + code, where the code's low bit is
    # flipped when the flip went from b to a, so that it is set iff the
    # record's a holds the pair's larger route
    n_cliques, n_codes = len(found), 2 * len(exchanges)
    keys = [
        (a * n_cliques + b) * n_codes + code
        if a < b
        else (b * n_cliques + a) * n_codes + (code ^ 1)
        for a, b, code in zip(map(rank.__getitem__, flip_i), map(rank.__getitem__, flip_j), flip_code)
    ]
    del flip_i, flip_j, flip_code, rank, order
    keys.sort()
    codes = [key % n_codes for key in keys]
    # pair ids in order of first use
    pair_of = {code: p for p, code in enumerate(dict.fromkeys(codes))}
    pairs = []
    for code in pair_of:
        r, s, sw, sw_in = exchanges[code >> 1]
        pairs.append(Exchange(s, r, sw_in, sw) if code & 1 else Exchange(r, s, sw, sw_in))
    row, nodes = n_cliques * n_codes, list(range(n_cliques))
    return DualGraph(
        found,
        exc,
        masks,
        tuple([nodes[key // row] for key in keys]),
        tuple([nodes[key // n_codes % n_cliques] for key in keys]),
        tuple(map(pair_of.__getitem__, codes)),
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
    routes = table.routes
    vectors = [sum(1 << e for e in r) for r in routes]
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
    # row order changes only the determinant's sign
    return verify_unimodular(g, [routes[i] for i in dual.members[0] + dual.exceptional])
