"""DKK triangulation: maximal cliques, unimodularity, dual graph, flips.

Maximal simplices of the triangulation are the maximal sets of pairwise
coherent routes.  Two enumeration strategies are provided (pivoting
Bron-Kerbosch on the coherence graph, and breadth-first flip traversal
from a seed clique) so each can certify the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .dag import Dag, Route, flow_dims
from .errors import CliqueExplosionError, NoFlipError, NotSimplexError
from .framing import CoherenceTable

Clique = tuple[int, ...]  # sorted route indices

DEFAULT_MAX_CLIQUES = 10**6


def bron_kerbosch(
    adj: Sequence[int], candidates: int, max_cliques: int = DEFAULT_MAX_CLIQUES
) -> list[Clique]:
    """Maximal cliques of the graph induced on the `candidates` bitmask.

    `adj[v]` is the neighbour bitmask of vertex v, without v itself.
    Pivoting Bron-Kerbosch (Tomita-Tanaka-Takahashi): the pivot is the
    vertex of P | X with the most neighbours in P.  Cliques come back as
    sorted vertex tuples in search order; no candidates gives [()].
    """
    out: list[Clique] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(_members(r))
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

    expand(0, candidates, 0)
    return out


def _members(mask: int) -> Clique:
    members = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        members.append(v)
    return tuple(members)


def maximal_cliques(table: CoherenceTable, max_cliques: int = DEFAULT_MAX_CLIQUES) -> list[Clique]:
    """All maximal cliques of the coherence graph, sorted.

    Every maximal clique contains the exceptional routes, so the search
    runs on the non-exceptional part only.
    """
    base = table.exceptional_indices
    rest = (1 << len(table.routes)) - 1 - sum(1 << i for i in base)
    return sorted(
        tuple(sorted(base + c)) for c in bron_kerbosch(table.adjacency, rest, max_cliques)
    )


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


@dataclass
class DualGraph:
    cliques: list[Clique]
    edges: list[tuple[int, int]]  # pairs of clique indices, i < j

    @functools.cached_property
    def neighbors(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.cliques))}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {k: sorted(v) for k, v in adj.items()}

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])


def dual_graph(cliques: Sequence[Clique]) -> DualGraph:
    """Cliques adjacent when they differ in exactly one route (shared ridge)."""
    ridges: dict[tuple[int, ...], list[int]] = {}
    for idx, c in enumerate(cliques):
        for drop in c:
            ridge = tuple(x for x in c if x != drop)
            ridges.setdefault(ridge, []).append(idx)
    edges = sorted(
        {tuple(sorted(pair)) for pair in ridges.values() if len(pair) == 2}
    )
    for ridge, members in ridges.items():
        if len(members) > 2:
            raise NoFlipError(f"ridge {ridge} lies in {len(members)} maximal cliques")
    return DualGraph(list(cliques), [tuple(p) for p in edges])


def flip(table: CoherenceTable, clique: Clique, route_idx: int) -> tuple[Clique, int]:
    """Exchange a non-exceptional route for the unique alternative.

    Returns the adjacent maximal clique and the incoming route index.
    Computed locally from the coherence graph so flip traversal is an
    independent check on the global enumeration.
    """
    if route_idx in table.exceptional_indices:
        raise NoFlipError("exceptional routes are in every maximal clique")
    if route_idx not in clique:
        raise NoFlipError("route not in clique")
    ridge = [i for i in clique if i != route_idx]
    adj = table.adjacency
    mask = functools.reduce(lambda m, i: m & adj[i], ridge, (1 << len(table.routes)) - 1)
    candidates = set(_members(mask))
    # every route coherent with the whole ridge belongs to one of the (at
    # most two) maximal cliques over it, so the candidates beyond the ridge
    # are exactly the outgoing route and its unique replacement
    extra = sorted(candidates - set(ridge))
    if route_idx not in extra:
        raise NoFlipError("clique is not a clique of this coherence table")
    others = [v for v in extra if v != route_idx]
    if len(others) != 1 or (adj[others[0]] >> route_idx) & 1:
        raise NoFlipError(
            f"ridge admits {len(others)} exchanges for route {route_idx}, expected 1"
        )
    new = tuple(sorted(ridge + [others[0]]))
    return new, others[0]


def maximal_cliques_by_flips(table: CoherenceTable) -> list[Clique]:
    """Flip traversal from a greedy seed clique; cross-check for maximal_cliques."""
    n = len(table.routes)
    adj = table.adjacency
    members = list(table.exceptional_indices)
    for v in range(n):
        if v in members:
            continue
        if all(adj[v] >> i & 1 for i in members):
            members.append(v)
    seed = tuple(sorted(members))
    exceptional = set(table.exceptional_indices)
    seen = {seed}
    frontier = [seed]
    while frontier:
        c = frontier.pop()
        for r in c:
            if r in exceptional:
                continue
            other, _ = flip(table, c, r)
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return sorted(seen)
