"""Lattice-point oracle for flow polytopes.

Counts the nonnegative integer flows of every strength t by the Lidskii
formula (Baldoni-Vergne, "Kostant partition functions and flow
polytopes", 2008; Meszaros-Morales, "Volumes and Ehrhart polynomials of
flow polytopes", 2019).  Number the vertices 1..n+1 topologically, 1 the
unique source and n+1 the unique sink: several sources are joined to a
virtual super-source by one edge each, and several sinks to a virtual
super-sink.  With o_i = outdeg(i) - 1, and G|n the graph without vertex
n+1 and its in-edges,

    counts[t] = sum_u C(t + o_1, o_1 + u) * c_u
    c_u = sum over j_1 = o_1 + u, j_i <= o_i of
          prod_{i >= 2} C(o_i, j_i) * K_{G|n}(j_1 - o_1, ..., j_n - o_n)

where K counts the nonnegative integer flows with the given netflows.  So
t enters only through binomials: the counts are a polynomial of degree at
most d = sum_i o_i, and c_{d - o_1} is the normalized volume
(Postnikov-Stanley).  From the counts the h*-vector is recovered exactly
in the binomial basis, with palindromicity, unimodality, and the special
simplex property of the exceptional routes.  Everything is exact integer
arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .dag import Dag, EdgeId, Route, flow_dims, is_full
from .errors import (
    FrontierExplosionError,
    NegativeCoefficientError,
    NonIntegralSolutionError,
    NotFullError,
)

DEFAULT_MAX_STATES = 2_000_000


def count_integer_flows(g: Dag, strength: int, max_states: int = DEFAULT_MAX_STATES) -> int:
    """Number of nonnegative integer flows with total source outflow `strength`."""
    if strength < 0:
        raise ValueError("strength must be nonnegative")
    return flow_count_table(g, strength, max_states)[strength]


def flow_count_table(g: Dag, tmax: int, max_states: int = DEFAULT_MAX_STATES) -> dict[int, int]:
    """Number of nonnegative integer flows of each strength 0..tmax.

    Evaluates the Lidskii formula (Baldoni-Vergne 2008, Meszaros-Morales
    2019) of the module docstring:

        counts[t] = sum_u C(t + o_1, o_1 + u) * c_u
        c_u = sum over j_1 = o_1 + u, j_i <= o_i of
              prod_{i >= 2} C(o_i, j_i) * K_{G|n}(j_1 - o_1, ..., j_n - o_n)

    so c_{d - o_1} is the normalized volume (Postnikov-Stanley).  The root
    1 is the source, or a virtual super-source joined to each source by one
    edge when there are several.  A sink can receive nothing in G|n: it is
    n+1, or, below a virtual super-sink joined to each sink by one edge, a
    vertex with o = 0 whose only out-edge was dropped.  So every sink is
    dropped with its in-edges, and so are isolated vertices.

    Every c_u comes from one dynamic programming sweep over G|n in reverse
    topological order.  A state holds, for each vertex not yet split, the
    units that its split out-neighbours sent back to it, i.e. its outflow in
    G|n.  Splitting vertex i >= 2 adds a = o_i - j_i in 0..o_i units with
    weight C(o_i, a) and hands the total back along its in-edges, split by
    tail.  The root is never split: in each final state it holds u, the
    units leaving it, and the state's value is c_u.  Sweeping toward the
    root reads u off the state instead of carrying it in the values, and
    keeps the source's fan as one entry.  On full graphs with one source
    o_i = 1 at inner vertices, so at most #inner units are ever in flight.
    Each layer may hold at most `max_states` states.
    """
    if not g.sources:
        return {t: int(t == 0) for t in range(tmax + 1)}
    order = g.topological_order
    pos = {v: i for i, v in enumerate(order)}
    if len(g.sources) == 1:
        root = pos[g.sources[0]]
        o_root = len(g.out_edges[g.sources[0]]) - 1
    else:  # the virtual super-source takes one more slot
        root = len(order)
        o_root = len(g.sources) - 1

    def overflow(size: int) -> None:
        raise FrontierExplosionError(
            f"flow DP: {size} states at vertex {k + 1} of {len(order)}, over the limit"
            f" of {max_states} (strengths 0..{tmax})"
        )

    states = {(0,) * max(len(order), root + 1): 1}
    for k in reversed(range(len(order))):
        v = order[k]
        if k == root or not g.out_edges[v]:
            continue
        tails = Counter(pos[g.tail[e]] for e in g.in_edges[v]) if g.in_edges[v] else {root: 1}
        states = _split_vertex(
            states, k, sorted(tails.items()), len(g.out_edges[v]) - 1, max_states, overflow
        )
    c = {state[root]: value for state, value in states.items()}
    return {
        t: sum(math.comb(t + o_root, o_root + u) * cu for u, cu in c.items())
        for t in range(tmax + 1)
    }


def _split_vertex(
    states: dict[tuple[int, ...], int],
    k: int,
    tails: Sequence[tuple[int, int]],
    o: int,
    max_states: int,
    overflow: Callable[[int], None],
) -> dict[tuple[int, ...], int]:
    """Add 0..o units to the pending outflow of position k, with weight
    C(o, a) for a units, and send the inflow that results back to its tails.

    `tails` lists (position, number of parallel edges); a stars-and-bars
    factor counts the ways to split a tail's share among its parallel
    edges.  The splits of each state are generated one at a time, and
    `overflow` is called with the size of the new layer as soon as it holds
    more than `max_states` states.
    """
    new: dict[tuple[int, ...], int] = {}
    last = len(tails) - 1
    base: list[int] = []

    def record(key: tuple[int, ...], value: int) -> None:
        old = new.get(key)
        if old is None:
            new[key] = value
            if len(new) > max_states:
                overflow(len(new))
        else:
            new[key] = old + value

    def spread(i: int, rest: int, value: int) -> None:
        # hand `rest` units to tails i..last, then record the state
        p, m = tails[i]
        before = base[p]
        if i < last:
            for a in range(rest + 1):
                base[p] = before + a
                share = value * math.comb(a + m - 1, m - 1) if m > 1 and a else value
                spread(i + 1, rest - a, share)
        else:
            base[p] = before + rest
            record(tuple(base), value * math.comb(rest + m - 1, m - 1) if m > 1 and rest else value)
        base[p] = before

    try:
        for state, value in states.items():
            base = list(state)
            base[k] = 0
            for a in range(o + 1):
                spread(0, state[k] + a, value * math.comb(o, a))
    finally:
        # spread refers to itself through its closure cell, and through
        # record to the layer `new`: a reference cycle that would keep each
        # layer alive until a full collection.  Emptying the cell breaks it.
        del spread
    return new


@dataclass(frozen=True)
class OracleResult:
    """Lattice-point counts of the dilates 0..d+2, the h*-vector they
    determine, and its flags."""

    dimension: int
    counts: dict[int, int]
    hstar: list[int]
    symmetric: bool
    unimodal: bool
    gorenstein: bool

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "symmetric": self.symmetric,
            "unimodal": self.unimodal,
            "gorenstein": self.gorenstein,
        }


def ehrhart_oracle(g: Dag) -> OracleResult:
    """Count the dilates 0..d+2 of the flow polytope, solve for h* and flag it."""
    d = flow_dims(g)[1]
    counts = flow_count_table(g, d + 2)
    hstar = hstar_from_counts(counts, d)
    return OracleResult(d, counts, hstar, *check_symmetry_unimodality(hstar))


def hstar_from_counts(counts: Mapping[int, int], d: int) -> list[int]:
    """Solve counts[t] = sum_i h_i * C(t + d - i, d) for h, exactly.

    The system is unitriangular, so the solution is integral by
    construction; a negative entry or a mismatch at t > d signals a wrong
    dimension or a counting bug.
    """
    for t in range(d + 1):
        if t not in counts:
            raise NonIntegralSolutionError(f"counts missing dilation {t}")
    h = [0] * (d + 1)
    for t in range(d + 1):
        acc = sum(h[i] * math.comb(t + d - i, d) for i in range(t))
        h[t] = counts[t] - acc
        if h[t] < 0:
            raise NegativeCoefficientError(f"h*_{t} = {h[t]} < 0")
    for t in sorted(counts):
        if t > d:
            predicted = sum(h[i] * math.comb(t + d - i, d) for i in range(d + 1))
            if predicted != counts[t]:
                raise NonIntegralSolutionError(
                    f"counts at t={t} do not fit a degree-{d} polynomial"
                )
    return h


def finite_differences_vanish(counts: Mapping[int, int], d: int) -> bool:
    """Order-(d+1) forward differences of the count table are zero."""
    tmax = max(counts)
    values = [counts[t] for t in range(tmax + 1)]
    if len(values) < d + 2:
        raise NonIntegralSolutionError("need counts up to at least d+1")
    diffs = values
    for _ in range(d + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return all(x == 0 for x in diffs)


def check_symmetry_unimodality(h: Sequence[int]) -> tuple[bool, bool, bool]:
    """(symmetric about the last nonzero entry, unimodal, gorenstein).

    Gorenstein is certified by palindromicity of the h*-vector.
    """
    nz = [i for i, x in enumerate(h) if x != 0]
    if not nz:
        return True, True, True
    s = nz[-1]
    core = list(h[: s + 1])
    symmetric = core == core[::-1]
    rising = True
    unimodal = True
    for a, b in zip(core, core[1:]):
        if b > a and not rising:
            unimodal = False
            break
        if b < a:
            rising = False
    return symmetric, unimodal, symmetric


@dataclass
class SpecialSimplexReport:
    ok: bool
    uncovered: list[EdgeId]
    multiply_covered: list[EdgeId]
    facet_anomalies: list[EdgeId]  # x_e = 0 supporting fewer than dim route vertices


def special_simplex_check(
    g: Dag, exceptional: Sequence[Route], routes: Sequence[Route]
) -> SpecialSimplexReport:
    """Every facet x_e = 0 must contain all but one exceptional vertex.

    Equivalent, per the unique-exceptional-route property: each edge lies
    on exactly one exceptional route.  Also records edges whose vanishing
    face holds fewer than dim-many route vertices, which would disqualify
    them as facets.
    """
    if not is_full(g):
        raise NotFullError("special simplices are certified on full DAGs")
    d = flow_dims(g)[1]
    uncovered: list[EdgeId] = []
    multiply: list[EdgeId] = []
    anomalies: list[EdgeId] = []
    for e in sorted(g.tail):
        hits = sum(1 for r in exceptional if e in r)
        if hits == 0:
            uncovered.append(e)
        elif hits > 1:
            multiply.append(e)
        support = sum(1 for r in routes if e not in r)
        if support < d:
            anomalies.append(e)
    ok = not uncovered and not multiply and not anomalies
    return SpecialSimplexReport(ok, uncovered, multiply, anomalies)
