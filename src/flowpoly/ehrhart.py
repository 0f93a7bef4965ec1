"""Lattice-point oracle for flow polytopes.

Counts the nonnegative integer flows of every strength 0..T in one dynamic
programming pass over the vertices in topological order.  A state is the
vector of pending inflows of the vertices not yet split; its value is a
polynomial in z, packed into one Python int, whose coefficient of z^a
counts the partial flows that have delivered a units to the sinks so far.
From the counts it recovers the h*-vector exactly in the binomial basis
and certifies palindromicity, unimodality, and the special simplex
property of the exceptional routes.  Everything is exact integer
arithmetic.
"""

from __future__ import annotations

import math
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
    """Number of nonnegative integer flows of each strength 0..tmax, in one pass.

    Vertices are processed in topological order.  A state is the pending
    inflow of every vertex, a tuple indexed by topological position, and
    the source seeds cover every strength up to tmax at once.  A state's
    value is a polynomial in z: the coefficient of z^a counts the partial
    flows that have so far delivered a units to the sinks.  Once every
    vertex is split, all units have arrived, so the coefficient of z^t in
    the value of the all-zero state counts the flows of strength t.

    Parallel edges toward a common head are not enumerated one by one: a
    stars-and-bars factor counts the ways to split that head's share, and
    all edges into sinks form one such group.

    Each polynomial is packed into one int with `width` = |E| * bitlen(tmax+1)
    + 1 bits per coefficient, the exponent a sitting at bit a * width.  A
    coefficient counts distinct assignments of at most tmax to the edges
    split so far, so it stays below (tmax+1)^|E| and never carries into the
    next one.
    """
    order = g.topological_order
    if not g.sources:
        return {t: int(t == 0) for t in range(tmax + 1)}
    pos = {v: i for i, v in enumerate(order)}
    width = len(g.tail) * (tmax + 1).bit_length() + 1

    def overflow(size: int, where: str) -> None:
        raise FrontierExplosionError(
            f"flow DP: {size} states at {where}, over the limit of {max_states}"
            f" (strengths 0..{tmax})"
        )

    # seed every strength s <= tmax: the last part of each composition is tmax - s
    zero = [0] * len(order)
    src = sorted(pos[v] for v in g.sources)
    states: dict[tuple[int, ...], int] = {}
    for split in _compositions(tmax, len(src) + 1):
        state = zero[:]
        for p, a in zip(src, split):
            state[p] = a
        states[tuple(state)] = 1
        if len(states) > max_states:
            overflow(len(states), "the source seeds")

    for k, v in enumerate(order):
        if not g.out_edges[v]:
            continue
        heads: dict[int, int] = {}
        to_sinks = 0
        for e in g.out_edges[v]:
            h = g.head[e]
            if g.out_edges[h]:
                heads[pos[h]] = heads.get(pos[h], 0) + 1
            else:
                to_sinks += 1
        where = f"vertex {k + 1} of {len(order)}"
        states = _split_vertex(
            states, k, sorted(heads.items()), to_sinks, width, max_states,
            lambda size: overflow(size, where),
        )
    packed = states.get(tuple(zero), 0)
    mask = (1 << width) - 1
    return {t: packed >> (t * width) & mask for t in range(tmax + 1)}


def _split_vertex(
    states: dict[tuple[int, ...], int],
    k: int,
    heads: Sequence[tuple[int, int]],
    to_sinks: int,
    width: int,
    max_states: int,
    overflow: Callable[[int], None],
) -> dict[tuple[int, ...], int]:
    """Send the pending inflow of position k along its out-edges.

    `heads` lists (position, number of parallel edges) of the non-sink heads;
    `to_sinks` counts the edges into sinks, whose share is absorbed: it
    shifts the value by `width` bits per unit.  The splits of each state
    are generated one at a time, and `overflow` is called with the size of
    the new layer as soon as it holds more than `max_states` states.
    """
    new: dict[tuple[int, ...], int] = {}
    last = len(heads) - 1
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
        # hand `rest` units to heads i..last, then record the state
        p, m = heads[i]
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
            inflow = state[k]
            if not inflow:
                record(state, value)
                continue
            base = list(state)
            base[k] = 0
            # without sink edges nothing is absorbed; without other heads, everything
            for kept in range(0 if to_sinks else inflow, (inflow if heads else 0) + 1):
                absorbed = inflow - kept
                shifted = value << (absorbed * width)
                if to_sinks > 1 and absorbed:
                    shifted *= math.comb(absorbed + to_sinks - 1, to_sinks - 1)
                if heads:
                    spread(0, kept, shifted)
                else:
                    record(tuple(base), shifted)
    finally:
        # spread refers to itself through its closure cell, and through
        # record to the layer `new`: a reference cycle that would keep each
        # layer alive until a full collection.  Emptying the cell breaks it.
        del spread
    return new


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
