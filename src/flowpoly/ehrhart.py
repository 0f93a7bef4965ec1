"""Lattice-point oracle for flow polytopes.

Counts the nonnegative integer flows of every strength t by the Lidskii
formula (Baldoni-Vergne, "Kostant partition functions and flow
polytopes", 2008; Meszaros-Morales, "Volumes and Ehrhart polynomials of
flow polytopes", 2019).  Number the vertices 1..n+1 topologically: 1 is
a virtual super-source that every source always hangs off by one edge,
and n+1 the sink (several sinks feed a virtual super-sink).  With
o_i = outdeg(i) - 1, and G|n the graph without vertex n+1 and its in-edges,

    counts[t] = sum_u C(t + o_1, o_1 + u) * c_u
    c_u = sum over j_1 = o_1 + u, j_i <= o_i of
          prod_{i >= 2} C(o_i, j_i) * K_{G|n}(j_1 - o_1, ..., j_n - o_n)

where K counts the nonnegative integer flows with the given netflows.  So
t enters only through binomials: the counts are a polynomial of degree at
most d = sum_i o_i, and c_{d - o_1} is the normalized volume
(Postnikov-Stanley).  A sink receives nothing in G|n: it is n+1, or a
vertex with o = 0 whose only out-edge, to the virtual super-sink, was
dropped.  From the counts the h*-vector is recovered exactly in the
binomial basis, with palindromicity, unimodality, and the special simplex
property of the exceptional routes.  Everything is exact integer
arithmetic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dag import Dag, EdgeId, Route, complete_contraction, flow_dims, is_full
from .errors import ConsistencyError, FlowpolyError, FrontierExplosionError, NotFullError

DEFAULT_MAX_STATES = 2_000_000


def flow_count_table(g: Dag, tmax: int, max_states: int = DEFAULT_MAX_STATES) -> dict[int, int]:
    """Number of nonnegative integer flows of each strength 0..tmax.

    One dynamic programming sweep over G|n in reverse topological order
    gives every c_u.  A state holds, for each vertex not yet split, the
    units that its split out-neighbours sent back to it, i.e. its outflow
    in G|n.  Splitting vertex i >= 2 adds a = o_i - j_i in 0..o_i units with
    weight C(o_i, a), and cuts the total into one share per in-edge, each
    share sent back to the edge's tail.  The sources always hang off the
    virtual super-source, the root in the last slot, which is never split:
    in each final state it holds u, the units leaving it, and the state's
    value is c_u.  Each layer may hold at most `max_states` states.
    """
    if not g.sources:
        return {t: int(t == 0) for t in range(tmax + 1)}
    order = g.topological_order
    pos = {v: i for i, v in enumerate(order)}
    root, o_root = len(order), len(g.sources) - 1
    states = {(0,) * (root + 1): 1}
    for k in reversed(range(len(order))):
        v = order[k]
        if not g.out_edges[v]:
            continue
        tails = [pos[g.tail[e]] for e in g.in_edges[v]] or [root]
        bars = len(tails) - 1
        o = len(g.out_edges[v]) - 1
        new: dict[tuple[int, ...], int] = {}
        for state, value in states.items():
            base = list(state)
            base[k] = 0
            for a in range(o + 1):
                units = state[k] + a
                weight = value * math.comb(o, a)
                if bars:
                    # stars and bars: the cuts split `units` into one share per in-edge;
                    # the shares of parallel edges add up in one state
                    keys = []
                    for cuts in itertools.combinations(range(units + bars), bars):
                        s = base.copy()
                        prev = -1
                        for p, cut in zip(tails, cuts):
                            s[p] += cut - prev - 1
                            prev = cut
                        s[tails[-1]] += units + bars - 1 - prev
                        keys.append(tuple(s))
                else:  # one in-edge, as at every source: its tail takes every unit
                    base[tails[0]] += units
                    keys = [tuple(base)]
                    base[tails[0]] -= units
                for key in keys:
                    new[key] = new.get(key, 0) + weight
                    if len(new) > max_states:
                        raise FrontierExplosionError(
                            f"flow DP: {len(new)} states at vertex {k + 1} of {len(order)},"
                            f" over the limit of {max_states} (strengths 0..{tmax})"
                        )
        states = new
    c = {state[root]: value for state, value in states.items()}
    return {
        t: sum(math.comb(t + o_root, o_root + u) * cu for u, cu in c.items())
        for t in range(tmax + 1)
    }


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
    """Count the dilates 0..d+2 of the flow polytope, solve for h* and flag it.  An idle edge's
    flow is fixed by its neighbours, so the counts are taken on g's complete contraction."""
    d = flow_dims(g)[1]
    counts = flow_count_table(complete_contraction(g).result, d + 2)
    hstar = hstar_from_counts(counts, d)
    return OracleResult(d, counts, hstar, *check_symmetry_unimodality(hstar))


def hstar_from_counts(counts: Mapping[int, int], d: int) -> list[int]:
    """Solve counts[t] = sum_i h_i * C(t + d - i, d) for h, exactly.

    The system is unitriangular, so the counts at t = 0..d fix an integral
    solution.  h* is nonnegative (Stanley 1980), so a negative entry, which
    signals a wrong dimension or a counting bug, breaks `hstar-nonnegative`.
    Counts at t > d do not enter: `finite_differences_vanish` checks them.
    """
    for t in range(d + 1):
        if t not in counts:
            raise FlowpolyError(f"counts missing dilation {t}")
    h = [0] * (d + 1)
    for t in range(d + 1):
        acc = sum(h[i] * math.comb(t + d - i, d) for i in range(t))
        h[t] = counts[t] - acc
        if h[t] < 0:
            raise ConsistencyError("hstar-nonnegative", f"h*_{t} = {h[t]} < 0")
    return h


def finite_differences_vanish(counts: Mapping[int, int], d: int) -> bool:
    """Order-(d+1) forward differences of the count table are zero."""
    tmax = max(counts)
    values = [counts[t] for t in range(tmax + 1)]
    if len(values) < d + 2:
        raise FlowpolyError("need counts up to at least d+1")
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
    # the exceptional routes and all the routes through each edge, one pass over each
    hits, through = (Counter(itertools.chain.from_iterable(rs)) for rs in (exceptional, routes))
    edges = sorted(g.tail)
    uncovered = [e for e in edges if not hits[e]]
    multiply = [e for e in edges if hits[e] > 1]
    anomalies = [e for e in edges if len(routes) - through[e] < d]
    return SpecialSimplexReport(not (uncovered or multiply or anomalies), uncovered, multiply, anomalies)
