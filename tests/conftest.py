"""Shared fixtures: the worked examples and small independent oracles.

The oracle helpers recompute quantities by a different method than the
library (path counting by DP, flow counting by direct enumeration) so the
tests do not certify the code with the code itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from flowpoly.dag import ContractionTrace, Dag, complete_contraction, idle_edges
from flowpoly.framing import CoherenceTable, named_framing
from flowpoly.generators import caracol, caracol_core, gkn


@pytest.fixture(scope="session")
def g27():
    return gkn(2, 7)


@pytest.fixture(scope="session")
def g27h(g27):
    """Full contraction of G(2,7): 5 vertices, 9 edges, inner {3,4,5}."""
    return complete_contraction(g27).result


@pytest.fixture(scope="session")
def g27f(g27h):
    return named_framing(g27h, "paper-g27")


@pytest.fixture(scope="session")
def g27t(g27h, g27f):
    return CoherenceTable(g27h, g27f)


@pytest.fixture(scope="session")
def car8():
    return caracol(8)


@pytest.fixture(scope="session")
def car8h(car8):
    return complete_contraction(car8).result


@pytest.fixture(scope="session")
def core8():
    """The 13-edge doubled-fan graph drawn in the caracol worked example."""
    return caracol_core(8)


@pytest.fixture(scope="session")
def core8f(core8):
    return named_framing(core8, "length")


@pytest.fixture(scope="session")
def core8t(core8, core8f):
    return CoherenceTable(core8, core8f)


@pytest.fixture(scope="session")
def single_edge():
    return Dag.build([0, 1], [(0, 0, 1)])


@pytest.fixture(scope="session")
def big_full():
    """The 29-edge full DAG with nine alternating components (count 512)."""
    edges = []

    def add(t, h):
        edges.append((len(edges), t, h))

    for v in (1, 1, 2, 2, 3, 3):
        add(0, v)
    add(0, 6)
    add(0, 7)
    add(0, 10)
    add(1, 4)
    add(1, 7)
    add(2, 4)
    add(2, 5)
    add(3, 5)
    add(3, 6)
    add(4, 9)
    add(4, 11)
    add(5, 8)
    add(5, 11)
    add(6, 10)
    add(6, 11)
    add(7, 8)
    add(7, 9)
    for v in (8, 8, 9, 9, 10, 10):
        add(v, 11)
    return Dag.build(range(12), edges)


# -- independent oracles -------------------------------------------------------


def count_paths_oracle(g: Dag) -> int:
    """Source-to-sink path count by DP over the topological order."""
    ways = {v: 0 for v in g.vertices}
    for s in g.sources:
        ways[s] = 1
    total = 0
    for v in g.topological_order:
        if not g.out_edges[v] and g.in_edges[v]:
            total += ways[v]
        for e in g.out_edges[v]:
            ways[g.head[e]] += ways[v]
    if not any(g.in_edges[v] or g.out_edges[v] for v in g.vertices):
        return 0
    return total + sum(
        ways[v] for v in g.sources if not g.out_edges[v]
    )


def count_flows_oracle(g: Dag, strength: int) -> int:
    """Flow count by brute enumeration of edge values (tiny graphs only)."""
    edges = sorted(g.tail)
    count = 0
    for values in itertools.product(range(strength + 1), repeat=len(edges)):
        val = dict(zip(edges, values))
        ok = True
        for v in g.inner:
            if sum(val[e] for e in g.in_edges[v]) != sum(val[e] for e in g.out_edges[v]):
                ok = False
                break
        if not ok:
            continue
        if sum(val[e] for s in g.sources for e in g.out_edges[s]) != strength:
            continue
        count += 1
    return count


def _det(rows: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return int(det)


def gcd_of_minors_volume(g: Dag, routes) -> int:
    """Normalized simplex volume as the gcd of the maximal minors of the
    route differences in flow-lattice coordinates (0 when degenerate)."""
    coords = g.nontree_edges
    vecs = [[1 if e in r else 0 for e in coords] for r in routes]
    mat = [[x - b for x, b in zip(v, vecs[0])] for v in vecs[1:]]
    rows, cols = len(mat), len(coords)
    if rows > cols:
        return 0
    g_all = 0
    for keep in itertools.combinations(range(cols), rows):
        g_all = math.gcd(g_all, abs(_det([[row[j] for j in keep] for row in mat])))
    return g_all


def complete_contraction_reference(g: Dag) -> ContractionTrace:
    """Step-by-step contraction: rebuild (and validate) the whole graph after
    contracting the smallest idle edge, until no idle edge remains."""
    rep = {v: v for v in g.vertices}
    cur = g
    steps = []
    while True:
        idle = idle_edges(cur)
        if not idle:
            break
        e = min(idle)
        u, v = cur.tail[e], cur.head[e]
        keep, drop = (u, v) if u < v else (v, u)
        steps.append((e, (keep, drop)))
        remap = lambda x: keep if x == drop else x  # noqa: E731
        vertices = tuple(x for x in cur.vertices if x != drop)
        edges = tuple((eid, remap(t), remap(h)) for eid, t, h in cur.edges if eid != e)
        cur = Dag.build(vertices, edges)
        for x, r in rep.items():
            if r == drop:
                rep[x] = keep
    return ContractionTrace(tuple(steps), cur, rep)
