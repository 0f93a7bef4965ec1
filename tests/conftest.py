"""Shared fixtures: the worked examples and small independent oracles.

The oracle helpers recompute quantities by a different method than the
library (path counting by DP, flow counting by direct enumeration or by
the frontier DP that the Lidskii sweep replaced) so the tests do not
certify the code with the code itself.
"""

from __future__ import annotations

import io
import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import pytest

from flowpoly.analysis import Instance
from flowpoly.dag import (
    ContractionTrace,
    Dag,
    EdgeId,
    Route,
    VertexId,
    complete_contraction,
    idle_edges,
    is_full,
)
from flowpoly.ehrhart import DEFAULT_MAX_STATES
from flowpoly.errors import (
    ConsistencyError,
    FramingError,
    FrontierExplosionError,
    NotFullError,
    NotLinearExtensionError,
)
from flowpoly.framing import (
    AdjacencyGraph,
    CoherenceTable,
    Framing,
    adjacency_graph,
    named_framing,
    path_cycle_decomposition,
)
from flowpoly.generators import caracol, caracol_core, gkn
from flowpoly.poset import TauPoset, orient_dual_edge
from flowpoly.triangulation import Clique, DualGraph


def main_in_process(monkeypatch, capsys, argv, stdin=""):
    """Exit code, stdout and stderr of `flowpoly.cli.main` on argv and stdin."""
    import flowpoly.cli

    monkeypatch.setattr(sys, "argv", ["flowpoly", *argv])
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        flowpoly.cli.main()
        code = 0
    except SystemExit as stop:
        code = stop.code
    out = capsys.readouterr()
    return code, out.out, out.err


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
def g29h():
    """Full contraction of G(2,9)."""
    return complete_contraction(gkn(2, 9)).result


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


def compare_paths_at(
    g: Dag, f: Framing, v: VertexId, p: Sequence[EdgeId], q: Sequence[EdgeId], side: str
) -> int:
    """Spec-level comparison of two path fragments at v (-1, 0, +1): the
    reference for the rank keys of `CoherenceTable`.

    side='in' expects both paths to end at v, side='out' to start at v.
    Both are read away from v; at the first differing edge the two edges
    share an end, and the framing's order on that port decides.
    """
    if side == "in":
        p, q, at, order, end, part = p[::-1], q[::-1], g.head, f.in_order, "end", "suffix"
    elif side == "out":
        at, order, end, part = g.tail, f.out_order, "start", "prefix"
    else:
        raise ValueError("side must be 'in' or 'out'")
    for path in (p, q):
        if not path or at[path[0]] != v:
            raise ValueError(f"path does not {end} at {v}")
    i = 0
    while i < len(p) and i < len(q) and p[i] == q[i]:
        i += 1
    if i == len(p) and i == len(q):
        return 0
    if i == len(p) or i == len(q):
        raise FramingError(f"one path is a strict {part} of the other; not maximal")
    port = order[at[p[i]]]
    return -1 if port.index(p[i]) < port.index(q[i]) else 1


def route_conflicts(g: Dag, f: Framing, r: Route, s: Route) -> list[VertexId]:
    """Shared inner vertices where r and s conflict (empty iff coherent)."""
    table = CoherenceTable(g, f, [tuple(r), tuple(s)])
    return table.conflict_vertices(0, 1)


def routes_coherent(g: Dag, f: Framing, r: Route, s: Route) -> bool:
    return not route_conflicts(g, f, r, s)


@dataclass
class ExceptionalSetCheck:
    ok: bool
    reason: str | None
    framing: Framing | None
    adjacency: AdjacencyGraph


def check_exceptional_set(g: Dag, x: Sequence[Route]) -> ExceptionalSetCheck:
    """Decide whether x is the exceptional set of some ample framing.

    Needs every edge covered by exactly one route of x and a bipartite
    adjacency graph; on success one witnessing framing is constructed by
    ordering each port according to the two-coloring.
    """
    if not is_full(g):
        raise NotFullError("exceptional sets are classified on full DAGs")
    x = [tuple(r) for r in x]
    adj = adjacency_graph(g, x)
    hits: dict[EdgeId, list[int]] = {e: [] for e in g.tail}
    for i, r in enumerate(x):
        for e in r:
            hits[e].append(i)
    doubled = sorted(e for e, rs in hits.items() if len(rs) > 1)
    missing = sorted(e for e, rs in hits.items() if not rs)
    bip, color = adj.is_bipartite()
    reasons = []
    if missing:
        reasons.append(f"uncovered edges {missing}")
    if doubled:
        reasons.append(f"doubly covered edges {doubled}")
    if not bip:
        reasons.append("adjacency graph has an odd cycle")
    if reasons:
        return ExceptionalSetCheck(False, "; ".join(reasons), None, adj)
    assert color is not None
    labels = {e: 1 + color[rs[0]] for e, rs in hits.items()}
    return ExceptionalSetCheck(True, None, framing_from_labels(g, labels), adj)


def framing_from_labels(g: Dag, labels: Mapping[EdgeId, int]) -> Framing:
    """Order every port by its {1,2} edge labels (label 1 first)."""
    in_order = {}
    out_order = {}
    for v in g.inner:
        in_order[v] = tuple(sorted(g.in_edges[v], key=lambda e: (labels[e], e)))
        out_order[v] = tuple(sorted(g.out_edges[v], key=lambda e: (labels[e], e)))
    return Framing(in_order, out_order)


def ample_framings_reference(g: Dag) -> Iterator[tuple[int, int, bool, dict[EdgeId, int], Framing]]:
    """(index, swap partner, canonical, labels, framing) per alternating
    labeling of a full DAG, each built on its own: every live component is
    labeled from its positions, and every port is sorted by its labels."""
    inner = set(g.inner)
    decomp = path_cycle_decomposition(g)
    live = [c for c in decomp.components if any(v in inner for v in c.vertices)]
    live.sort(key=lambda c: min(c.edges))
    rest = [c for c in decomp.components if not any(v in inner for v in c.vertices)]
    m = len(live)
    for index in range(1 << m):
        labels = {e: 1 for c in rest for e in c.edges}
        for bit, comp in enumerate(live):
            lead = 1 if (index >> bit) & 1 == 0 else 2
            pos = {e: i for i, e in enumerate(comp.edges)}
            for e in comp.edges:
                same_parity = (pos[e] - pos[min(comp.edges)]) % 2 == 0
                labels[e] = lead if same_parity else 3 - lead
        canonical = (index & 1) == 0 if m else True
        yield index, ((1 << m) - 1) ^ index, canonical, labels, framing_from_labels(g, labels)


def build_ranks_reference(table: CoherenceTable) -> tuple[list[dict], list[dict]]:
    """In- and out-ranks of every route at every inner vertex on it, by
    sorting whole fragment keys: the reference for the incremental ranks of
    `CoherenceTable`.

    A fragment's key lists the port position of each edge read away from v
    (-1 for an edge without the port, into a sink or out of a source), so
    the keys sort the fragments in the framing's order.  Slicing a key at
    every vertex of a route costs the square of the route's length.
    """
    g, f = table.g, table.f
    in_pos = {e: k for v in g.inner for k, e in enumerate(f.in_order[v])}
    out_pos = {e: k for v in g.inner for k, e in enumerate(f.out_order[v])}
    in_keys = [tuple(in_pos.get(e, -1) for e in r) for r in table.routes]
    out_keys = [tuple(out_pos.get(e, -1) for e in r) for r in table.routes]
    by_vertex: dict[int, list[int]] = {}
    for i, cuts in enumerate(table.route_cuts):
        for v in cuts:
            by_vertex.setdefault(v, []).append(i)
    in_rank: list[dict] = [{} for _ in table.routes]
    out_rank: list[dict] = [{} for _ in table.routes]
    for v, idxs in by_vertex.items():
        for ranks, keys, before in ((in_rank, in_keys, True), (out_rank, out_keys, False)):
            groups: dict[tuple[int, ...], list[int]] = {}
            for i in idxs:
                cut = table.route_cuts[i][v]
                key = keys[i][:cut][::-1] if before else keys[i][cut:]
                groups.setdefault(key, []).append(i)
            for rank, key in enumerate(sorted(groups)):
                for i in groups[key]:
                    ranks[i][v] = rank
    return in_rank, out_rank


def common_components(g: Dag, r1: Route, r2: Route) -> list[tuple[tuple[int, ...], int, int]]:
    """Connected components of the intersection of two routes, as walks,
    each with the position of its first vertex on r1 and on r2, from the
    routes' whole vertex sequences."""
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


def orient_by_components(g: Dag, labels, r1: Route, r2: Route) -> tuple[int, tuple[int, ...]]:
    """`orient_dual_edge` over every common component of the two routes,
    sources and sinks included: the reference for the library's reading
    of the route cuts."""
    hits = []
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
        raise ConsistencyError("dual-edge-orientation-exists", f"no qualifying component for {r1} vs {r2}")
    if len(hits) > 1:
        raise ConsistencyError("dual-edge-orientation-unique", f"{len(hits)} qualifying components for {r1} vs {r2}")
    return hits[0]


def hasse_per_record(labels, table: CoherenceTable, dual: DualGraph) -> list[tuple]:
    """Hasse edges (lower, upper, brick) with `orient_dual_edge` called
    afresh on every flip record: the reference for `build_poset`, which
    orients each entry of the pair table once."""
    hasse = []
    for a, b, p in zip(dual.a, dual.b, dual.pair):
        rec = dual.pairs[p]
        sign, brick = orient_dual_edge(table, labels, rec.leaving, rec.entering)
        hasse.append((b, a, brick) if sign > 0 else (a, b, brick))
    return hasse


def printed_poset(g: Dag, f: Framing) -> TauPoset:
    """The poset of (g, f) on the relabelled dual graph, its nodes numbered
    in lexicographic clique order as the `poset` command prints them."""
    inst = Instance(g, f)
    inst.dual = inst.dual.relabelled()
    return inst.poset


def flip(table: CoherenceTable, clique: Clique, route_idx: int) -> tuple[Clique, int]:
    """Exchange a non-exceptional route for the unique alternative.

    Returns the adjacent maximal clique and the incoming route index,
    computed locally from the coherence graph: the reference for the
    records of the flip traversal.  Every route coherent with the whole
    ridge belongs to one of the (at most two) maximal cliques over it, so
    the ridge's common coherent neighbours are exactly the outgoing route
    and its unique replacement, and the two conflict."""
    if route_idx in table.exceptional_indices:
        raise ConsistencyError("unique-flip-neighbor", "exceptional routes are in every maximal clique")
    if route_idx not in clique:
        raise ConsistencyError("unique-flip-neighbor", "route not in clique")
    adj = table.adjacency
    ridge = [i for i in clique if i != route_idx]
    common = (1 << len(table.routes)) - 1
    for i in ridge:
        common &= adj[i]
    if not common >> route_idx & 1:
        raise ConsistencyError("unique-flip-neighbor", "clique is not a clique of this coherence table")
    others = common & ~(1 << route_idx)
    if others.bit_count() != 1 or adj[route_idx] & others:
        raise ConsistencyError(
            "unique-flip-neighbor", f"ridge admits {others.bit_count()} exchanges for route {route_idx}, expected 1"
        )
    incoming = others.bit_length() - 1
    return tuple(sorted(ridge + [incoming])), incoming


def neighbors(pairs: Sequence[tuple[int, int]], n: int) -> list[list[int]]:
    """Sorted dual-graph neighbours of each of n cliques, from (a, b) pairs."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    return [sorted(nb) for nb in adj]


def poset_from_hasse(
    cliques: list[Clique], hasse: Sequence[tuple[int, int, tuple]], dual: DualGraph | None = None
) -> TauPoset:
    """A TauPoset on hand-made (lower, upper, brick) triples, bricks interned
    in order of first use.  Without `dual`, the dual graph is the Hasse
    edges unoriented, in their order, on `cliques` with no exceptional
    routes, with no exchange records; with it, the nodes are its cliques."""
    if dual is None:
        pairs = [(min(lo, hi), max(lo, hi)) for lo, hi, _ in hasse]
        dual = DualGraph(
            [sum(1 << i for i in c) for c in cliques],
            array("i", [a for a, _ in pairs]),
            array("i", [b for _, b in pairs]),
            array("i"),
            [],
        )
    ids: dict[tuple, int] = {}
    brick = array("i", [ids.setdefault(w, len(ids)) for _, _, w in hasse])
    lo = array("i", [lo for lo, _, _ in hasse])
    hi = array("i", [hi for _, hi, _ in hasse])
    return TauPoset(lo, hi, brick, list(ids), dual)


def all_framings(g: Dag) -> Iterator[Framing]:
    """Brute force over every framing of g (for small graphs only)."""
    ports: list[tuple[str, VertexId, tuple[EdgeId, ...]]] = []
    for v in g.inner:
        ports.append(("in", v, g.in_edges[v]))
        ports.append(("out", v, g.out_edges[v]))
    perms = [list(itertools.permutations(edges)) for _, _, edges in ports]
    for combo in itertools.product(*perms):
        in_order = {}
        out_order = {}
        for (side, v, _), order in zip(ports, combo):
            if side == "in":
                in_order[v] = order
            else:
                out_order[v] = order
        yield Framing(in_order, out_order)


def is_order_reversing_automorphism(p: TauPoset, perm: Mapping[int, int]) -> bool:
    """Does the node permutation send every cover (lo, hi) to (perm hi, perm lo)?"""
    covers = {(lo, hi) for lo, hi, _ in p.hasse}
    return all((perm[hi], perm[lo]) in covers for lo, hi in covers)


def shelling_reference(p: TauPoset, ext: Sequence[int]) -> list[int]:
    """Restriction sizes along `ext` by summing, per node, its dual-graph
    neighbours placed earlier: the reference for `TauPoset.h_from_shelling`,
    which makes one pass over the dual edges."""
    if sorted(ext) != list(range(len(p.cliques))):
        raise NotLinearExtensionError("not a permutation of the nodes")
    pos = {v: k for k, v in enumerate(ext)}
    nbs = neighbors(list(zip(p.dual.a, p.dual.b)), len(p.cliques))
    sizes = [sum(pos[nb] < pos[j] for nb in nbs[j]) for j in ext]
    coeffs = [0] * (max(sizes, default=0) + 1)
    for r in sizes:
        coeffs[r] += 1
    return coeffs


def implied_edge_reference(p: TauPoset) -> tuple[int, int, int] | None:
    """The first (node, hi, mid) whose Hasse edge node < hi is implied
    through another upper cover mid, or None: the dict-based closure sweep
    that `assert_transitively_reduced` replaced, kept as its reference.
    Strictly-above closures are int bitsets in a dict keyed by node, filled
    in reverse topological order."""
    up: dict[int, list[int]] = {i: [] for i in range(len(p.cliques))}
    for lo, hi, _ in p.hasse:
        up[lo].append(hi)
    above: dict[int, int] = {}
    for node in reversed(p.default_linear_extension()):
        for hi in up[node]:
            for mid in up[node]:
                if mid != hi and above[mid] >> hi & 1:
                    return node, hi, mid
        above[node] = 0
        for hi in up[node]:
            above[node] |= 1 << hi | above[hi]
    return None


def assert_transitively_reduced(p: TauPoset) -> None:
    """No oriented dual edge may be implied by a longer chain: the bitset
    closure check that `build_poset`'s kissing certificate replaced, kept
    as its reference.  It is quadratic in time and memory."""
    # strictly-above closures as int bitsets, in reverse topological order;
    # a node's set is dropped once every node it covers has read it, so only
    # the sweep's frontier is held
    above = [0] * len(p.cliques)
    unread = p.down_degrees[:]
    for node in reversed(p.default_linear_extension()):
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


def strictly_above(p: TauPoset) -> list[int]:
    """Each node's strict up-set in the transitive closure of the Hasse
    edges, as a bitmask of nodes (for small posets only)."""
    above = [0] * len(p.cliques)
    for node in reversed(p.default_linear_extension()):
        for hi in p.ups[node]:
            above[node] |= 1 << hi | above[hi]
    return above


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
    return ContractionTrace(tuple(steps), cur, rep, idle_edges(g))


def flow_count_table_reference(
    g: Dag, tmax: int, max_states: int = DEFAULT_MAX_STATES
) -> dict[int, int]:
    """Number of nonnegative integer flows of each strength 0..tmax, in one
    frontier DP pass: the reference for the Lidskii sweep of
    `flowpoly.ehrhart.flow_count_table`.

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
