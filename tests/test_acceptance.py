"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every expected value is exact integer equality.
"""

import random
import time

import pytest

from conftest import all_framings, is_order_reversing_automorphism, neighbors, printed_poset

from flowpoly.analysis import Instance, analyze
from flowpoly.dag import complete_contraction, flow_dims, idle_edges, is_full
from flowpoly.ehrhart import (
    check_symmetry_unimodality,
    finite_differences_vanish,
    flow_count_table,
    hstar_from_counts,
    special_simplex_check,
)
from flowpoly.framing import (
    CoherenceTable,
    adjacency_graph,
    count_ample_framings,
    edge_labeling,
    enumerate_ample_framings,
    is_ample,
    named_framing,
    port_table,
)
from flowpoly.gentle import (
    blossom,
    build_quiver,
    module_to_route,
    objects_t,
    route_to_module,
    support_tau_tilting,
    tau_rigid_pair,
)
from flowpoly.generators import caracol, caracol_core, gkn, random_full_dag, random_valid_dag
from flowpoly.poset import orient_dual_edge
from flowpoly.triangulation import dual_graph, maximal_cliques


def report(n, slug, t0):
    print(f"ACCEPTANCE {n} ({slug}): PASS [{time.time() - t0:.1f}s]")


def full_dag_corpus(count, max_edges=12, seed=1009):
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        g = random_full_dag(
            rng,
            rng.randrange(1, 5),
            n_sources=rng.randrange(1, 3),
            n_sinks=rng.randrange(1, 3),
        )
        if len(g.edges) <= max_edges:
            corpus.append(g)
    return corpus


def test_criterion_1_g27_end_to_end():
    t0 = time.time()
    g = gkn(2, 7)
    h = complete_contraction(g).result
    assert len(h.edges) == 9 and len(h.inner) == 3
    f = named_framing(h, "paper-g27")
    rep = analyze(h, f, seed=0, extensions=20)
    assert rep.ok, [v.invariant for v in rep.failed()]
    assert rep.data["routes"] == 13
    assert rep.data["exceptional"] == 3
    assert rep.data["cliques"] == 16
    assert rep.data["dcov"] == [1, 7, 7, 1]
    assert rep.data["hstar"] == [1, 7, 7, 1, 0, 0]
    assert rep.data["flags"] == {"symmetric": True, "unimodal": True, "gorenstein": True}
    # 3-regular Hasse graph
    p = rep.data["poset"]
    t = rep.table
    assert all(len(nb) == 3 for nb in neighbors(dual_graph(maximal_cliques(t)), 16))
    # self-duality under the label-reversing graph automorphism
    mu = {1: 4, 6: 10, 7: 9, 2: 3, 8: 8, 3: 2, 9: 7, 4: 1, 10: 6}
    ridx = {r: i for i, r in enumerate(t.routes)}
    perm = {}
    for i, c in enumerate(p.cliques):
        img = frozenset(ridx[tuple(reversed([mu[e] for e in t.routes[j]]))] for j in c)
        (perm[i],) = [k for k, ck in enumerate(p.cliques) if frozenset(ck) == img]
    assert is_order_reversing_automorphism(p, perm)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, "g27-end-to-end", t0)


def test_criterion_2_car8():
    t0 = time.time()
    car = caracol(8)
    assert len(car.edges) == 17 and flow_dims(car) == (11, 10)
    trace = complete_contraction(car)
    h = trace.result
    # six vertices; the drawn source-side and sink-side parallel pairs are
    # present (the honest contraction also keeps the two source-to-sink
    # through edges as a third pair)
    assert len(h.vertices) == 6
    pair_counts = {}
    for e in h.tail:
        key = (h.tail[e], h.head[e])
        pair_counts[key] = pair_counts.get(key, 0) + 1
    doubled = sorted(k for k, v in pair_counts.items() if v == 2)
    assert (1, 3) in doubled and (6, 7) in doubled
    assert doubled == [(1, 3), (1, 7), (6, 7)]

    # the doubled-fan core (the graph as drawn in the worked example):
    # ample length framing with exactly five exceptional routes
    core = caracol_core(8)
    fc = named_framing(core, "length")
    tc = CoherenceTable(core, fc)
    assert is_ample(tc)
    exc = [tc.routes[i] for i in tc.exceptional_indices]
    assert len(exc) == 5
    assert exc == sorted([(4, 0), (5, 1), (6, 2), (7, 3), (8, 9, 10, 11, 12)])
    cliques = maximal_cliques(tc)
    nine = frozenset(
        tc.index_of(r)
        for r in [
            (4, 0),
            (5, 1),
            (6, 2),
            (7, 3),
            (8, 9, 10, 11, 12),
            (4, 9, 10, 11, 12),
            (5, 10, 11, 12),
            (6, 11, 12),
            (7, 12),
        ]
    )
    assert len(nine) == 9
    assert any(frozenset(c) == nine for c in cliques)

    # oracle agreement on the core and on the honest contraction
    for graph, framing in ((core, fc), (h, named_framing(h, "length"))):
        rep = analyze(graph, framing, extensions=5)
        assert rep.ok, [v.invariant for v in rep.failed()]
        hstar = rep.data["hstar"]
        sym, uni, _ = check_symmetry_unimodality(hstar)
        assert sym and uni
        assert sum(hstar) == rep.data["cliques"]
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    report(2, "car8", t0)


def test_criterion_3_framing_counts(big_full):
    t0 = time.time()
    assert count_ample_framings(port_table(gkn(3, 10))) == 256
    assert count_ample_framings(port_table(big_full)) == 512

    def predicted(k, n):
        if k + 1 <= n <= 2 * k - 1:
            return 4 ** (n - k)
        if 2 * k + 1 <= n <= 3 * k - 1:
            return 2**n
        if n >= 3 * k:
            return 2 ** (3 * k - 1)
        return None

    for k in (2, 3):
        for n in range(k + 1, 3 * k + 3):
            g = gkn(k, n + 1)
            table = port_table(g)
            framings = [t.framing for t in enumerate_ample_framings(table)]
            assert len({f.key() for f in framings}) == len(framings)
            for f in framings:
                assert is_ample(CoherenceTable(g, f))
            count = len(framings)
            assert count == count_ample_framings(table)
            if n == 2 * k:
                # n = 2k sits between the closed-form ranges; computed
                # directly it continues the 2^n pattern of the middle range
                assert count == 2**n
            else:
                assert count == predicted(k, n), (k, n)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    report(3, "framing-counts", t0)


@pytest.fixture(scope="module")
def corpus():
    g27h = complete_contraction(gkn(2, 7)).result
    car8h = complete_contraction(caracol(8)).result
    named = [
        (g27h, named_framing(g27h, "paper-g27")),
        (car8h, named_framing(car8h, "length")),
    ]
    randoms = full_dag_corpus(50)
    items = list(named)
    for g in randoms:
        items.append((g, next(iter(enumerate_ample_framings(port_table(g)))).framing))
    return items


def test_criterion_4_bijection_suite(corpus):
    t0 = time.time()
    assert len(corpus) >= 52
    for g, f in corpus:
        t = CoherenceTable(g, f)
        labels = edge_labeling(g, f)
        exc = set(t.exceptional_indices)
        non_exc = [i for i in range(len(t.routes)) if i not in exc]
        q = build_quiver(g, f)
        bq = blossom(q)
        objs = objects_t(q)
        assert len(objs) == len(non_exc)
        phi = {i: route_to_module(g, labels, t.routes[i]) for i in non_exc}
        assert sorted(map(str, phi.values())) == sorted(map(str, objs))
        for i in non_exc:
            assert module_to_route(g, labels, phi[i]) == t.routes[i]
        for ii, i in enumerate(non_exc):
            for j in non_exc[ii:]:
                want = t.coherent(i, j) if i != j else True
                assert tau_rigid_pair(bq, phi[i], phi[j]) == want
        colls = support_tau_tilting(bq, objs)
        idx_of = {str(phi[i]): i for i in non_exc}
        coll_sets = {frozenset(idx_of[str(objs[k])] for k in coll) for coll in colls}
        clique_sets = {frozenset(set(c) - exc) for c in maximal_cliques(t)}
        assert coll_sets == clique_sets
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    report(4, "bijection-suite", t0)


def test_criterion_5_poset_kappa(corpus):
    t0 = time.time()
    for g, f in corpus:
        t = CoherenceTable(g, f)
        labels = edge_labeling(g, f)
        cliques = maximal_cliques(t)
        for a, b in dual_graph(cliques):
            (ra,) = set(cliques[a]) - set(cliques[b])
            (rb,) = set(cliques[b]) - set(cliques[a])
            orient_dual_edge(t, labels, ra, rb)  # unique or raises
        p = printed_poset(g, f)  # acyclic or raises
        assert p.cliques == cliques
        kappa = p.kappa  # total bijection or raises
        for i, j in kappa.items():
            assert p.down_degrees[i] == p.up_degrees[j]
        dcov = p.dcov_polynomial()
        for ext in p.random_linear_extensions(20, seed=11):
            assert p.h_from_shelling(ext) == dcov

    # the kappa non-monotonicity instance on the contracted G(2,7)
    g, f = corpus[0]
    inst = Instance(g, f)
    t, p = inst.table, inst.poset
    exc = set(t.exceptional_indices)
    ridx = {r: i for i, r in enumerate(t.routes)}

    def clique_at(extra):
        want = {ridx[r] for r in extra} | exc
        (hit,) = [i for i, c in enumerate(p.cliques) if set(c) == want]
        return hit

    d1 = clique_at({(6, 8, 4), (6, 2, 3, 4), (6, 2, 9)})
    d2 = clique_at({(6, 2, 3, 10), (6, 2, 3, 4), (6, 2, 9)})
    d3 = clique_at({(1, 2, 3, 10), (1, 2, 9), (6, 2, 9)})
    d4 = clique_at({(1, 2, 3, 10), (7, 3, 10), (6, 2, 3, 10)})
    covers = set(zip(p.lo, p.hi))
    assert (d2, d1) in covers
    assert p.kappa[d1] == d3 and p.kappa[d2] == d4
    assert (d4, d3) not in covers
    report(5, "poset-kappa", t0)


def test_criterion_6_oracle_gorenstein(corpus):
    t0 = time.time()
    for g, f in corpus:
        p = Instance(g, f).poset
        d = flow_dims(g)[1]
        counts = flow_count_table(g, d + 2)
        hstar = hstar_from_counts(counts, d)
        dcov = p.dcov_polynomial()
        n = max(len(hstar), len(dcov))
        assert hstar + [0] * (n - len(hstar)) == dcov + [0] * (n - len(dcov))
        sym, uni, gor = check_symmetry_unimodality(hstar)
        assert sym and uni and gor
        assert finite_differences_vanish(counts, d)
        for tagged in enumerate_ample_framings(port_table(g)):
            tf = CoherenceTable(g, tagged.framing)
            exc = [tf.routes[i] for i in tf.exceptional_indices]
            assert special_simplex_check(g, exc, tf.routes).ok
    report(6, "oracle-gorenstein", t0)


def test_criterion_7_structural_fuzzing():
    t0 = time.time()
    rng = random.Random(7001)
    failures = []
    instances = 0
    while instances < 200:
        g = random_valid_dag(rng, rng.randrange(1, 5), expansions=rng.randrange(0, 3))
        instances += 1
        trace = complete_contraction(g)
        h = trace.result
        if not is_full(h):
            failures.append((instances, "not-valid"))
            continue
        tagged = next(iter(enumerate_ample_framings(port_table(h))))
        t = CoherenceTable(h, tagged.framing)
        exc = [t.routes[i] for i in t.exceptional_indices]
        cover = {}
        for r in exc:
            for e in r:
                cover[e] = cover.get(e, 0) + 1
        if not all(cover.get(e, 0) == 1 for e in h.tail):
            failures.append((instances, "unique-exceptional-route"))
        if len(exc) != sum(len(h.out_edges[s]) for s in h.sources):
            failures.append((instances, "exceptional-count"))
        if not adjacency_graph(h, exc).is_bipartite()[0]:
            failures.append((instances, "bipartite-adjacency"))
        if len(h.edges) <= 10:
            brute = {f.key() for f in all_framings(h) if is_ample(CoherenceTable(h, f))}
            enum = {tf.framing.key() for tf in enumerate_ample_framings(port_table(h))}
            if brute != enum:
                failures.append((instances, "enumeration-vs-brute-force"))
        # contraction-order confluence: random idle order gives the same shape
        cur = g
        while True:
            idle = sorted(idle_edges(cur))
            if not idle:
                break
            e = rng.choice(idle)
            keep = min(cur.tail[e], cur.head[e])
            drop = max(cur.tail[e], cur.head[e])
            from flowpoly.dag import Dag

            cur = Dag.build(
                [x for x in cur.vertices if x != drop],
                [
                    (i, keep if a == drop else a, keep if b == drop else b)
                    for i, a, b in cur.edges
                    if i != e
                ],
            )

        def shape(x):
            return (
                len(x.vertices),
                sorted((len(x.in_edges[v]), len(x.out_edges[v])) for v in x.vertices),
            )

        if shape(cur) != shape(h) or not is_full(cur):
            failures.append((instances, "contraction-confluence"))
    assert instances >= 200
    assert not failures, failures[:10]
    report(7, "structural-fuzzing", t0)
