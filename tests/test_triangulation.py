import dataclasses
import gc
import itertools
import random
import types
import weakref
from array import array

import pytest

import flowpoly.triangulation
from flowpoly.analysis import analyze
from flowpoly.dag import complete_contraction, enumerate_routes, flow_dims
from flowpoly.errors import CliqueExplosionError, ConsistencyError
from flowpoly.framing import (
    CoherenceTable,
    enumerate_ample_framings,
    framing_by_edge_id,
    named_framing,
    port_table,
)
from flowpoly.generators import gkn, random_full_dag, random_valid_dag
from flowpoly.triangulation import (
    bron_kerbosch,
    clique_masks,
    dual_graph,
    mask_members,
    maximal_cliques,
    maximal_cliques_by_flips,
    simplex_volume,
    unimodular_by_exchange,
    verify_unimodular,
)

from conftest import flip, gcd_of_minors_volume, neighbors
from test_framing import CORE8_BIG_CLIQUE


def test_g27_clique_count(g27t):
    cliques = maximal_cliques(g27t)
    assert len(cliques) == 16
    exc = set(g27t.exceptional_indices)
    assert all(exc <= set(c) for c in cliques)
    assert all(len(c) == 6 for c in cliques)  # dim + 1


def test_single_route_clique(single_edge):
    t = CoherenceTable(single_edge, framing_by_edge_id(single_edge))
    assert maximal_cliques(t) == [(0,)]


def test_core8_big_clique_present(core8t):
    cliques = maximal_cliques(core8t)
    assert len(set(CORE8_BIG_CLIQUE)) == 9
    want = frozenset(core8t.route_index[r] for r in CORE8_BIG_CLIQUE)
    assert any(frozenset(c) == want for c in cliques)


def test_unimodular_g27(g27h, g27t):
    for c in maximal_cliques(g27t):
        assert verify_unimodular(g27h, [g27t.routes[i] for i in c])


def test_unimodular_core8(core8, core8t):
    for c in maximal_cliques(core8t):
        assert verify_unimodular(core8, [core8t.routes[i] for i in c])


def test_unimodular_rejects_bad_cliques(g27h, g27t):
    cliques = maximal_cliques(g27t)
    routes = [g27t.routes[i] for i in cliques[0]]
    with pytest.raises(ConsistencyError, match="^cliques-are-simplices: clique has 5 routes, need 6$"):
        verify_unimodular(g27h, routes[:-1])
    # repeating a vertex degenerates the simplex
    degenerate = routes[:-1] + [routes[0]]
    assert simplex_volume(g27h, degenerate) == 0


def test_dual_graph_g27(g27t):
    cliques = maximal_cliques(g27t)
    pairs = dual_graph(cliques)
    assert len(pairs) == 24
    assert all(len(nb) == 3 for nb in neighbors(pairs, 16))


def test_dual_graph_core8(core8t):
    cliques = maximal_cliques(core8t)
    pairs = dual_graph(cliques)
    assert all(len(nb) == 4 for nb in neighbors(pairs, len(cliques)))


def test_dual_graph_single_clique(single_edge):
    t = CoherenceTable(single_edge, framing_by_edge_id(single_edge))
    assert dual_graph(maximal_cliques(t)) == []


def test_flip_involution_and_count(g27t):
    cliques = maximal_cliques(g27t)
    exc = set(g27t.exceptional_indices)
    nbs = neighbors(dual_graph(cliques), len(cliques))
    for ci, c in enumerate(cliques):
        flippable = [r for r in c if r not in exc]
        assert len(flippable) == 3  # number of inner vertices
        for r in flippable:
            other, incoming = flip(g27t, c, r)
            assert other in cliques
            back, out_again = flip(g27t, other, incoming)
            assert back == c and out_again == r
            assert cliques.index(other) in nbs[ci]


def test_flip_exchanges_unique_route(g27t):
    cliques = maximal_cliques(g27t)
    exc = set(g27t.exceptional_indices)
    c = cliques[0]
    r = next(i for i in c if i not in exc)
    other, s = flip(g27t, c, r)
    assert set(c) - set(other) == {r}
    assert set(other) - set(c) == {s}
    assert not g27t.coherent(r, s)


def _rows_table(adjacency: list[int]) -> types.SimpleNamespace:
    """A stand-in coherence table on hand-made rows, with no exceptional route."""
    n = len(adjacency)
    return types.SimpleNamespace(
        routes=[(i,) for i in range(n)], adjacency=adjacency, exceptional_indices=(), live=(1 << n) - 1
    )


@pytest.mark.parametrize(
    "n, coherent, exchanges",
    [
        # 2 and 3 conflict with 0 only, so either could replace it
        (4, {(0, 1), (1, 2), (1, 3), (2, 3)}, 2),
        # 2 conflicts with both 0 and 1: the ridge {1} lies on the boundary
        (3, {(0, 1)}, 0),
    ],
)
def test_flip_traversal_needs_one_exchange_per_ridge(n, coherent, exchanges):
    # the seed clique is {0, 1}, and flipping 0 out of it is the first flip tried
    adjacency = [sum(1 << j for j in range(n) if (i, j) in coherent or (j, i) in coherent) for i in range(n)]
    message = f"^unique-flip-neighbor: ridge admits {exchanges} exchanges for route 0, expected 1$"
    with pytest.raises(ConsistencyError, match=message):
        maximal_cliques_by_flips(_rows_table(adjacency))


@pytest.mark.parametrize(
    "adjacency, message",
    [
        # row 1 says 0 is coherent with it, row 0 disagrees: the seed {0, 1} clashes
        ([0b00, 0b01], "clique is not a clique of this coherence table"),
        # row 0 says 1 is coherent with it, row 1 disagrees: the seed {0} misses 1
        ([0b10, 0b00], "clique is not maximal in this coherence table"),
    ],
)
def test_flip_traversal_certifies_each_clique(adjacency, message):
    with pytest.raises(ConsistencyError, match=f"^unique-flip-neighbor: {message}$"):
        maximal_cliques_by_flips(_rows_table(adjacency))


def test_flip_traversal_matches(g27t, core8t):
    assert maximal_cliques_by_flips(g27t).relabelled().cliques == maximal_cliques(g27t)
    assert maximal_cliques_by_flips(core8t).relabelled().cliques == maximal_cliques(core8t)


def test_flip_traversal_matches_random():
    rng = random.Random(21)
    for _ in range(15):
        g = random_full_dag(rng, rng.randrange(2, 5))
        tagged = next(iter(enumerate_ample_framings(port_table(g))))
        t = CoherenceTable(g, tagged.framing)
        assert maximal_cliques_by_flips(t).relabelled().cliques == maximal_cliques(t)


def test_volume_invariance_across_framings(g27h):
    counts = set()
    for tagged in enumerate_ample_framings(port_table(g27h)):
        if not tagged.canonical:
            continue
        t = CoherenceTable(g27h, tagged.framing)
        counts.add(len(maximal_cliques(t)))
    assert counts == {16}


def test_total_volume_is_clique_count(core8, core8t):
    cliques = maximal_cliques(core8t)
    total = sum(
        simplex_volume(core8, [core8t.routes[i] for i in c]) for c in cliques
    )
    assert total == len(cliques)


def test_clique_cap(g27t):
    with pytest.raises(CliqueExplosionError):
        maximal_cliques(g27t, max_cliques=4)
    with pytest.raises(CliqueExplosionError):
        maximal_cliques_by_flips(g27t, max_cliques=4)
    assert len(maximal_cliques_by_flips(g27t, max_cliques=16).cliques) == 16


def brute_force_maximal_cliques(adj, vertices):
    """Every vertex subset that is a clique and has no common neighbour left."""
    out = []
    for k in range(len(vertices) + 1):
        for sub in itertools.combinations(vertices, k):
            if not all(adj[a] >> b & 1 for a, b in itertools.combinations(sub, 2)):
                continue
            if any(all(adj[v] >> u & 1 for u in sub) for v in vertices if v not in sub):
                continue
            out.append(sub)
    return sorted(out)


def test_bron_kerbosch_matches_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(0, 11)
        density = rng.choice((0.2, 0.5, 0.8))
        adj = [0] * n
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < density:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        vertices = [v for v in range(n) if rng.random() < 0.9]
        candidates = sum(1 << v for v in vertices)
        got = sorted(map(mask_members, bron_kerbosch(adj, candidates)))
        assert got == brute_force_maximal_cliques(adj, vertices)


def test_bron_kerbosch_empty_graph_and_cap():
    assert bron_kerbosch([], 0) == [0]
    assert len(bron_kerbosch([0] * 4, 0b1111, max_cliques=4)) == 4
    with pytest.raises(CliqueExplosionError):
        bron_kerbosch([0] * 5, 0b11111, max_cliques=4)


def test_clique_masks_decode_to_the_cliques_of_both_enumerations():
    rng = random.Random(13)
    tables = 0
    for _ in range(40):
        g = complete_contraction(random_valid_dag(rng, rng.randrange(2, 5), expansions=1)).result
        canonical = [t.framing for t in enumerate_ample_framings(port_table(g)) if t.canonical]
        for f in canonical[:3]:
            t = CoherenceTable(g, f)
            masks = clique_masks(t)
            assert sorted(map(mask_members, masks)) == maximal_cliques(t)
            assert masks == sorted(maximal_cliques_by_flips(t).masks)
            tables += 1
    assert tables >= 60


def test_unimodularity_keeps_no_graph_alive():
    g = complete_contraction(gkn(2, 7)).result
    t = CoherenceTable(g, framing_by_edge_id(g))
    assert verify_unimodular(g, [t.routes[i] for i in maximal_cliques(t)[0]])
    ref = weakref.ref(g)
    del g, t
    gc.collect()
    assert ref() is None


def test_simplex_volume_matches_gcd_of_minors():
    # random (d+1)-subsets of routes, not only cliques, so that degenerate
    # simplices and volumes above one are compared too
    rng = random.Random(3)
    seen = set()
    samples = 0
    while samples < 400 or not {0, 1, 2} <= seen:
        assert samples < 5000, f"volumes seen so far: {sorted(seen)}"
        g = random_full_dag(rng, rng.randrange(2, 5), rng.randrange(1, 3), rng.randrange(1, 3))
        routes = enumerate_routes(g)
        d = flow_dims(g)[1]
        for _ in range(10):
            simplex = rng.sample(routes, d + 1)
            volume = simplex_volume(g, simplex)
            assert volume == gcd_of_minors_volume(g, simplex)
            seen.add(min(volume, 2))
            samples += 1


# -- flip records ---------------------------------------------------------------


def _flip_corpus(g27h, g27f, core8, core8f, car8h):
    """(graph, framing) pairs: the worked examples, then up to 8 canonical
    framings of each of 100 seeded random contracted valid DAGs."""
    yield g27h, g27f
    yield core8, core8f
    yield car8h, named_framing(car8h, "length")
    rng = random.Random(9)
    for _ in range(100):
        g = random_valid_dag(rng, rng.randrange(2, 5), expansions=rng.randrange(0, 4))
        h = complete_contraction(g).result
        canonical = [t.framing for t in enumerate_ample_framings(port_table(h)) if t.canonical]
        for f in canonical[:8]:
            yield h, f


def test_flip_records_match_references(g27h, g27f, core8, core8f, car8h):
    tables = flips = 0
    for g, f in _flip_corpus(g27h, g27f, core8, core8f, car8h):
        t = CoherenceTable(g, f)
        cliques = maximal_cliques(t)
        visits = maximal_cliques_by_flips(t)
        # visit order: breadth-first from the lexicographically least
        # clique, each dual edge once, its a holding the pair's smaller route
        masks = visits.masks
        assert visits.cliques[0] == cliques[0] and len(masks) == len(cliques)
        assert len(set(map(frozenset, zip(visits.a, visits.b)))) == len(visits.a)
        for a, b, p in zip(visits.a, visits.b, visits.pair):
            x = visits.pairs[p]
            assert masks[a] ^ masks[b] == 1 << x.leaving | 1 << x.entering
            assert masks[a] >> x.leaving & 1 and x.leaving < x.entering
        # each later clique was found from its least neighbour, and those
        # come in visit order
        first = [min(nb) for nb in neighbors(list(zip(visits.a, visits.b)), len(masks))[1:]]
        assert first == sorted(first) and all(i <= j for j, i in enumerate(first))
        dual = visits.relabelled()
        assert dual.cliques == cliques
        assert dual.masks == [sum(1 << i for i in c) for c in cliques]
        assert list(zip(dual.a, dual.b)) == dual_graph(cliques)
        assert len(dual.pair) == len(dual.a)
        # one table entry per exchanged pair, each used by some record
        assert len(set(dual.pairs)) == len(dual.pairs) == len(set(dual.pair))
        for ia, ib, p in zip(dual.a, dual.b, dual.pair):
            rec = dual.pairs[p]
            a, b = set(cliques[ia]), set(cliques[ib])
            assert a - b == {rec.leaving} and b - a == {rec.entering}
            assert flip(t, cliques[ia], rec.leaving) == (cliques[ib], rec.entering)
            r, r_in = t.routes[rec.leaving], t.routes[rec.entering]
            s, s_in = t.routes[rec.swap], t.routes[rec.swap_in]
            assert sorted(r + r_in) == sorted(s + s_in)
            # swap starts like the leaving route, swap_in like the entering one
            assert (s[0], s[-1], s_in[0], s_in[-1]) == (r[0], r_in[-1], r_in[0], r[-1])
        per_clique = all(verify_unimodular(g, [t.routes[i] for i in c]) for c in cliques)
        assert unimodular_by_exchange(g, t, dual) == per_clique
        assert unimodular_by_exchange(g, t, visits) == per_clique
        tables += 1
        flips += len(dual.a)
    assert tables >= 600 and flips >= 25_000  # 699 and 30,612 when written


def _tampered(dual, k, **fields):
    """`dual` with record k pointed at a changed copy of its exchanged pair;
    the other records of that pair keep the original."""
    pair = array("i", dual.pair)
    pair[k] = len(dual.pairs)
    changed = dual.pairs[dual.pair[k]]._replace(**fields)
    return dataclasses.replace(dual, pair=pair, pairs=dual.pairs + [changed])


def test_exchange_certificate_rejects_broken_records(car8h):
    t = CoherenceTable(car8h, named_framing(car8h, "length"))
    dual = maximal_cliques_by_flips(t)
    assert unimodular_by_exchange(car8h, t, dual)
    k = len(dual.a) // 2
    rec = dual.pairs[dual.pair[k]]
    ridge = set(dual.cliques[dual.a[k]]) - {rec.leaving}
    outside = next(i for i in range(len(t.routes)) if i not in ridge)
    in_ridge = next(i for i in sorted(ridge) if i not in (rec.swap, rec.swap_in))
    for fields in (
        # r + r' = s + s' holds trivially, but the swaps are off the ridge
        {"swap": rec.leaving, "swap_in": rec.entering},
        {"swap": outside},
        {"swap_in": rec.leaving},
        {"swap": -1},
        # on the ridge, but r + r' = s + s' fails
        {"swap": in_ridge},
    ):
        assert not unimodular_by_exchange(car8h, t, _tampered(dual, k, **fields))


def test_seed_determinant_two_fails_the_verdict(g27h, g27f, monkeypatch):
    monkeypatch.setattr(flowpoly.triangulation, "simplex_volume", lambda g, routes: 2)
    report = analyze(g27h, g27f)
    assert [v.invariant for v in report.failed()] == ["cliques-unimodular"]


def test_exceptional_row_losing_a_bit_fails_the_verdict(g27h, g27f, monkeypatch):
    # two exceptional routes stop counting as coherent, after or before the
    # table names its exceptional routes; the ranks name them either way, no
    # enumeration reads their rows, so only the verdict on the rows sees it
    import flowpoly.analysis

    for before in (False, True):

        def tampered(g, f, routes):
            table = CoherenceTable(g, f, routes)
            e1, e2 = (CoherenceTable(g, f, routes) if before else table).exceptional_indices[:2]
            table.adjacency[e1] &= ~(1 << e2)
            table.adjacency[e2] &= ~(1 << e1)
            return table

        monkeypatch.setattr(flowpoly.analysis, "CoherenceTable", tampered)
        report = analyze(g27h, g27f)
        assert [v.invariant for v in report.failed()] == ["cliques-contain-exceptionals"], before


def test_analyze_decodes_no_clique_tuple(g29h, monkeypatch):
    # both enumerations keep cliques as bitmasks, and every verdict reads
    # those; a route tuple is decoded only for output
    import flowpoly.gentle

    decoded = []
    members = flowpoly.triangulation.mask_members
    for mod in (flowpoly.triangulation, flowpoly.gentle):
        monkeypatch.setattr(mod, "mask_members", lambda mask: decoded.append(mask) or members(mask))
    report = analyze(g29h, named_framing(g29h, "paper-g27"))
    assert report.ok and report.data["cliques"] == 272
    assert decoded == []
    # the poset's nodes decode on demand, as do the enumeration's cliques
    assert sorted(report.data["poset"].cliques) == maximal_cliques(report.table)
    assert len(decoded) == 2 * 272
