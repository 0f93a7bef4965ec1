import dataclasses
import itertools
import random
import tracemalloc
from array import array

import pytest

from conftest import (
    assert_transitively_reduced,
    common_components,
    hasse_per_record,
    implied_edge_reference,
    is_order_reversing_automorphism,
    orient_by_components,
    poset_from_hasse,
    printed_poset,
    shelling_reference,
    strictly_above,
)

from flowpoly.analysis import Instance
from flowpoly.errors import ConsistencyError, FlowpolyError, NotLinearExtensionError
from flowpoly.dag import complete_contraction
from flowpoly.framing import CoherenceTable, edge_labeling, framing_by_edge_id, named_framing
from flowpoly.generators import caracol, caracol_core, gkn, random_full_dag, random_valid_dag
from flowpoly.framing import enumerate_ample_framings, port_table
from flowpoly.poset import (
    _certify_covers,
    build_poset,
    orient_dual_edge,
)
from flowpoly.ehrhart import check_symmetry_unimodality
from flowpoly.triangulation import _swaps, maximal_cliques_by_flips

# Route ids in the contracted G(2,7), written as edge tuples (see test_framing)
R_216 = (6, 8, 4)  # weights 2,2,1
R_2112 = (6, 2, 3, 10)
R_2111 = (6, 2, 3, 4)
R_212 = (6, 2, 9)
R_1112 = (1, 2, 3, 10)
R_112 = (1, 2, 9)
R_2119 = (7, 3, 10)


@pytest.fixture(scope="module")
def g27poset(g27h, g27f, g27t):
    return printed_poset(g27h, g27f)


def clique_index(table, cliques, extra_routes):
    exc = set(table.exceptional_indices)
    want = {table.route_index[r] for r in extra_routes} | exc
    (hit,) = [i for i, c in enumerate(cliques) if set(c) == want]
    return hit


def test_common_components_vertex_and_edge(g27h):
    # routes sharing one edge and two stray vertices
    r1, r2 = (6, 8, 4), (6, 2, 3, 10)
    comps = common_components(g27h, r1, r2)
    # shared: initial vertex+edge 6, the vertex 5, and the sink
    assert any(len(c) == 3 for c, _, _ in comps)  # the shared first edge
    assert any(len(c) == 1 for c, _, _ in comps)
    # each component starts where the reported positions say on both routes
    for c, i1, i2 in comps:
        assert g27h.route_vertices(r1)[i1] == c[0] == g27h.route_vertices(r2)[i2]


def test_orient_dual_edge_examples(g27h, g27f, g27t):
    labels = edge_labeling(g27h, g27f)
    r_2112, r_112, r_216 = map(g27t.route_index.__getitem__, (R_2112, R_112, R_216))
    # exchanged pair whose qualifying component is the edge (3,4):
    # upper route enters it on weight 2 and leaves on weight 1
    sign, brick = orient_dual_edge(g27t, labels, r_2112, r_112)
    assert sign == 1 and brick == (3, 2, 4)
    sign, brick = orient_dual_edge(g27t, labels, r_112, r_2112)
    assert sign == -1 and brick == (3, 2, 4)
    # exchanged pair whose qualifying component is the single vertex 5
    sign, brick = orient_dual_edge(g27t, labels, r_216, r_2112)
    assert sign == 1 and brick == (5,)


def test_poset_shape_g27(g27poset):
    p = g27poset
    assert len(p.cliques) == 16
    assert len(p.hasse) == 24
    assert p.dcov_polynomial() == [1, 7, 7, 1]
    assert p.h_from_shelling(p.default_linear_extension()) == [1, 7, 7, 1]


def test_poset_given_labels_match_computed(g27h, g27f, g27t, g27poset):
    kiss = Instance(g27h, g27f).kiss
    p = build_poset(g27t, maximal_cliques_by_flips(g27t).relabelled(), edge_labeling(g27h, g27f), kiss)
    assert list(p.hasse) == list(g27poset.hasse)


def test_poset_single_clique(single_edge):
    f = framing_by_edge_id(single_edge)
    p = Instance(single_edge, f).poset
    assert len(p.cliques) == 1
    assert list(p.hasse) == []
    assert p.dcov_polynomial() == [1]
    assert p.h_from_shelling([0]) == [1]


def test_poset_self_dual_g27(g27h, g27t, g27poset):
    # reversing the vertex labels of the underlying graph preserves the
    # framing and turns the order upside down
    mu = {1: 4, 6: 10, 7: 9, 2: 3, 8: 8, 3: 2, 9: 7, 4: 1, 10: 6}
    ridx = {r: i for i, r in enumerate(g27t.routes)}

    def map_route(r):
        return tuple(reversed([mu[e] for e in r]))

    perm = {}
    for i, c in enumerate(g27poset.cliques):
        img = frozenset(ridx[map_route(g27t.routes[j])] for j in c)
        (perm[i],) = [k for k, ck in enumerate(g27poset.cliques) if frozenset(ck) == img]
    assert is_order_reversing_automorphism(g27poset, perm)


def test_kappa_figure_instance(g27t, g27poset):
    p = g27poset
    cliques = p.cliques
    d1 = clique_index(g27t, cliques, {R_216, R_2111, R_212})
    d2 = clique_index(g27t, cliques, {R_2112, R_2111, R_212})
    d3 = clique_index(g27t, cliques, {R_1112, R_112, R_212})
    d4 = clique_index(g27t, cliques, {R_1112, R_2119, R_2112})
    covers = set(zip(p.lo, p.hi))
    assert (d2, d1) in covers
    assert p.kappa[d1] == d3
    assert p.kappa[d2] == d4
    assert (d4, d3) not in covers
    # hence kappa is not order-preserving on this poset
    assert not all((p.kappa[lo], p.kappa[hi]) in covers for lo, hi, _ in p.hasse)


def test_kappa_statistics(g27poset):
    p = g27poset
    for i, j in enumerate(p.kappa):
        assert p.down_degrees[i] == p.up_degrees[j]
    assert sorted(p.kappa) == list(range(16))


def test_kappa_max_to_min(g27poset):
    p = g27poset
    (top,) = [i for i in range(16) if p.up_degrees[i] == 0]
    (bottom,) = [i for i in range(16) if p.down_degrees[i] == 0]
    assert p.kappa[top] == bottom


def test_shelling_random_extensions(g27poset):
    p = g27poset
    dcov = p.dcov_polynomial()
    for ext in p.random_linear_extensions(20, seed=42):
        assert p.h_from_shelling(ext) == dcov


def test_shelling_rejects_non_extension(g27poset):
    p = g27poset
    ext = p.default_linear_extension()
    bad = list(reversed(ext))
    with pytest.raises(NotLinearExtensionError):
        p.h_from_shelling(bad)
    with pytest.raises(NotLinearExtensionError):
        p.h_from_shelling([0] * len(ext))


def test_poset_regular_random():
    rng = random.Random(77)
    for _ in range(10):
        g = random_full_dag(rng, rng.randrange(2, 5))
        tagged = next(iter(enumerate_ample_framings(port_table(g))))
        p = Instance(g, tagged.framing).poset
        n = len(g.inner)
        dcov = p.dcov_polynomial()
        assert dcov == dcov[::-1]
        assert len(dcov) == n + 1 and dcov[0] == 1 and dcov[-1] == 1
        for i in range(len(p.cliques)):
            assert p.down_degrees[i] + p.up_degrees[i] == n
        for ext in p.random_linear_extensions(5, seed=1):
            assert p.h_from_shelling(ext) == dcov


def test_transitive_reduction_check(g27poset):
    cliques = [(i,) for i in range(4)]

    def poset(hasse):
        return poset_from_hasse(cliques, hasse)

    chain = [(0, 1, (1,)), (1, 2, (2,)), (2, 3, (3,))]
    assert_transitively_reduced(poset(chain))
    # the chord 0 < 3 is implied by the chain 0 < 1 < 2 < 3
    with pytest.raises(ConsistencyError, match="oriented-dual-edges-are-covers: edge 0<3 implied through 1"):
        assert_transitively_reduced(poset(chain + [(0, 3, (4,))]))
    # build_poset runs the check on every poset it returns
    assert_transitively_reduced(g27poset)


def test_check_symmetry_unimodality():
    assert check_symmetry_unimodality([1, 7, 7, 1]) == (True, True, True)
    assert check_symmetry_unimodality([1]) == (True, True, True)
    assert check_symmetry_unimodality([1, 2, 1, 3]) == (False, False, False)
    assert check_symmetry_unimodality([1, 7, 7, 1, 0, 0]) == (True, True, True)
    assert check_symmetry_unimodality([1, 2, 3, 2, 1]) == (True, True, True)
    assert check_symmetry_unimodality([1, 3, 1, 3, 1]) == (True, False, True)


def brick_as_blossom_walk(g, labels, brick):
    """A brick walk in the graph, rewritten over quiver arrows with signs."""
    from flowpoly.gentle import Walk

    vertices = tuple(brick[0::2])
    letters = tuple(
        (e, 1 if labels[e] == 1 else -1) for e in brick[1::2]
    )
    return Walk(vertices, letters)


def test_bricks_match_rigidity_obstructions(g27h, g27f, g27t, core8, core8f, core8t):
    from flowpoly.gentle import (
        blossom,
        build_quiver,
        extend_string,
        obstruction_walks,
        route_to_module,
    )

    for g, f, t in ((g27h, g27f, g27t), (core8, core8f, core8t)):
        labels = edge_labeling(g, f)
        bq = blossom(build_quiver(g, f))
        p = Instance(g, f).poset
        for lo, hi, brick in p.hasse:
            (r_up,) = set(p.cliques[hi]) - set(p.cliques[lo])
            (r_low,) = set(p.cliques[lo]) - set(p.cliques[hi])
            w_up = extend_string(bq, route_to_module(g, labels, t.routes[r_up]))
            w_low = extend_string(bq, route_to_module(g, labels, t.routes[r_low]))
            sigmas = obstruction_walks(w_up, w_low)
            assert sigmas, "cover relation must carry a rigidity obstruction"
            want = brick_as_blossom_walk(g, labels, brick)
            assert all(s == want or s == want.reversed() for s in sigmas)
            assert not obstruction_walks(w_low, w_up)


@pytest.fixture(scope="module", params=["g29", "car8"])
def flipped(request, g29h, car8h):
    """The stages of a contracted instance."""
    g, name = (g29h, "paper-g27") if request.param == "g29" else (car8h, "length")
    return Instance(g, named_framing(g, name))


def test_per_pair_work_matches_per_record_reference(flipped):
    t, dual, labels = flipped.table, flipped.dual, flipped.labels
    pairs = {(rec.leaving, rec.entering) for rec in dual.pairs}
    assert len(pairs) < len(dual.pair)  # records do share route pairs
    assert list(flipped.poset.hasse) == hasse_per_record(labels, t, dual)
    for rec in dual.pairs:
        assert (rec.swap, rec.swap_in) == _swaps(t, rec.leaving, rec.entering)


def test_each_exchanged_pair_is_oriented_once(flipped, monkeypatch):
    import flowpoly.poset

    dual = flipped.dual
    calls = []
    orient = flowpoly.poset.orient_dual_edge
    monkeypatch.setattr(
        flowpoly.poset, "orient_dual_edge", lambda *args: calls.append(args) or orient(*args)
    )
    build_poset(flipped.table, dual, flipped.labels, flipped.kiss)
    assert 0 < len(calls) <= len({(rec.leaving, rec.entering) for rec in dual.pairs})


def test_flips_and_poset_walk_each_route_at_most_once(g29h, monkeypatch):
    # the exchanged pairs read their swaps and orientations off the stop
    # table, which walks each route once
    inst = Instance(g29h, named_framing(g29h, "paper-g27"))
    t = inst.table
    t.adjacency, t.live, inst.kiss  # these walk the routes on their own
    walks = []
    visits = CoherenceTable.visits
    monkeypatch.setattr(CoherenceTable, "visits", lambda self, i: walks.append(i) or visits(self, i))
    build_poset(t, maximal_cliques_by_flips(t), inst.labels, inst.kiss)
    assert walks and len(walks) == len(set(walks))


def test_orientation_is_antisymmetric(flipped):
    t, labels = flipped.table, flipped.labels
    for r1, r2 in {(rec.leaving, rec.entering) for rec in flipped.dual.pairs}:
        sign, brick = orient_dual_edge(t, labels, r1, r2)
        assert orient_dual_edge(t, labels, r2, r1) == (-sign, brick)


def test_reversed_edges_and_implied_chords_raise(flipped):
    t, kiss = flipped.table, flipped.kiss
    cliques = [(i,) for i in range(3)]
    chain = [(0, 1, (1,)), (1, 2, (2,))]
    # a chain closed by its reversed chord is a cycle
    cyclic = poset_from_hasse(cliques, chain + [(2, 0, (3,))])
    with pytest.raises(ConsistencyError, match="^order-closure-acyclic"):
        cyclic.default_linear_extension()
    # reversing any one lo/hi pair of a real poset leaves an implied edge,
    # and the first one found is the one the dict-based sweep finds; the
    # kissing certificate sees the leaving route kiss the entering one
    p = flipped.poset
    assert implied_edge_reference(p) is None
    for k in range(0, len(p.hasse), 7):
        lo, hi = array("i", p.lo), array("i", p.hi)
        lo[k], hi[k] = p.hi[k], p.lo[k]
        mutant = dataclasses.replace(p, lo=lo, hi=hi)
        node, top, mid = implied_edge_reference(mutant)
        with pytest.raises(
            ConsistencyError,
            match=f"oriented-dual-edges-are-covers: edge {node}<{top} implied through {mid}$",
        ):
            assert_transitively_reduced(mutant)
        with pytest.raises(
            ConsistencyError, match=f"hasse-edges-follow-kissing-order: edge {lo[k]}<{hi[k]} on dual edge "
        ):
            _certify_covers(mutant, kiss, t.adjacency)
    # so does a chord over any two-edge chain lo < mid < hi; to the
    # certificate it is no exchange, with or without a dual record of its own
    ups = p.ups
    chains = [(lo, hi) for lo in range(len(p.cliques)) for mid in ups[lo] for hi in ups[mid]]
    assert chains
    for lo, hi in chains[::11]:
        mutant = poset_from_hasse(p.cliques, list(p.hasse) + [(lo, hi, ())], p.dual)
        node, top, mid = implied_edge_reference(mutant)
        assert (node, top) == (lo, hi)
        with pytest.raises(
            ConsistencyError,
            match=f"oriented-dual-edges-are-covers: edge {node}<{top} implied through {mid}$",
        ):
            assert_transitively_reduced(mutant)
        with pytest.raises(ConsistencyError, match="oriented-dual-edges-are-covers: "):
            _certify_covers(mutant, kiss, t.adjacency)
        recorded = dataclasses.replace(
            p.dual,
            a=p.dual.a + (lo,),
            b=p.dual.b + (hi,),
            pair=p.dual.pair + (p.dual.pair[0],),
        )
        mutant = dataclasses.replace(mutant, dual=recorded)
        with pytest.raises(
            ConsistencyError,
            match=f"oriented-dual-edges-are-covers: edge {lo}<{hi} on dual edge {lo}-{hi} trades ",
        ):
            _certify_covers(mutant, kiss, t.adjacency)


def test_flipped_kiss_bits_raise(flipped):
    t, dual, p, kiss = flipped.table, flipped.dual, flipped.poset, flipped.kiss
    _certify_covers(p, kiss, t.adjacency)
    for ex in dual.pairs[::5]:
        r, s = ex.leaving, ex.entering
        on_pair = rf"edge \d+<\d+ on dual edge \d+-\d+ trades route ({r} for {s}|{s} for {r})$"
        # swapping the direction of the pair's one kiss turns it against
        # the orientation
        bad = kiss[:]
        bad[r] ^= 1 << s
        bad[s] ^= 1 << r
        with pytest.raises(ConsistencyError, match="hasse-edges-follow-kissing-order: " + on_pair):
            _certify_covers(p, bad, t.adjacency)
        # without it, the exchange is not certified as a cover
        lost = kiss[:]
        lost[r] &= ~(1 << s)
        lost[s] &= ~(1 << r)
        with pytest.raises(ConsistencyError, match="oriented-dual-edges-are-covers: " + on_pair):
            _certify_covers(p, lost, t.adjacency)
    # a kiss between coherent routes breaks C1
    u = next(u for u, row in enumerate(t.adjacency) if row and kiss[u])
    v = (t.adjacency[u] & -t.adjacency[u]).bit_length() - 1
    bad = kiss[:]
    bad[u] |= 1 << v
    with pytest.raises(
        ConsistencyError, match=f"hasse-edges-follow-kissing-order: route {u} kisses a coherent route$"
    ):
        _certify_covers(p, bad, t.adjacency)


def test_repeated_cover_brick_raises():
    # node 0 has two up-covers labelled by the same brick
    p = poset_from_hasse([(0,), (1,), (2,)], [(0, 1, (5,)), (0, 2, (5,))])
    with pytest.raises(
        ConsistencyError, match=r"cover-bricks-distinct: brick \(5,\) labels two up-covers of node 0$"
    ):
        p.kappa
    p = poset_from_hasse([(0,), (1,), (2,)], [(0, 2, (5,)), (1, 2, (5,))])
    with pytest.raises(
        ConsistencyError, match=r"cover-bricks-distinct: brick \(5,\) labels two down-covers of node 2$"
    ):
        p.kappa


@pytest.mark.parametrize(
    "hasse, failure",
    [
        # nodes 1 and 2 are both maximal: no up-brick tells them apart
        ([(0, 1, (5,)), (0, 2, (6,))], r"up-bricks-determine-node: nodes \[1, 2\] share up-brick multiset"),
        # no node has the up-bricks {5} that node 1 has below it
        ([(0, 1, (5,)), (0, 2, (6,)), (1, 3, (6,)), (2, 3, (7,))], "kappa-total: node 1 has no kappa image"),
        # nodes 0 and 2 both have down-bricks {5}, so both map to node 1
        ([(1, 0, (5,)), (3, 2, (5,)), (2, 3, (6,)), (3, 1, (6,))], "kappa-bijective: kappa is not injective"),
    ],
)
def test_kappa_failures_are_named(hasse, failure):
    nodes = 1 + max(max(lo, hi) for lo, hi, _ in hasse)
    p = poset_from_hasse([(i,) for i in range(nodes)], hasse)
    with pytest.raises(ConsistencyError, match=failure + "$"):
        p.kappa


def test_kappa_memory_per_node():
    # kappa is a node list, and only a transient dict maps up-masks to nodes.
    # On contracted car 10 (429 nodes) Python 3.11 reads 143 B/node at the
    # peak and 22 B/node kept; a result dict and a set of its values read 279
    # and 69.  The bounds sit about 50% above the list (and well below the
    # dicts), room for the container sizes of other Python versions.
    g = complete_contraction(caracol(10)).result
    p = Instance(g, named_framing(g, "length")).poset
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        p.kappa
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak / len(p) < 215
    assert kept / len(p) < 35


def kissing_instances():
    """The named instances under their framing, and up to six canonical
    ample framings of each of 60 seeded random full DAGs."""
    yield complete_contraction(gkn(2, 7)).result, None
    yield complete_contraction(gkn(2, 9)).result, None
    yield complete_contraction(caracol(8)).result, None
    yield caracol_core(8), None
    rng = random.Random(1414)
    for k in range(60):
        g = random_full_dag(rng, 2 + k % 4)
        canonical = (tagged.framing for tagged in enumerate_ample_framings(port_table(g)) if tagged.canonical)
        for f in itertools.islice(canonical, 6):
            yield g, f


def test_kissing_order_is_the_closure():
    # a <=_kiss b iff no route of a kisses a route of b; on distinct
    # cliques it is the transitive closure of the Hasse edges, so it is
    # transitive, and C1 and C2 hold
    instances = pairs = 0
    for g, f in kissing_instances():
        f = f or framing_by_edge_id(g)
        inst = Instance(g, f)
        t, p, kiss = inst.table, inst.poset, inst.kiss
        assert_transitively_reduced(p)
        for u, row in enumerate(kiss):
            assert not row & (t.adjacency[u] | 1 << u)
        masks = p.dual.masks
        for lo, hi in zip(p.lo, p.hi):
            (r,) = set(p.cliques[lo]) - set(p.cliques[hi])
            (s,) = set(p.cliques[hi]) - set(p.cliques[lo])
            assert kiss[s] >> r & 1 and not kiss[r] >> s & 1
        kissed = []
        for c in p.cliques:
            row = 0
            for u in c:
                row |= kiss[u]
            kissed.append(row)
        above = strictly_above(p)
        for a in range(len(p.cliques)):
            for b in range(len(p.cliques)):
                if a != b:
                    assert bool(above[a] >> b & 1) == (not kissed[a] & masks[b]), (a, b)
        instances += 1
        pairs += len(p.cliques) ** 2
    assert instances >= 200 and pairs > 100000


def test_check_linear_extension_rejects_non_permutations(g27poset):
    p = g27poset
    ext = p.default_linear_extension()
    n = len(ext)
    assert p.check_linear_extension(ext) == [ext.index(v) for v in range(n)]
    for bad in (ext[:-1], ext[:-1] + ext[:1], ext[:-1] + [-1], ext[:-1] + [n], ext + [n]):
        with pytest.raises(NotLinearExtensionError, match="not a permutation"):
            p.check_linear_extension(bad)


def test_shelling_matches_per_node_reference(flipped):
    p = flipped.poset
    exts = [p.default_linear_extension()] + p.random_linear_extensions(8, seed=5)
    for ext in exts:
        assert p.h_from_shelling(ext) == shelling_reference(p, ext) == p.dcov_polynomial()


def test_shelling_counts_each_dual_edge_at_its_later_end():
    # node 0 covers 1 and 2, so the dual edges (0, 1) and (0, 2) both count
    # toward node 0, which every linear extension places last
    cliques = [(0,), (1,), (2,)]
    p = poset_from_hasse(cliques, [(1, 0, (1,)), (2, 0, (2,))])
    for ext in ([1, 2, 0], [2, 1, 0]):
        assert p.h_from_shelling(ext) == shelling_reference(p, ext) == [2, 0, 1]


def test_seeded_extensions_are_unchanged(g27poset):
    # the extensions that this seed drew before the node-indexed rewrite
    assert g27poset.random_linear_extensions(5, seed=7) == [
        [0, 1, 5, 6, 2, 3, 7, 4, 10, 11, 8, 12, 9, 15, 13, 14],
        [0, 5, 2, 1, 3, 6, 4, 7, 10, 8, 11, 9, 12, 13, 15, 14],
        [0, 5, 1, 3, 6, 7, 2, 11, 13, 4, 12, 10, 8, 15, 9, 14],
        [0, 2, 5, 6, 10, 8, 9, 1, 3, 11, 7, 4, 12, 15, 13, 14],
        [0, 5, 1, 2, 10, 3, 8, 4, 6, 7, 9, 11, 12, 15, 13, 14],
    ]
    # the default sweep takes the last ready node
    assert g27poset.default_linear_extension() == [0, 5, 6, 2, 10, 8, 9, 1, 7, 3, 11, 13, 4, 12, 15, 14]


def test_negative_extension_counts_are_rejected(g27h, g27poset):
    # a negative count would draw no extension and pass silently
    from flowpoly.analysis import analyze

    with pytest.raises(FlowpolyError, match="^extension count -3 is negative$"):
        g27poset.random_linear_extensions(-3, seed=0)
    with pytest.raises(FlowpolyError, match="^extension count -3 is negative$"):
        analyze(g27h, named_framing(g27h, "paper-g27"), extensions=-3)
    assert g27poset.random_linear_extensions(0, seed=0) == []


def test_cover_degrees_and_default_extension_follow_the_hasse_edges(flipped):
    p = flipped.poset
    hasse = list(p.hasse)
    assert p.down_degrees == [sum(hi == node for _, hi, _ in hasse) for node in range(len(p))]
    assert p.up_degrees == [sum(lo == node for lo, _, _ in hasse) for node in range(len(p))]
    p.check_linear_extension(p.default_linear_extension())


def test_orientation_from_route_cuts_matches_components():
    # every route pair, exchanged or not, against the whole-component
    # reference: the same (sign, brick), or the same error
    rng = random.Random(23)
    pairs = 0
    for _ in range(25):
        g = complete_contraction(random_valid_dag(rng, rng.randrange(2, 5), expansions=1)).result
        canonical = [t.framing for t in enumerate_ample_framings(port_table(g)) if t.canonical]
        for f in canonical[:3]:
            t, labels = CoherenceTable(g, f), edge_labeling(g, f)
            for i, j in itertools.permutations(range(len(t.routes)), 2):
                try:
                    want = orient_by_components(g, labels, t.routes[i], t.routes[j])
                except FlowpolyError as exc:
                    want = (type(exc), str(exc))
                try:
                    got = orient_dual_edge(t, labels, i, j)
                except FlowpolyError as exc:
                    got = (type(exc), str(exc))
                assert got == want
                pairs += 1
    assert pairs >= 15_000  # 16,524, of which 4,032 orient, when written
