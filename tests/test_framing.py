import json
import random
import timeit
from collections import Counter
from pathlib import Path

import pytest

import flowpoly.framing
from conftest import (
    all_framings,
    ample_framings_reference,
    build_ranks_reference,
    check_exceptional_set,
    compare_paths_at,
    route_conflicts,
    routes_coherent,
)

from flowpoly.dag import Dag, complete_contraction, enumerate_routes, is_full
from flowpoly.errors import (
    BadChoicesError,
    FramingError,
    InconsistentFramingError,
    NotValidError,
)
from flowpoly.framing import (
    CoherenceTable,
    Framing,
    adjacency_graph,
    count_ample_framings,
    edge_labeling,
    enumerate_ample_framings,
    exceptional_routes,
    framing_by_edge_id,
    framing_from_json,
    framing_to_json,
    idle_reachability,
    is_ample,
    lift_framing,
    path_cycle_decomposition,
    port_table,
    validate_framing,
)
from flowpoly.generators import caracol, caracol_core, gkn, random_full_dag, random_valid_dag

# Edge ids of the 13-edge doubled-fan graph (vertices 1..6):
#   0..3  arcs (2,6) (3,6) (4,6) (5,6)
#   4..7  arcs (1,2) (1,3) (1,4) (1,5)
#   8..12 path (1,2) (2,3) (3,4) (4,5) (5,6)
CORE8_EXCEPTIONAL = [(4, 0), (5, 1), (6, 2), (7, 3), (8, 9, 10, 11, 12)]
CORE8_BIG_CLIQUE = CORE8_EXCEPTIONAL + [
    (4, 9, 10, 11, 12),
    (5, 10, 11, 12),
    (6, 11, 12),
    (7, 12),
]


def test_compare_out_paths_core8(core8, core8f):
    # the shorter hop to the sink precedes the continuation along the path
    p = (10, 2)  # 3-4 then 4-6
    q = (10, 11, 12)  # 3-4-5-6
    assert compare_paths_at(core8, core8f, 3, p, q, "out") == -1
    assert compare_paths_at(core8, core8f, 3, q, p, "out") == 1


def test_compare_in_paths_core8(core8, core8f):
    a = (6,)  # the arc 1-4
    b = (8, 9, 10)  # 1-2-3-4 along the path
    assert compare_paths_at(core8, core8f, 4, a, b, "in") == -1


def test_compare_equal_paths(core8, core8f):
    assert compare_paths_at(core8, core8f, 4, (6,), (6,), "in") == 0


def test_compare_not_through_vertex(core8, core8f):
    with pytest.raises(ValueError, match="^path does not end at 5"):
        compare_paths_at(core8, core8f, 5, (6,), (8, 9, 10), "in")


def test_conflict_witnesses_core8(core8, core8f):
    # 1346 vs 1236 conflict at 3; 13456 vs 12346 at both 3 and 4
    assert route_conflicts(core8, core8f, (5, 10, 2), (4, 9, 1)) == [3]
    assert route_conflicts(core8, core8f, (5, 10, 11, 12), (4, 9, 10, 2)) == [3, 4]
    assert routes_coherent(core8, core8f, (5, 1), (8, 9, 10, 11, 12))


def test_coherence_symmetric_reflexive(core8, core8f, core8t):
    n = len(core8t.routes)
    for i in range(n):
        assert core8t.coherent(i, i)
        for j in range(i + 1, n):
            assert core8t.coherent(i, j) == core8t.coherent(j, i)


def test_exceptional_routes_core8(core8t):
    assert exceptional_routes(core8t) == sorted(CORE8_EXCEPTIONAL)


def test_exceptional_routes_g27(g27t):
    assert exceptional_routes(g27t) == [(1, 2, 3, 4), (6, 8, 10), (7, 9)]


def test_index_of_every_route_g27(g27h, g27t):
    for i, r in enumerate(g27t.routes):
        assert g27t.index_of(r) == i
        assert g27t.index_of(list(r)) == i
    missing = g27t.routes[0][:-1]
    assert missing not in g27t.routes
    with pytest.raises(ValueError):
        g27t.index_of(missing)


def test_exceptional_single_route(single_edge):
    f = framing_by_edge_id(single_edge)
    assert exceptional_routes(CoherenceTable(single_edge, f)) == [(0,)]
    assert is_ample(CoherenceTable(single_edge, f))


def test_is_ample_core8(core8, core8f):
    assert is_ample(CoherenceTable(core8, core8f))
    # flipping one out-order breaks the labeling and loses coverage
    broken = Framing(dict(core8f.in_order), dict(core8f.out_order))
    broken.out_order[3] = tuple(reversed(broken.out_order[3]))
    assert not is_ample(CoherenceTable(core8, broken))


def test_edge_labeling_core8(core8, core8f):
    labels = edge_labeling(core8, core8f)
    assert all(labels[e] == 1 for e in range(8))
    assert all(labels[e] == 2 for e in range(8, 13))


def test_edge_labeling_swap(core8, core8f):
    reverse = Framing(
        {v: tuple(reversed(o)) for v, o in core8f.in_order.items()},
        {v: tuple(reversed(o)) for v, o in core8f.out_order.items()},
    )
    a = edge_labeling(core8, core8f)
    b = edge_labeling(core8, reverse)
    framed = {e for e in core8.tail if core8.tail[e] in core8.inner or core8.head[e] in core8.inner}
    assert all(a[e] + b[e] == 3 for e in framed)


def test_edge_labeling_inconsistent(core8, core8f):
    broken = Framing(dict(core8f.in_order), dict(core8f.out_order))
    broken.out_order[3] = tuple(reversed(broken.out_order[3]))
    with pytest.raises(InconsistentFramingError):
        edge_labeling(core8, broken)


def test_framing_validation(core8):
    with pytest.raises(FramingError):
        validate_framing(core8, Framing({}, {}))


def test_framing_json_round_trip(core8, core8f):
    assert framing_from_json(core8, framing_to_json(core8f)).key() == core8f.key()


def test_framing_json_keys_name_the_graphs_vertices(core8, core8f):
    # keys are str(v) of an inner vertex, for string ids too; any other
    # spelling names no vertex
    name = {v: f"v{v}" for v in core8.vertices}
    g = Dag.build(name.values(), [(e, name[t], name[h]) for e, t, h in core8.edges])
    f = Framing(
        {name[v]: o for v, o in core8f.in_order.items()}, {name[v]: o for v, o in core8f.out_order.items()}
    )
    assert framing_from_json(g, framing_to_json(f)).key() == f.key()
    v = min(core8.inner)
    with pytest.raises(FramingError, match=f"^framing names '{v}', which is not an inner vertex$"):
        framing_from_json(g, framing_to_json(core8f))
    text = framing_to_json(core8f).replace(f'"{v}"', f'"0{v}"', 1)
    with pytest.raises(FramingError, match=f"^framing names '0{v}', which is not an inner vertex$"):
        framing_from_json(core8, text)


@pytest.mark.parametrize("bad", ["x", None, [1], {}, True, 1.0])
def test_framing_json_edge_ids_are_ints(core8, core8f, bad):
    data = json.loads(framing_to_json(core8f))
    v = str(min(core8.inner))
    data["out_order"][v][0] = bad
    with pytest.raises(FramingError, match=f"^order at vertex '{v}' holds an edge id that is not an int: "):
        framing_from_json(core8, json.dumps(data))


def test_check_exceptional_set_negative(core8):
    # 123456, 136, 146, 1236: edge (1,5) uncovered, adjacency graph odd cycle
    x = [(8, 9, 10, 11, 12), (5, 1), (6, 2), (4, 9, 1)]
    res = check_exceptional_set(core8, x)
    assert not res.ok
    adj = res.adjacency
    assert len(adj.edges) == 4
    assert not adj.is_bipartite()[0]


def test_check_exceptional_set_positive(core8):
    res = check_exceptional_set(core8, CORE8_EXCEPTIONAL)
    assert res.ok and res.framing is not None
    table = CoherenceTable(core8, res.framing)
    assert is_ample(table)
    got = [table.routes[i] for i in table.exceptional_indices]
    assert got == sorted(CORE8_EXCEPTIONAL)


def test_check_exceptional_set_single_route(single_edge):
    res = check_exceptional_set(single_edge, [(0,)])
    assert res.ok


def test_decomposition_big_full(big_full):
    d = path_cycle_decomposition(big_full)
    assert d.m == 9
    assert len(d.components) == 9
    kinds = sorted(c.kind for c in d.components)
    assert kinds.count("path") == 9
    walks = {c.walk() for c in d.components}
    # the long component through all six fan vertices, as in the worked example
    assert any(len(c.edges) == 8 for c in d.components)
    assert count_ample_framings(port_table(big_full)) == 512


def test_decomposition_g310():
    h = complete_contraction(gkn(3, 10)).result
    d = path_cycle_decomposition(h)
    assert d.m == 4
    assert len(d.components) == 4
    assert sorted(len(c.edges) for c in d.components) == [2, 2, 3, 5]
    assert count_ample_framings(port_table(gkn(3, 10))) == 256


def test_decomposition_single_edge(single_edge):
    d = path_cycle_decomposition(single_edge)
    assert d.m == 0
    assert len(d.components) == 1
    assert d.components[0].kind == "source-sink edge"
    assert count_ample_framings(port_table(single_edge)) == 1


def test_decomposition_cycle_component():
    # a complete bipartite middle layer closes an alternating 4-cycle
    g = Dag.build(
        [0, 1, 2, 3, 4, 5],
        [
            (0, 0, 1),
            (1, 0, 1),
            (2, 0, 2),
            (3, 0, 2),
            (4, 1, 3),
            (5, 1, 4),
            (6, 2, 3),
            (7, 2, 4),
            (8, 3, 5),
            (9, 3, 5),
            (10, 4, 5),
            (11, 4, 5),
        ],
    )
    assert is_full(g)
    d = path_cycle_decomposition(g)
    cycles = [c for c in d.components if c.kind == "cycle"]
    assert cycles, "expected an alternating cycle component"
    for c in cycles:
        assert len(c.edges) % 2 == 0
        assert c.vertices[0] == c.vertices[-1]
    assert sorted(cycles[0].edges) == [4, 5, 6, 7]


def test_count_refuses_nonforest_idle_structure():
    # a valid DAG (its complete contraction is full) whose idle edges close
    # an undirected cycle; the product formula would report 32 while the
    # true number of ample framings is 16, so the count must fail loudly
    from flowpoly.errors import ConsistencyError

    g = Dag.build(
        [1, 2, 3, 4, 5, 6, 7],
        [
            (0, 1, 2),
            (1, 1, 2),
            (2, 1, 3),
            (3, 2, 3),
            (4, 3, 4),
            (5, 3, 4),
            (6, 2, 5),
            (7, 6, 5),
            (8, 7, 5),
            (9, 4, 6),
            (10, 4, 7),
        ],
    )
    from flowpoly.dag import is_valid as _is_valid

    assert _is_valid(g)
    with pytest.raises(ConsistencyError):
        count_ample_framings(port_table(g))
    brute = sum(1 for f in all_framings(g) if is_ample(CoherenceTable(g, f)))
    assert brute == 16


def test_count_not_valid():
    g = Dag.build(
        [0, 1, 2],
        [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 1, 2), (4, 1, 2), (5, 1, 2)],
    )
    with pytest.raises(NotValidError):
        count_ample_framings(port_table(g))


def test_gkn_framing_count_table():
    expected = {
        (2, 3): 4,
        (2, 4): 16,  # boundary n=2k, the 2^n branch
        (2, 5): 32,
        (2, 6): 32,
        (3, 4): 4,
        (3, 5): 16,
        (3, 6): 64,  # boundary n=2k
        (3, 7): 128,
        (3, 8): 256,
        (3, 9): 256,
        (3, 11): 256,
    }
    for (k, n), want in expected.items():
        assert count_ample_framings(port_table(gkn(k, n + 1))) == want, (k, n)


def test_enumerate_ample_framings_g27(g27h):
    table = port_table(g27h)
    tagged = list(enumerate_ample_framings(table))
    assert len(tagged) == count_ample_framings(table) == 8
    for t in tagged:
        assert is_ample(CoherenceTable(g27h, t.framing))
        partner = tagged[t.swap_partner]
        framed = {
            e
            for e in g27h.tail
            if g27h.tail[e] in g27h.inner or g27h.head[e] in g27h.inner
        }
        assert all(t.labels[e] + partner.labels[e] == 3 for e in framed)
    assert sum(1 for t in tagged if t.canonical) == 4


def test_distinct_triangulations_are_half(g27h):
    from flowpoly.triangulation import maximal_cliques

    seen = {}
    for t in enumerate_ample_framings(port_table(g27h)):
        table = CoherenceTable(g27h, t.framing)
        key = frozenset(
            frozenset(table.routes[i] for i in c) for c in maximal_cliques(table)
        )
        seen.setdefault(key, []).append(t.index)
    assert len(seen) == 4  # 2^(M-1)
    for members in seen.values():
        assert len(members) == 2


def test_enumeration_matches_brute_force():
    rng = random.Random(5)
    done = 0
    while done < 15:
        g = random_full_dag(rng, rng.randrange(1, 4))
        if len(g.edges) > 10:
            continue
        done += 1
        brute = {f.key() for f in all_framings(g) if is_ample(CoherenceTable(g, f))}
        enum = {t.framing.key() for t in enumerate_ample_framings(port_table(g))}
        assert brute == enum


def _seeded_valid_dags():
    rng = random.Random(18)
    return [random_valid_dag(rng, rng.randrange(1, 5), expansions=rng.randrange(0, 3)) for _ in range(40)]


def test_tagged_framings_match_per_index_reference():
    # the port table against labeling each component and sorting each port
    # afresh for every index
    graphs = [caracol(8), caracol(10), caracol_core(8), gkn(2, 7), gkn(2, 9)] + _seeded_valid_dags()
    seen = 0
    for g in graphs:
        h = complete_contraction(g).result
        tagged = list(enumerate_ample_framings(port_table(h)))
        reference = list(ample_framings_reference(h))
        assert len(tagged) == len(reference)
        for t, (index, partner, canonical, labels, framing) in zip(tagged, reference):
            assert (t.index, t.swap_partner, t.canonical) == (index, partner, canonical)
            assert t.labels == labels
            assert t.framing.key() == framing.key()
            assert t.framing is t.framing  # built once
        seen += len(tagged)
    assert seen >= 500  # 992 when written


def test_port_table_refuses_a_port_split_across_components(g27h):
    from flowpoly.errors import ConsistencyError
    from flowpoly.framing import Component, Decomposition, _PortTable

    decomp = path_cycle_decomposition(g27h)
    comp = next(c for c in decomp.components if len(c.edges) > 1)
    split = [
        Component(comp.vertices[:2], comp.edges[:1], "path"),
        Component(comp.vertices[1:], comp.edges[1:], "path"),
    ]
    others = [c for c in decomp.components if c is not comp]
    trace, reach = complete_contraction(g27h), idle_reachability(g27h)
    with pytest.raises(ConsistencyError, match="port-alternation"):
        _PortTable(g27h, Decomposition(others + split, decomp.m + 1), trace, reach)


def test_unique_exceptional_route_per_edge(g27h, g27t):
    cover = {}
    for i in g27t.exceptional_indices:
        for e in g27t.routes[i]:
            cover[e] = cover.get(e, 0) + 1
    assert all(cover.get(e, 0) == 1 for e in g27h.tail)


def test_exceptional_count_equals_source_degree(core8, core8t):
    src = sum(len(core8.out_edges[s]) for s in core8.sources)
    snk = sum(len(core8.in_edges[t]) for t in core8.sinks)
    assert len(core8t.exceptional_indices) == src == snk == 5


def test_adjacency_graph_bipartite_for_exceptionals(core8, core8t):
    routes = [core8t.routes[i] for i in core8t.exceptional_indices]
    assert adjacency_graph(core8, routes).is_bipartite()[0]


def test_idle_reachability_g310():
    g = gkn(3, 10)
    r = idle_reachability(g)
    assert sorted(r.v1) == [2, 3]
    assert sorted(r.v2) == [8, 9]


def test_lift_framing_identity_on_full(core8, core8f):
    lifted = lift_framing(port_table(core8), core8f)
    assert lifted.key() == core8f.key()


def test_lift_framing_car8(car8, car8h):
    f_full = next(iter(enumerate_ample_framings(port_table(car8h)))).framing
    lifted = lift_framing(port_table(car8), f_full)
    table = CoherenceTable(car8, lifted)
    assert is_ample(table)
    trace = complete_contraction(car8)
    exc_g = {trace.project_route(table.routes[i]) for i in table.exceptional_indices}
    exc_h = {tuple(r) for r in exceptional_routes(CoherenceTable(car8h, f_full))}
    assert exc_g == exc_h


def test_lift_bad_choices(car8, car8h):
    f_full = next(iter(enumerate_ample_framings(port_table(car8h)))).framing
    with pytest.raises(BadChoicesError):
        lift_framing(port_table(car8), f_full, {2: {"out": (999, 998)}})


def test_lift_count_matches_formula(car8, car8h):
    per_full = 1
    reach = idle_reachability(car8)
    import math

    for v in reach.v1:
        per_full *= math.factorial(len(car8.out_edges[v]))
    for v in reach.v2:
        per_full *= math.factorial(len(car8.in_edges[v]))
    assert per_full == 4
    table = port_table(car8)
    lifts = [t.framing for t in enumerate_ample_framings(table)]
    assert len(lifts) == count_ample_framings(table) == 128
    assert len({f.key() for f in lifts}) == 128


def test_valid_enumeration_contracts_once(car8, monkeypatch):
    # one contraction and one reachability pass for all 128 framings, each
    # lifted from the alternating labels; order as captured in the golden file
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    for name in ("complete_contraction", "idle_reachability", "edge_labeling"):
        monkeypatch.setattr(flowpoly.framing, name, counted(name, getattr(flowpoly.framing, name)))
    got = [framing_to_json(t.framing) for t in enumerate_ample_framings(port_table(car8))]
    assert calls == {"complete_contraction": 1, "idle_reachability": 1}
    golden = Path(__file__).parent / "golden" / "car-8_valid_framings.jsonl"
    assert got == golden.read_text().splitlines()


def test_lifts_through_one_table_contract_once(car8, car8h, monkeypatch):
    # the table keeps the routes of g and of its contraction for every lift
    canonical = [t.framing for t in enumerate_ample_framings(port_table(car8h)) if t.canonical]
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    for name in ("complete_contraction", "enumerate_routes"):
        monkeypatch.setattr(flowpoly.framing, name, counted(name, getattr(flowpoly.framing, name)))
    table = port_table(car8)
    lifts = [lift_framing(table, f) for f in canonical]
    assert len({f.key() for f in lifts}) == len(canonical) == 16
    assert calls == {"complete_contraction": 1, "enumerate_routes": 2}


def _behind_idle_chain(g27h):
    """G(2,7) with 1,500 idle edges between a full vertex and the head of
    one of its out-edges."""
    v = g27h.inner[0]
    moved = g27h.out_edges[v][1]
    edges = [x for x in g27h.edges if x[0] != moved]
    chain = list(range(max(g27h.vertices) + 1, max(g27h.vertices) + 1501))
    ids = iter(range(max(g27h.edge_ids) + 1, max(g27h.edge_ids) + 1501))
    edges += [(next(ids), a, b) for a, b in zip([v] + chain, chain)]
    edges.append((moved, chain[-1], g27h.head[moved]))
    return Dag.build(g27h.vertices + tuple(chain), edges)


def test_lift_through_long_idle_chain(g27h):
    # the forced out-port's pullback walks the whole chain
    g = _behind_idle_chain(g27h)
    table = port_table(g)
    lifts = [t.framing for t in enumerate_ample_framings(table)]
    assert len(lifts) == count_ample_framings(table) == 8
    f_full = next(enumerate_ample_framings(port_table(table.trace.result))).framing
    assert lift_framing(table, f_full) == lifts[0]


def test_lift_reads_one_bit_per_component(car8, g27h):
    # lifting a contraction framing must land on its own index among the
    # valid enumeration's framings; a labeling read edge by edge (adding a
    # component's bit once per edge) lifts most of them to another index
    lifted = 0
    for g in [car8, _behind_idle_chain(g27h)] + _seeded_valid_dags():
        table = port_table(g)
        tagged = list(enumerate_ample_framings(port_table(table.trace.result)))
        lifts = [t.framing for t in enumerate_ample_framings(table)]
        per_index = len(lifts) // len(tagged)
        for t in tagged:
            f = lift_framing(table, t.framing)
            assert f == lifts[t.index * per_index]
            assert is_ample(CoherenceTable(g, f))
        lifted += len(tagged)
    assert lifted >= 500  # 824 when written


def test_table_ranks_are_linear_in_route_length(g27h):
    # routes of 1,503 edges: ranking by whole sliced keys took about 0.13 s
    # per table, ranking each vertex from its neighbour's ranks about 0.01 s
    g = _behind_idle_chain(g27h)
    f = next(enumerate_ample_framings(port_table(g))).framing
    routes = enumerate_routes(g)
    assert max(map(len, routes)) > 1500
    assert min(timeit.repeat(lambda: CoherenceTable(g, f, routes), number=1, repeat=3)) < 0.04


def test_table_ranks_match_sliced_keys(car8, car8h, g29h):
    instances = [
        (car8, next(enumerate_ample_framings(port_table(car8))).framing),
        (car8h, framing_by_edge_id(car8h)),
        (g29h, framing_by_edge_id(g29h)),
    ]
    rng = random.Random(41)
    for _ in range(30):
        g = random_full_dag(rng, rng.randrange(2, 7), rng.randrange(1, 3), rng.randrange(1, 3))
        instances += [(g, tagged.framing) for tagged in enumerate_ample_framings(port_table(g))][:3]
    for g, f in instances:
        t = CoherenceTable(g, f)
        assert (t.in_rank, t.out_rank) == build_ranks_reference(t)


def test_valid_enumeration_all_ample():
    g = gkn(2, 7)
    table = port_table(g)
    framings = [t.framing for t in enumerate_ample_framings(table)]
    assert len(framings) == count_ample_framings(table) == 32
    for f in framings:
        assert is_ample(CoherenceTable(g, f))


def test_gkn_degenerate_case_empirical():
    # the count formula's closed-form ranges start at n = k + 1; computed
    # directly, these graphs (a path plus one chord) admit a single framing
    for k in (2, 3, 4):
        g = gkn(k, k + 1)
        count = count_ample_framings(port_table(g))
        brute = sum(1 for f in all_framings(g) if is_ample(CoherenceTable(g, f)))
        assert count == brute
        assert count == 1


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def test_table_agrees_with_path_comparison_under_every_framing():
    # the table's rank keys against the spec-level comparator, and the
    # early-exit coherence test against the conflict list
    rng = random.Random(29)
    for _ in range(20):
        g = random_full_dag(rng, rng.randrange(1, 4), rng.randrange(1, 3), rng.randrange(1, 3))
        for f in all_framings(g):
            t = CoherenceTable(g, f)
            for i, ri in enumerate(t.routes):
                for j in range(i, len(t.routes)):
                    rj = t.routes[j]
                    for v in t.route_cuts[i].keys() & t.route_cuts[j].keys():
                        ci, cj = t.route_cuts[i][v], t.route_cuts[j][v]
                        d_in = t.in_rank[i][v] - t.in_rank[j][v]
                        d_out = t.out_rank[i][v] - t.out_rank[j][v]
                        assert _sign(d_in) == compare_paths_at(g, f, v, ri[:ci], rj[:cj], "in")
                        assert _sign(d_out) == compare_paths_at(g, f, v, ri[ci:], rj[cj:], "out")
                    assert t.coherent(i, j) == (not t.conflict_vertices(i, j))


def test_adjacency_rows_match_pairwise_coherence():
    # the per-vertex rank bitmasks against one `coherent` test per route pair
    rng = random.Random(41)
    tables = 0
    for _ in range(30):
        g = complete_contraction(random_valid_dag(rng, rng.randrange(1, 5), expansions=rng.randrange(0, 3))).result
        for tagged in enumerate_ample_framings(port_table(g)):
            if not tagged.canonical:
                continue
            t = CoherenceTable(g, tagged.framing)
            n = len(t.routes)
            pairwise = [sum(1 << j for j in range(n) if j != i and t.coherent(i, j)) for i in range(n)]
            assert t.adjacency == pairwise
            tables += 1
    assert tables >= 300  # 414 when written
