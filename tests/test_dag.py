import random
import time

import pytest

from flowpoly.dag import (
    Dag,
    complete_contraction,
    dag_from_edge_list,
    dag_from_json,
    dag_to_json,
    enumerate_routes,
    flow_dims,
    idle_edges,
    is_full,
    is_valid,
)
from flowpoly.errors import GraphError, RouteExplosionError
from flowpoly.generators import (
    caracol,
    caracol_core,
    gkn,
    random_full_dag,
    random_idle_expansion,
    random_valid_dag,
)

from conftest import complete_contraction_reference, count_paths_oracle


def test_classify_single_edge(single_edge):
    g = single_edge
    assert (g.sources, g.sinks, g.inner) == ((0,), (1,), ())


def test_classify_car8(car8):
    assert car8.sources == (1,)
    assert car8.sinks == (8,)
    assert set(car8.inner) == set(range(2, 8))


def test_classify_g27_contraction(g27h):
    assert len(g27h.inner) == 3 and len(g27h.sources) == 1 and len(g27h.sinks) == 1


def test_isolated_vertices_are_ignored(g27h):
    # a vertex without edges is neither a source, a sink nor inner, and no
    # stage reads it: the analysis is the one of the graph without it
    from flowpoly.analysis import analyze
    from flowpoly.framing import named_framing

    g = Dag.build([*g27h.vertices, 99], g27h.edges)
    assert 99 not in g.sources + g.sinks + g.inner
    assert enumerate_routes(g) == enumerate_routes(g27h) and is_full(g)
    with_vertex, without = (analyze(h, named_framing(h, "paper-g27")) for h in (g, g27h))
    assert with_vertex.ok and with_vertex.verdicts == without.verdicts
    assert {k: v for k, v in with_vertex.data.items() if k != "poset"} == {
        k: v for k, v in without.data.items() if k != "poset"
    }


def test_cycle_rejected():
    with pytest.raises(GraphError, match="graph contains a directed cycle"):
        Dag.build([0, 1], [(0, 0, 1), (1, 1, 0)])
    with pytest.raises(GraphError, match="edge 0 is a self-loop"):
        Dag.build([0], [(0, 0, 0)])


def test_duplicate_edge_id_rejected():
    with pytest.raises(GraphError, match="^duplicate edge id 0$"):
        Dag.build([0, 1], [(0, 0, 1), (0, 0, 1)])


def test_repeated_vertex_id_rejected():
    with pytest.raises(GraphError, match="^duplicate vertex ids$"):
        Dag.build([1, 1, 2], [(0, 1, 2)])
    with pytest.raises(GraphError, match="^duplicate vertex ids$"):
        dag_from_json('{"vertices": [1, 1, 2], "edges": [{"id": 0, "tail": 1, "head": 2}]}')


def test_unknown_endpoint_rejected():
    with pytest.raises(GraphError, match="^edge 0 has unknown endpoint$"):
        Dag.build([0, 1], [(0, 0, 2)])


def test_malformed_graph_json_rejected():
    with pytest.raises(GraphError):
        dag_from_json('{"vertices": [0, 1], "edges": [{"id": 0, "tail": 0}]}')
    with pytest.raises(GraphError):
        dag_from_json('{"vertices": [0, 1], "edges": [')
    with pytest.raises(GraphError):
        dag_from_edge_list("0 x\n")


def test_flow_dims(single_edge, car8, g27h):
    assert flow_dims(single_edge) == (1, 0)
    assert len(car8.edges) == 17 and len(car8.inner) == 6
    assert flow_dims(car8) == (11, 10)
    assert len(g27h.edges) == 9 and len(g27h.inner) == 3
    assert flow_dims(g27h) == (6, 5)


def test_enumerate_routes_single(single_edge):
    assert enumerate_routes(single_edge) == [(0,)]


def test_enumerate_routes_g27(g27h):
    routes = enumerate_routes(g27h)
    assert len(routes) == 13
    assert routes == sorted(routes)
    assert len(set(routes)) == 13
    assert count_paths_oracle(g27h) == 13


def test_route_cap(car8):
    with pytest.raises(RouteExplosionError):
        enumerate_routes(car8, max_routes=5)
    n = len(enumerate_routes(car8))
    assert len(enumerate_routes(car8, max_routes=n)) == n
    with pytest.raises(RouteExplosionError, match=f"^more than {n - 1} routes$"):
        enumerate_routes(car8, max_routes=n - 1)


def test_routes_are_linear_on_a_path():
    def best_of_3(n):
        g = Dag.build(range(n + 1), [(i, i, i + 1) for i in range(n)])
        times = []
        for _ in range(3):
            start = time.perf_counter()
            routes = enumerate_routes(g)
            times.append(time.perf_counter() - start)
        assert routes == [tuple(range(n))]
        return min(times)

    # linear time reads about 4x; copying the path prefix at every step reads about 16x
    assert best_of_3(16000) < 8 * best_of_3(4000)


def test_idle_edges(g27h, core8):
    assert idle_edges(g27h) == frozenset()
    assert idle_edges(core8) == frozenset()
    g310 = gkn(3, 10)
    idle = idle_edges(g310)
    assert sorted((g310.tail[e], g310.head[e]) for e in idle) == [
        (1, 2),
        (2, 3),
        (8, 9),
        (9, 10),
    ]
    path = Dag.build([0, 1, 2], [(0, 0, 1), (1, 1, 2)])
    assert idle_edges(path) == {0, 1}


def test_complete_contraction_car8(car8, car8h):
    assert len(car8h.vertices) == 6
    assert len(car8h.edges) == 15
    pairs = {}
    for e in car8h.tail:
        key = (car8h.tail[e], car8h.head[e])
        pairs[key] = pairs.get(key, 0) + 1
    doubled = sorted(k for k, v in pairs.items() if v == 2)
    # the fan pairs at the merged source and sink, plus the through pair
    assert (1, 3) in doubled and (6, 7) in doubled
    assert doubled == [(1, 3), (1, 7), (6, 7)]
    assert is_full(car8h)


def test_complete_contraction_g310():
    g = gkn(3, 10)
    h = complete_contraction(g).result
    assert len(h.edges) == 12
    assert len(h.inner) == 4
    assert is_full(h)


def test_contraction_identity_on_full(core8):
    trace = complete_contraction(core8)
    assert trace.steps == ()
    assert trace.result == core8


def test_contraction_route_bijection(car8, car8h):
    trace = complete_contraction(car8)
    routes = enumerate_routes(car8)
    projected = sorted(trace.project_route(r) for r in routes)
    assert projected == enumerate_routes(car8h)
    assert len(set(projected)) == len(routes) == 21


def test_is_full(core8, car8, single_edge):
    assert is_full(core8)
    assert not is_full(car8)
    assert is_full(single_edge)


def test_is_valid(car8):
    assert is_valid(car8)
    assert is_valid(gkn(3, 10))
    # inner vertex of degree 3/3 with no idle edge
    g = Dag.build(
        [0, 1, 2],
        [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 1, 2), (4, 1, 2), (5, 1, 2)],
    )
    assert idle_edges(g) == frozenset()
    assert not is_valid(g)


def test_idle_forest_property():
    rng = random.Random(11)
    for _ in range(100):
        g = random_valid_dag(rng, rng.randrange(2, 5), expansions=rng.randrange(0, 4))
        idle = idle_edges(g)
        # undirected acyclicity via union-find
        parent = {v: v for v in g.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in idle:
            a, b = find(g.tail[e]), find(g.head[e])
            assert a != b, "idle edges must form a forest"
            parent[a] = b


def test_contraction_confluence():
    rng = random.Random(13)

    def contract_random(g):
        cur = g
        while True:
            idle = sorted(idle_edges(cur))
            if not idle:
                return cur
            e = rng.choice(idle)
            keep = min(cur.tail[e], cur.head[e])
            drop = max(cur.tail[e], cur.head[e])
            cur = Dag.build(
                [x for x in cur.vertices if x != drop],
                [
                    (i, keep if t == drop else t, keep if h == drop else h)
                    for i, t, h in cur.edges
                    if i != e
                ],
            )

    def shape(g):
        return (
            len(g.vertices),
            sorted((len(g.in_edges[v]), len(g.out_edges[v])) for v in g.vertices),
        )

    for _ in range(100):
        g = random_valid_dag(rng, rng.randrange(2, 5), expansions=rng.randrange(0, 4))
        base = complete_contraction(g).result
        alt = contract_random(g)
        assert shape(alt) == shape(base)
        assert is_full(alt) == is_full(base)


def _contraction_corpus():
    rng = random.Random(17)
    for _ in range(200):
        yield random_valid_dag(
            rng,
            rng.randrange(1, 6),
            expansions=rng.randrange(0, 6),
            n_sources=rng.randrange(1, 3),
            n_sinks=rng.randrange(1, 3),
        )
    # unchecked expansions: idle edges that close cycles, graphs not valid
    for _ in range(60):
        g = random_full_dag(rng, rng.randrange(1, 4), rng.randrange(1, 3), rng.randrange(1, 3))
        for _ in range(rng.randrange(1, 8)):
            g = random_idle_expansion(rng, g)
        yield g
    yield from (caracol(8), caracol(10), caracol_core(8), gkn(2, 7), gkn(2, 11))
    # idle chains, with vertex ids rising and falling along the path
    yield Dag.build(range(501), [(i, i, i + 1) for i in range(500)])
    yield Dag.build(range(101), [(i, 100 - i, 99 - i) for i in range(100)])
    yield _fan_chain(100)


def _fan_chain(n: int) -> Dag:
    """Idle chain source -> n-1 -> ... -> 0 -> sink, with a fan edge from each
    chain vertex to the sink.  The source and sink ids n and n + 1 exceed the
    chain's, so each step keeps the new chain vertex and drops the merged one,
    whose fan edges keep growing."""
    source, sink = n, n + 1
    path = [source, *range(n - 1, -1, -1), sink]
    edges = [(i, t, h) for i, (t, h) in enumerate(zip(path, path[1:]))]
    return Dag.build(range(n + 2), edges + [(n + 1 + v, v, sink) for v in range(n)])


def test_contraction_matches_stepwise_reference(monkeypatch):
    builds = []
    build = Dag.build
    monkeypatch.setattr(Dag, "build", staticmethod(lambda vs, es: builds.append(1) or build(vs, es)))
    for g in _contraction_corpus():
        want = complete_contraction_reference(g)
        del builds[:]
        got = complete_contraction(g)
        assert len(builds) == (1 if want.steps else 0)
        assert got.steps == want.steps
        assert got.result.vertices == want.result.vertices
        assert got.result.edges == want.result.edges
        assert list(got.vertex_map.items()) == list(want.vertex_map.items())


def test_contraction_is_linear_on_a_falling_id_fan_chain():
    def best_of_3(g):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            trace = complete_contraction(g)
            times.append(time.perf_counter() - start)
        assert len(trace.result.vertices) == 2 and len(trace.steps) == len(g.vertices) - 2
        return min(times)

    small, large = _fan_chain(1500), _fan_chain(6000)
    # linear time reads about 4x; relabelling the dropped vertex's edges at
    # each step reads about 14x
    assert best_of_3(large) < 8 * best_of_3(small)


def test_json_round_trip(g27h):
    assert dag_from_json(dag_to_json(g27h)) == g27h


def test_edge_list_format():
    g = dag_from_edge_list("0 1 5\n1 2\n# comment\n0 2\n")
    assert set(g.tail) == {0, 1, 5}
    assert g.tail[5] == 0 and g.head[5] == 1
