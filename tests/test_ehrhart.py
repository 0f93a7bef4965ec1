import gc
import math
import random
import re

import pytest

from flowpoly.dag import Dag, complete_contraction, flow_dims
from flowpoly.errors import (
    FrontierExplosionError,
    NegativeCoefficientError,
    NonIntegralSolutionError,
)
from flowpoly.ehrhart import (
    count_integer_flows,
    ehrhart_oracle,
    finite_differences_vanish,
    flow_count_table,
    hstar_from_counts,
    special_simplex_check,
)
from flowpoly.framing import CoherenceTable, enumerate_ample_framings, named_framing, port_table
from flowpoly.generators import caracol, generate, random_full_dag, random_valid_dag
from flowpoly.triangulation import maximal_cliques

from conftest import count_flows_oracle, flow_count_table_reference


def test_zero_dilation(g27h, single_edge):
    assert count_integer_flows(g27h, 0) == 1
    assert count_integer_flows(single_edge, 0) == 1


def test_single_edge_every_strength(single_edge):
    for t in range(6):
        assert count_integer_flows(single_edge, t) == 1


def test_g27_vertex_count(g27h, g27t):
    assert count_integer_flows(g27h, 1) == len(g27t.routes) == 13


def test_counts_match_enumeration_oracle(g27h, core8):
    for t in (1, 2):
        assert count_integer_flows(g27h, t) == count_flows_oracle(g27h, t)
    assert count_integer_flows(core8, 1) == count_flows_oracle(core8, 1)
    g = _two_source_multigraph()
    for t in (1, 2, 3):
        assert count_integer_flows(g, t) == count_flows_oracle(g, t)


def test_hstar_g27(g27h):
    counts = flow_count_table(g27h, 7)
    assert hstar_from_counts(counts, 5) == [1, 7, 7, 1, 0, 0]
    assert finite_differences_vanish(counts, 5)


def test_ehrhart_oracle_g27(g27h):
    result = ehrhart_oracle(g27h)
    assert result.dimension == 5
    assert result.counts == flow_count_table(g27h, 7)
    assert result.hstar == [1, 7, 7, 1, 0, 0]
    assert result.flags == {"symmetric": True, "unimodal": True, "gorenstein": True}


def test_hstar_single_edge(single_edge):
    counts = flow_count_table(single_edge, 2)
    assert hstar_from_counts(counts, 0) == [1]
    assert finite_differences_vanish(counts, 0)


def test_hstar_needs_consistent_counts(g27h):
    counts = dict(flow_count_table(g27h, 7))
    counts[7] += 1
    with pytest.raises(NonIntegralSolutionError):
        hstar_from_counts(counts, 5)
    bad = {0: 1, 1: 2, 2: 3}
    with pytest.raises(NegativeCoefficientError):
        hstar_from_counts(bad, 2)  # forces h*_2 = 3 - 3*2 - ... < 0
    assert not finite_differences_vanish(counts, 5)


def test_hstar_volume_is_clique_count(core8, core8t):
    d = flow_dims(core8)[1]
    counts = flow_count_table(core8, d)
    h = hstar_from_counts(counts, d)
    assert sum(h) == len(maximal_cliques(core8t))


def test_special_simplex_g27(g27h, g27f, g27t):
    exc = [g27t.routes[i] for i in g27t.exceptional_indices]
    rep = special_simplex_check(g27h, exc, g27t.routes)
    assert rep.ok
    assert not rep.facet_anomalies


def test_special_simplex_core8(core8, core8f, core8t):
    exc = [core8t.routes[i] for i in core8t.exceptional_indices]
    rep = special_simplex_check(core8, exc, core8t.routes)
    assert rep.ok


def test_special_simplex_fails_on_nonexceptional_set(g27h, g27t):
    routes = g27t.routes
    not_special = [routes[i] for i in list(g27t.exceptional_indices)[:-1]]
    rep = special_simplex_check(g27h, not_special, routes)
    assert not rep.ok and rep.uncovered


def test_distinct_special_simplices_across_framings(g27h):
    from flowpoly.framing import path_cycle_decomposition

    m = path_cycle_decomposition(g27h).m
    seen = set()
    for tagged in enumerate_ample_framings(port_table(g27h)):
        if not tagged.canonical:
            continue
        t = CoherenceTable(g27h, tagged.framing)
        exc = frozenset(t.routes[i] for i in t.exceptional_indices)
        rep = special_simplex_check(g27h, sorted(exc), t.routes)
        assert rep.ok
        seen.add(exc)
    assert len(seen) >= 2 ** (m - 1)


def test_oracle_matches_dcov_random():
    from flowpoly.analysis import Instance

    rng = random.Random(17)
    for _ in range(8):
        g = random_full_dag(rng, rng.randrange(1, 4))
        tagged = next(iter(enumerate_ample_framings(port_table(g))))
        p = Instance(g, tagged.framing).poset
        d = flow_dims(g)[1]
        counts = flow_count_table(g, d + 2)
        h = hstar_from_counts(counts, d)
        dcov = p.dcov_polynomial()
        n = max(len(h), len(dcov))
        assert h + [0] * (n - len(h)) == dcov + [0] * (n - len(dcov))
        assert finite_differences_vanish(counts, d)


def test_frontier_cap(g27h):
    with pytest.raises(FrontierExplosionError):
        count_integer_flows(g27h, 6, max_states=3)


def test_frontier_cap_message_names_stage_vertex_and_strengths(g27h):
    # the sweep splits from the sink end: inner vertex 5, fourth of five in
    # topological order, makes 3 states; inner vertex 4 then makes 6
    n = len(g27h.vertices)
    with pytest.raises(FrontierExplosionError) as info:
        flow_count_table(g27h, 6, max_states=2)
    assert re.fullmatch(
        rf"flow DP: 3 states at vertex 4 of {n}, over the limit of 2 \(strengths 0\.\.6\)",
        str(info.value),
    )
    with pytest.raises(FrontierExplosionError) as info:
        flow_count_table(g27h, 7, max_states=5)
    assert re.fullmatch(
        rf"flow DP: 6 states at vertex 3 of {n}, over the limit of 5 \(strengths 0\.\.7\)",
        str(info.value),
    )
    # the cap holds per layer: six states in every layer fit
    assert flow_count_table(g27h, 7, max_states=6) == flow_count_table(g27h, 7)


def _two_source_multigraph() -> Dag:
    """Parallel edges toward an inner vertex and the sink, and two sources."""
    return Dag.build(
        [0, 1, 2, 3],
        [(0, 0, 2), (1, 0, 2), (2, 1, 2), (3, 2, 3), (4, 2, 3), (5, 1, 3)],
    )


def test_table_matches_enumeration_on_two_source_multigraph():
    g = _two_source_multigraph()
    assert flow_count_table(g, 3) == {t: count_flows_oracle(g, t) for t in range(4)}


def test_table_matches_enumeration_when_union_of_strengths_exceeds_top():
    # the source has no sink edge, so after its split every strength s < 3
    # leaves pending vectors of sum s that strength 3 never reaches
    g = Dag.build(
        [0, 1, 2, 3],
        [(0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 1, 2), (4, 1, 3), (5, 2, 3), (6, 2, 3)],
    )
    assert flow_count_table(g, 3) == {t: count_flows_oracle(g, t) for t in range(4)}


def test_table_matches_enumeration_on_random_full_dags():
    rng = random.Random(5)
    for _ in range(6):
        g = random_full_dag(rng, rng.randrange(1, 3))
        if len(g.tail) > 9:
            continue
        assert flow_count_table(g, 2) == {t: count_flows_oracle(g, t) for t in range(3)}


def test_table_golden_car8(car8h):
    # taken from the per-strength DP this one-pass table replaced
    assert list(flow_count_table(car8h, 12).values()) == [
        1, 21, 196, 1176, 5292, 19404, 60984, 169884, 429429, 1002001, 2186184, 4504864, 8836464,
    ]


def test_count_integer_flows_is_the_table_entry(g27h):
    g = _two_source_multigraph()
    for t in range(5):
        assert count_integer_flows(g, t) == flow_count_table(g, t)[t]
        assert count_integer_flows(g27h, t) == flow_count_table(g27h, t)[t]
    with pytest.raises(ValueError):
        count_integer_flows(g, -1)


def test_table_without_sources():
    for g in (Dag.build([], []), Dag.build([0, 1], [])):
        assert flow_count_table(g, 3) == {0: 1, 1: 0, 2: 0, 3: 0}


def test_single_edge_tables(single_edge):
    table = flow_count_table(single_edge, 5)
    assert list(table) == list(range(6))
    assert table == dict.fromkeys(range(6), 1)
    parallel = Dag.build([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
    assert flow_count_table(parallel, 4) == {t: math.comb(t + 2, 2) for t in range(5)}
    assert flow_count_table(single_edge, 0) == {0: 1}


def test_analyze_leaves_no_cyclic_garbage(car8h):
    """The DP layers and the clique list are freed when their functions
    return, not kept alive by reference cycles until a full collection."""
    from flowpoly.analysis import analyze
    from flowpoly.framing import named_framing

    f = named_framing(car8h, "length")
    gc.collect()
    gc.disable()
    try:
        assert analyze(car8h, f).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the Lidskii sweep against the frontier DP it replaced --------------------


def _assert_matches_reference(g: Dag) -> None:
    d = flow_dims(g)[1]
    assert flow_count_table(g, d + 2) == flow_count_table_reference(g, d + 2)


@pytest.mark.parametrize(
    "spec",
    ["car 6", "car 8", "car 10", "car 11", "carcore 8", "gkn 2 7", "gkn 2 11", "gkn 2 15"],
)
def test_table_matches_reference_on_named_graphs(spec):
    name, *args = spec.split()
    g = generate(name, [int(a) for a in args])
    _assert_matches_reference(complete_contraction(g).result)
    if spec not in ("car 10", "car 11"):  # raw, the reference takes 7 s or 2M+ states
        _assert_matches_reference(g)


def test_table_matches_reference_on_random_valid_dags():
    rng = random.Random(10)
    for _ in range(200):
        g = random_valid_dag(rng, rng.randrange(1, 5), expansions=rng.randrange(0, 3))
        _assert_matches_reference(g)
        _assert_matches_reference(complete_contraction(g).result)


def _random_multigraph(rng: random.Random) -> Dag:
    """3..7 vertices and 2..9 edges drawn uniformly among forward pairs:
    parallel edges, isolated vertices, several sources and sinks, and inner
    vertices of any degree."""
    n = rng.randrange(3, 8)
    edges = [(e, *sorted(rng.sample(range(n), 2))) for e in range(rng.randrange(2, 10))]
    return Dag.build(range(n), edges)


def test_table_matches_reference_on_random_multigraphs():
    rng = random.Random(11)
    several = parallel = 0
    for _ in range(200):
        g = _random_multigraph(rng)
        several += len(g.sources) > 1 or len(g.sinks) > 1
        parallel += len({(t, h) for _, t, h in g.edges}) < len(g.edges)
        _assert_matches_reference(g)
    assert several >= 100 and parallel >= 100


def test_table_matches_reference_on_two_source_two_sink_full_dags():
    rng = random.Random(12)
    for _ in range(40):
        _assert_matches_reference(random_full_dag(rng, rng.randrange(1, 6), n_sources=2, n_sinks=2))


@pytest.mark.parametrize("n", [12, 13])
def test_caracol_hstar_is_the_narayana_row(n):
    k = n - 3
    narayana = [math.comb(k, i) * math.comb(k, i + 1) // k for i in range(k)]
    result = ehrhart_oracle(complete_contraction(caracol(n)).result)
    assert result.hstar == narayana + [0] * (result.dimension + 1 - k)


def test_analyze_car12_with_the_oracle():
    from flowpoly.analysis import analyze

    g = complete_contraction(caracol(12)).result
    report = analyze(g, named_framing(g, "length"))
    assert report.ok, [v.invariant for v in report.failed()]
    assert sum(report.data["hstar"]) == report.data["cliques"] == 4862
