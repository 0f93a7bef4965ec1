"""Fast checks of the benchmark's own arithmetic and plumbing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import hostspeed
import pipeline
import reference
import stats
import tracing

SRC = Path(__file__).resolve().parent.parent / "src"


# -- percentile rule -----------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(10, None), (11, 9), (20, 50), (100, 90), (152, 93), (1000, 99)])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert stats.samples_beyond(n, p) >= 10
        assert p == 99 or stats.samples_beyond(n, p + 1) < 10


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0


# -- self time -----------------------------------------------------------------


def _span(name, start, end, parent):
    return (name, start, end, parent, 0, None)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("analysis.analyze", 0.0, 10.0, -1),
        _span("triangulation.dual_graph", 1.0, 4.0, 0),
        _span("dag.flow_dims", 2.0, 3.0, 1),
        _span("poset.build_poset", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_layer_metrics_are_per_analyze_call_and_absent_reads_none():
    spans = [
        ("analysis.analyze", 0.0, 10.0, -1, 0, None),
        ("triangulation.dual_graph", 1.0, 4.0, 0, 0, 12),
        ("triangulation.dual_graph", 5.0, 6.0, 0, 0, 12),
    ]
    out = tracing.layer_metrics(spans, 2, absent=["triangulation.maximal_cliques_by_flips"])
    assert out["triangulation.dual_s"] == pytest.approx(2.0)
    assert out["triangulation.dual_calls"] == 1.0
    assert out["triangulation.dual_edges"] == 12.0
    assert out["analysis.self_s"] == pytest.approx(3.0)
    assert out["triangulation.self_s"] == pytest.approx(2.0)
    assert out["triangulation.flips_s"] is None
    assert out["ehrhart.counts_s"] == 0.0
    out = tracing.layer_metrics(spans, 2, absent=["ehrhart"])
    assert out["ehrhart.counts_s"] is None and out["ehrhart.self_s"] is None


def test_wrappers_nest_spans_and_survive_errors():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return list(range(x))

    def gen(n):
        yield from range(n)

    w_inner = tracer.wrap("dag.enumerate_routes", inner)
    w_outer = tracer.wrap("analysis.analyze", lambda: w_inner(3))
    w_gen = tracer.wrap("framing.enumerate_ample_framings", gen)
    assert w_outer() == [0, 1, 2]
    with pytest.raises(ValueError):
        w_inner(-1)
    assert list(w_gen(2)) == [0, 1]
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["analysis.analyze", "dag.enumerate_routes", "dag.enumerate_routes"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][5] == 3  # parent, size
    assert tracer.spans[2][3] == -1 and tracer.spans[2][5] is None
    assert names[3:] == ["framing.enumerate_ample_framings"] * 3  # two items, then exhaustion


# -- reference formulas --------------------------------------------------------


def test_narayana_row_for_car10():
    row = reference.caracol_hstar(10)
    assert row == [1, 21, 105, 175, 105, 21, 1]
    assert sum(row) == 429  # Catalan number C_7


def test_zigzag_numbers_and_gkn_volume():
    assert [reference.zigzag(n) for n in range(10)] == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936]
    assert reference.gkn2_volume(11) == 7936


def test_canonical_framing_count():
    assert reference.canonical_framings_expected(1) == 1
    assert reference.canonical_framings_expected(128) == 64
    assert reference.trim_zeros([1, 2, 1, 0, 0]) == [1, 2, 1]


# -- calls into the program ----------------------------------------------------


@pytest.fixture(scope="module")
def pkg():
    return pipeline.import_program(SRC)


def test_failed_calls_are_recorded_with_their_error(pkg, tmp_path, monkeypatch):
    raw = tmp_path / "car8.json"
    raw.write_text(pkg.dag.dag_to_json(pkg.generators.generate("car", [8])))
    not_full = pipeline.invoke(pkg, "analyze", ["analyze", "--json", "-i", str(raw)])
    assert not_full.code == 2 and not_full.failed
    assert not_full.error == "ConsistencyError(graph-full)"
    limit = pipeline.invoke(pkg, "analyze", ["analyze", "--json", "-i", str(raw), "--max-routes", "1"])
    assert limit.code == 1 and limit.error == "RouteExplosionError"
    missing = pipeline.invoke(pkg, "analyze", ["analyze", "-i", str(raw), "--framing", str(tmp_path / "nope")])
    assert missing.code == 1 and missing.error == "UsageError"

    def broken():
        raise KeyError("head")

    monkeypatch.setattr(pkg.cli, "main", broken)
    escaped = pipeline.invoke(pkg, "analyze", ["analyze", "-i", str(raw)])
    assert escaped.code is None and escaped.failed
    assert escaped.error == "uncaught KeyError: 'head'"


def test_instance_checks_every_answer_and_traces_the_same_path(pkg, tmp_path):
    volume = reference.gkn2_volume(7)
    graph = pipeline.FixedGraphs(pkg, "gkn", [2, 7], "paper-g27", lambda p: pipeline.volume_problems(p, volume))
    plain = pipeline.run_instance(pkg, graph.graph(0), tmp_path, seed=3)
    assert [c.kind for c in plain] == ["contract", "count", "enumerate", "analyze"]
    assert not any(c.failed for c in plain)

    originals = (pkg.cli.main, pkg.analysis.maximal_cliques, pkg.framing.CoherenceTable.__dict__["adjacency"].func)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = pipeline.run_instance(pkg, graph.graph(0), tmp_path, seed=3)
    finally:
        tracer.uninstall()
    assert [c.payload for c in traced] == [c.payload for c in plain]
    assert tracer.absent == []
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "analysis.analyze", "ehrhart.flow_count_table", "poset.TauPoset.kappa"} <= names
    restored = (pkg.cli.main, pkg.analysis.maximal_cliques, pkg.framing.CoherenceTable.__dict__["adjacency"].func)
    assert all(a is b for a, b in zip(restored, originals))

    wrong = pipeline.FixedGraphs(pkg, "gkn", [2, 7], "paper-g27", lambda p: pipeline.volume_problems(p, volume + 1))
    calls = pipeline.run_instance(pkg, wrong.graph(0), tmp_path, seed=3)
    assert calls[-1].failed and calls[-1].code == 0
    assert any("cliques" in m for m in calls[-1].mismatch)


def test_batch_inputs_repeat_for_a_seed(pkg):
    a = pipeline.BatchGraphs(pkg, 5)
    b = pipeline.BatchGraphs(pkg, 5)
    assert pipeline.digest(a.graphs) == pipeline.digest(b.graphs)
    assert pipeline.digest(a.graphs) != pipeline.digest(pipeline.BatchGraphs(pkg, 6).graphs)
    assert a.graph(pipeline.BATCH_POOL).json == b.graph(pipeline.BATCH_POOL).json


def test_framing_sample_ignores_enumeration_order():
    framings = [{"v": k, "order": [k, -k]} for k in range(20)]
    few = framings[: pipeline.BATCH_FRAMINGS]
    assert pipeline.sample_framings(few, 7) == few
    assert pipeline.sample_framings(framings, None) == framings
    picked = pipeline.sample_framings(framings, 7)
    assert len(picked) == pipeline.BATCH_FRAMINGS and all(f in framings for f in picked)
    assert pipeline.sample_framings(framings[::-1], 7) == picked


# -- host speed ----------------------------------------------------------------


def test_speed_samples_per_program_second_and_scales_by_the_median():
    loops = iter([0.010, 0.030, 0.020, 0.020, 0.999])
    speed = hostspeed.Speed(probe=lambda: next(loops), every=1.0)
    speed.take()
    speed.after(0.6)
    assert len(speed.samples) == 1
    speed.after(0.6)  # 1.2 s since the last sample: one more
    speed.after(2.5)  # two more, none carried over
    speed.after(0.9)
    assert speed.samples == [0.010, 0.030, 0.020, 0.020]
    assert speed.factor() == pytest.approx(hostspeed.REFERENCE_S / 0.020)


def test_loop_sample_is_positive_and_table_is_built_once():
    assert hostspeed.sample(reps=1) > 0
    assert hostspeed.build_table() == 0.0
    assert len(hostspeed._keys) == hostspeed.LOOKUPS


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    spans = [("analysis.analyze", 0.0, 1.0, -1, 0, None)]
    reported = list(tracing.layer_metrics(spans, 1, absent=[])) + ["trace.overhead_s"]
    assert [m["name"] for m in doc["per_layer"]] == reported
    assert [m["name"] for m in doc["end_to_end"]] == ["verdict_s", "analyses_per_s", "peak_rss_mb", "setup_s"]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(pipeline.WORKLOADS)
