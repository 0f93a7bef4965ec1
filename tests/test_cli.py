import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import main_in_process

CLI = [sys.executable, "-m", "flowpoly.cli"]


def run(args, stdin=None):
    return subprocess.run(
        CLI + args, input=stdin, capture_output=True, text=True, timeout=300
    )


def test_gen_and_contract_pipeline():
    gen = run(["gen", "gkn", "2", "7"])
    assert gen.returncode == 0
    graph = json.loads(gen.stdout)
    assert len(graph["edges"]) == 11
    con = run(["contract", "--json"], stdin=gen.stdout)
    assert con.returncode == 0
    data = json.loads(con.stdout)
    assert len(data["result"]["edges"]) == 9
    assert data["full"] is True


def test_routes_command():
    gen = run(["gen", "gkn", "2", "7"])
    con = run(["contract"], stdin=gen.stdout)
    routes = run(["routes", "--json"], stdin=con.stdout)
    assert json.loads(routes.stdout)["count"] == 13


def test_framings_counts():
    for args, expect in [(["gkn", "3", "10"], 256), (["car", "8"], 128)]:
        gen = run(["gen"] + args)
        res = run(["framings", "--json"], stdin=gen.stdout)
        assert res.returncode == 0
        assert json.loads(res.stdout)["count"] == expect


def test_framings_json_contracts_once(tmp_path, monkeypatch, capsys):
    import flowpoly.cli
    import flowpoly.dag
    import flowpoly.framing

    from flowpoly.dag import dag_to_json
    from flowpoly.generators import caracol

    calls = []
    contract = flowpoly.dag.complete_contraction
    for module in (flowpoly.cli, flowpoly.dag, flowpoly.framing):
        monkeypatch.setattr(
            module, "complete_contraction", lambda g: calls.append(g) or contract(g)
        )
    path = tmp_path / "car8.json"
    path.write_text(dag_to_json(caracol(8)))
    code, out, err = main_in_process(monkeypatch, capsys, ["framings", "--json", "-i", str(path)])
    assert (code, err) == (0, ""), err
    assert json.loads(out)["count"] == 128
    assert len(calls) == 1


def test_framings_single_edge():
    res = run(["framings", "--json"], stdin="0 1\n")
    assert json.loads(res.stdout)["count"] == 1
    assert json.loads(res.stdout)["m"] == 0


def test_cliques_command():
    gen = run(["gen", "gkn", "2", "7"])
    con = run(["contract"], stdin=gen.stdout)
    res = run(["cliques", "--json", "--framing", "paper-g27"], stdin=con.stdout)
    data = json.loads(res.stdout)
    assert len(data["cliques"]) == 16
    assert all(data["unimodular"])
    assert len(data["dual_edges"]) == 24


def test_cliques_flags_come_from_the_exchange_certificate(tmp_path, monkeypatch, capsys):
    import flowpoly.analysis
    import flowpoly.cli
    import flowpoly.triangulation

    from flowpoly.dag import complete_contraction, dag_to_json
    from flowpoly.generators import gkn

    path = tmp_path / "g27.json"
    path.write_text(dag_to_json(complete_contraction(gkn(2, 7)).result))
    argv = ["cliques", "--json", "--framing", "paper-g27", "-i", str(path)]
    volumes = []
    volume = flowpoly.triangulation.simplex_volume
    monkeypatch.setattr(
        flowpoly.triangulation, "simplex_volume", lambda g, rs: volumes.append(rs) or volume(g, rs)
    )
    code, out, err = main_in_process(monkeypatch, capsys, argv)
    assert (code, err) == (0, ""), err
    assert len(volumes) == 1  # the certificate's one determinant
    # a failed certificate is a consistency failure, printed after the payload
    # with every flag false, and with no per-clique determinants
    monkeypatch.setattr(flowpoly.analysis, "unimodular_by_exchange", lambda g, t, dual: False)
    monkeypatch.setattr(sys, "argv", ["flowpoly", *argv])
    with pytest.raises(SystemExit) as stop:
        flowpoly.cli.main()
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["unimodular"] == [False] * 16
    assert err == "consistency failure: cliques-unimodular: instance violates the named invariants\n"
    assert len(volumes) == 1


def test_analyze_g27_end_to_end():
    gen = run(["gen", "gkn", "2", "7"])
    con = run(["contract"], stdin=gen.stdout)
    res = run(["analyze", "--json", "--framing", "paper-g27"], stdin=con.stdout)
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["routes"] == 13
    assert data["exceptional"] == 3
    assert data["cliques"] == 16
    assert data["dcov"] == [1, 7, 7, 1]
    assert data["hstar"][:4] == [1, 7, 7, 1]
    assert data["flags"] == {"symmetric": True, "unimodal": True, "gorenstein": True}
    assert data["ok"] is True


def test_analyze_single_edge_trivial():
    res = run(["analyze", "--json"], stdin="0 1\n")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["hstar"] == [1]


def test_poset_and_oracle_commands():
    gen = run(["gen", "gkn", "2", "7"])
    con = run(["contract"], stdin=gen.stdout)
    pos = run(["poset", "--json"], stdin=con.stdout)
    assert json.loads(pos.stdout)["dcov"] == [1, 7, 7, 1]
    orc = run(["oracle", "--json"], stdin=con.stdout)
    data = json.loads(orc.stdout)
    assert data["hstar"] == [1, 7, 7, 1, 0, 0]
    assert data["gorenstein"] and data["unimodal"]


def test_hstar_command():
    gen = run(["gen", "carcore", "8"])
    res = run(["hstar", "--json", "--framing", "length"], stdin=gen.stdout)
    data = json.loads(res.stdout)
    assert data["h"] == [1, 10, 20, 10, 1]
    assert data["shelling_agrees"]


def test_usage_error_exit_code():
    res = run(["gen", "nosuch", "3"])
    assert res.returncode == 1
    res = run(["framings"], stdin="0 1\n1 2\n2 0\n")
    assert res.returncode == 1


def test_poset_takes_no_seed():
    # the poset command draws no linear extensions, so it has no --seed
    con = run(["contract"], stdin=run(["gen", "gkn", "2", "7"]).stdout)
    res = run(["poset", "--seed", "3"], stdin=con.stdout)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("usage error: ") and "--seed" in res.stderr


def test_analyze_needs_full_graph(tmp_path):
    # fullness is checked first, so a route limit the graph exceeds still
    # gives the contract-first error
    path = tmp_path / "car8.json"
    path.write_text(run(["gen", "car", "8"]).stdout)
    for extra in ([], ["--max-routes", "3"]):
        res = run(["analyze", "-i", str(path), "--framing", "length", *extra])
        assert res.returncode == 1
        assert "Traceback" not in res.stderr and "flowpoly contract" in res.stderr


def test_graph_json_without_head_exit_code(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [0, 1], "edges": [{"id": 0, "tail": 0}]}')
    res = run(["routes", "-i", str(path)])
    assert res.returncode == 1
    assert "Traceback" not in res.stderr and "head" in res.stderr


def test_framing_file_not_json_exit_code(tmp_path):
    path = tmp_path / "framing.json"
    path.write_text("not json")
    res = run(["analyze", "--framing", str(path)], stdin="0 1\n")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr and "framing" in res.stderr


def test_unreadable_input_files_exit_code(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for args in (
        ["routes", "-i", str(tmp_path / "missing.json")],
        ["routes", "-i", str(binary)],
        ["analyze", "--framing", str(binary), "-i", "-"],
    ):
        res = run(args, stdin="0 1\n")
        assert res.returncode == 1
        assert "Traceback" not in res.stderr and "usage error" in res.stderr


def test_non_ample_framings_exit_1(tmp_path, monkeypatch, capsys):
    # a framing that is not ample is a usage error for every command that
    # builds the triangulation, not a broken invariant
    import random

    import flowpoly.cli
    from conftest import all_framings
    from flowpoly.dag import dag_to_json
    from flowpoly.framing import CoherenceTable, framing_to_json, is_ample
    from flowpoly.generators import random_full_dag

    rng = random.Random(5)
    for k in range(3):
        g = random_full_dag(rng, 2 + k % 2)
        f = next(f for f in all_framings(g) if not is_ample(CoherenceTable(g, f)))
        graph, framing = tmp_path / f"g{k}.json", tmp_path / f"f{k}.json"
        graph.write_text(dag_to_json(g))
        framing.write_text(framing_to_json(f))
        for command in ("cliques", "poset", "hstar", "analyze"):
            monkeypatch.setattr(sys, "argv", ["flowpoly", command, "-i", str(graph), "--framing", str(framing)])
            with pytest.raises(SystemExit) as stop:
                flowpoly.cli.main()
            err = capsys.readouterr().err
            assert stop.value.code == 1, (k, command, err)
            assert err == "error: the framing is not ample: some edge lies on no exceptional route\n"


def test_duplicate_edge_id_exit_code():
    res = run(["routes"], stdin="0 1 0\n0 1 0\n")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr and "duplicate edge id" in res.stderr


def test_edge_ids_are_never_bit_positions(g27h, monkeypatch, capsys):
    # the unimodularity certificate builds route vectors over edge
    # positions, so negative and huge ids stay legal
    ids = g27h.edge_ids
    renumber = {ids[0]: -5, ids[-1]: 10**18}
    edges = [{"id": renumber.get(e, e), "tail": t, "head": h} for e, t, h in g27h.edges]
    graph = json.dumps({"vertices": list(g27h.vertices), "edges": edges})
    code, out, err = main_in_process(monkeypatch, capsys, ["cliques", "--json"], graph)
    data = json.loads(out)
    assert code == 0 and err == ""
    assert len(data["cliques"]) == 16 and all(data["unimodular"])
    code, out, err = main_in_process(monkeypatch, capsys, ["cliques", "--json"], "1 2 -1\n2 3\n")
    assert code == 0 and json.loads(out)["routes"] == [[-1, 0]]


def renamed(g, name):
    """Graph JSON of g with each vertex v renamed name(v)."""
    edges = [{"id": e, "tail": name(t), "head": name(h)} for e, t, h in g.edges]
    return json.dumps({"vertices": [name(v) for v in g.vertices], "edges": edges})


def test_string_vertex_ids_run_the_whole_pipeline(g27h, monkeypatch, capsys):
    # blossoming adds int vertices beside string ones without comparing them
    from flowpoly.dag import dag_to_json

    graph = renamed(g27h, "v{}".format)
    argv = ["analyze", "--json", "--framing", "paper-g27"]
    code, out, err = main_in_process(monkeypatch, capsys, argv, graph)
    assert code == 0 and err == ""
    assert out == main_in_process(monkeypatch, capsys, argv, dag_to_json(g27h))[1]


def test_string_id_framing_file_round_trips(g27h, tmp_path, monkeypatch, capsys):
    graph = renamed(g27h, "v{}".format)
    code, out, err = main_in_process(monkeypatch, capsys, ["framings", "--enumerate"], graph)
    assert code == 0 and err == ""
    path = tmp_path / "framing.json"
    path.write_text(out.splitlines()[0])
    code, out, err = main_in_process(monkeypatch, capsys, ["analyze", "--json", "--framing", str(path)], graph)
    assert code == 0 and err == ""
    assert all(v["ok"] for v in json.loads(out)["verdicts"])


ANALYSIS_COMMANDS = ("cliques", "poset", "hstar", "oracle", "analyze")


@pytest.mark.parametrize(
    "key, order", [("03", [1, 6]), ("v9", [1, 6]), ("3", ["x", 6]), ("3", [None, 6]), ("3", [[1], 6]),
                   ("3", [{}, 6]), ("3", [True, 6])]
)
def test_malformed_framing_files_exit_1(g27h, tmp_path, monkeypatch, capsys, key, order):
    from flowpoly.dag import dag_to_json
    from flowpoly.framing import framing_to_json, named_framing

    data = json.loads(framing_to_json(named_framing(g27h, "by-id")))
    del data["in_order"]["3"]
    data["in_order"][key] = order
    path = tmp_path / "framing.json"
    path.write_text(json.dumps(data))
    graph = dag_to_json(g27h)
    for command in ANALYSIS_COMMANDS:
        code, out, err = main_in_process(monkeypatch, capsys, [command, "--framing", str(path)], graph)
        assert code == 1 and out == "", command
        assert err.startswith("error: ") and repr(key) in err and "Traceback" not in err, (command, err)


@pytest.mark.parametrize("graph", ['{"vertices": [], "edges": []}', '{"vertices": [0], "edges": []}'])
def test_graphs_without_edges_are_graph_errors(graph, monkeypatch, capsys):
    # no edge means no route and no polytope: refused before any stage runs
    for command in ANALYSIS_COMMANDS:
        code, out, err = main_in_process(monkeypatch, capsys, [command], graph)
        assert (code, out, err) == (1, "", "error: the graph has no edges\n"), command


def test_framing_files_are_validated_by_every_command(tmp_path, monkeypatch, capsys):
    # a framing of car 8's contraction misses inner vertices of car 8 itself;
    # `oracle` reads no framed stage, and refuses it all the same
    from flowpoly.dag import complete_contraction, dag_to_json
    from flowpoly.framing import framing_to_json, named_framing
    from flowpoly.generators import caracol

    g = caracol(8)
    path = tmp_path / "framing.json"
    path.write_text(framing_to_json(named_framing(complete_contraction(g).result, "by-id")))
    for command in ANALYSIS_COMMANDS:
        code, out, err = main_in_process(monkeypatch, capsys, [command, "--framing", str(path)], dag_to_json(g))
        assert (code, out, err) == (1, "", "error: framing must order exactly the inner vertices\n"), command


def test_each_command_runs_its_verdicts(g27h, monkeypatch, capsys):
    # the checking commands run named rows of the one verdict table, on the
    # stages they print; `analyze` runs the whole table, in order
    import flowpoly.analysis
    from flowpoly.dag import dag_to_json

    assert list(flowpoly.analysis.VERDICTS) == G27_VERDICTS
    ran = []
    for name, check in flowpoly.analysis.VERDICTS.items():
        monkeypatch.setitem(
            flowpoly.analysis.VERDICTS, name, lambda inst, _name=name, _check=check: ran.append(_name) or _check(inst)
        )
    expected = {
        "cliques": ["cliques-contain-exceptionals", "cliques-are-simplices", "cliques-unimodular",
                    "flip-traversal-matches-enumeration"],
        "poset": ["dual-graph-regular", "dcov-palindromic", "dcov-extremes", "kappa-swaps-cover-statistics"],
        "hstar": ["dual-graph-regular", "dcov-palindromic", "dcov-extremes", "shelling-h-matches-dcov"],
        "oracle": ["ehrhart-finite-differences-vanish"],
        "analyze": G27_VERDICTS,
    }
    for command, names in expected.items():
        ran.clear()
        code, out, err = main_in_process(monkeypatch, capsys, [command, "--framing", "paper-g27"], dag_to_json(g27h))
        assert (code, err, ran) == (0, "", names), command


def test_mixed_vertex_ids_are_graph_errors(g27h, monkeypatch, capsys):
    # ids are compared (contraction keeps the smaller end), so int and
    # string ids never share a graph
    graph = renamed(g27h, lambda v: "x" if v == 4 else v)
    path = json.dumps(
        {"vertices": [1, "a", 3], "edges": [{"id": 0, "tail": 1, "head": "a"}, {"id": 1, "tail": "a", "head": 3}]}
    )
    runs = [("analyze", graph), ("cliques", graph), ("poset", graph), ("contract", path), ("framings", path)]
    for command, text in runs:
        code, out, err = main_in_process(monkeypatch, capsys, [command], text)
        assert (code, out, err) == (1, "", "error: vertex ids mix ints and strings\n"), command


MALFORMED_IDS = {
    "infinite edge id": '{"vertices": [1, 2], "edges": [{"id": 1e400, "tail": 1, "head": 2}]}',
    "fractional edge id": '{"vertices": [1, 2], "edges": [{"id": 0.5, "tail": 1, "head": 2}]}',
    "boolean edge id": '{"vertices": [1, 2], "edges": [{"id": true, "tail": 1, "head": 2}]}',
    "string edge id": '{"vertices": [1, 2], "edges": [{"id": "1", "tail": 1, "head": 2}]}',
    "boolean vertex": '{"vertices": [true, 2], "edges": [{"id": 1, "tail": true, "head": 2}]}',
    "NaN vertex": '{"vertices": [0, NaN, 2], "edges": [{"id": 0, "tail": 0, "head": NaN}, '
    '{"id": 1, "tail": NaN, "head": 2}]}',
}


@pytest.mark.parametrize("graph", MALFORMED_IDS.values(), ids=MALFORMED_IDS.keys())
def test_malformed_ids_are_graph_errors(graph, monkeypatch, capsys):
    for command in ("routes", "cliques", "analyze"):
        code, out, err = main_in_process(monkeypatch, capsys, [command], graph)
        assert code == 1 and out == "", command
        assert err.startswith("error: ") and " id " in err and "Traceback" not in err, (command, err)


def test_failed_shelling_check_is_a_failed_verdict(g27h, monkeypatch, capsys):
    # a shelling order that is not a linear extension fails the verdict
    # (exit 2), it is not a usage error
    import flowpoly.poset
    from flowpoly.dag import dag_to_json

    draw = flowpoly.poset.TauPoset.random_linear_extensions
    monkeypatch.setattr(
        flowpoly.poset.TauPoset,
        "random_linear_extensions",
        lambda self, count, seed: [order[::-1] for order in draw(self, count, seed)],
    )
    graph = dag_to_json(g27h)
    code, out, err = main_in_process(monkeypatch, capsys, ["analyze", "--json", "--framing", "paper-g27"], graph)
    failed = [v["invariant"] for v in json.loads(out)["verdicts"] if not v["ok"]]
    assert code == 2 and failed == ["shelling-h-matches-dcov"]
    assert err == "consistency failure: shelling-h-matches-dcov: instance violates the named invariants\n"
    code, out, err = main_in_process(monkeypatch, capsys, ["hstar", "--json", "--framing", "paper-g27"], graph)
    assert code == 2 and json.loads(out) == {"h": [1, 7, 7, 1], "shelling_agrees": False}
    assert err.startswith("consistency failure: shelling-h-matches-dcov")



def test_counts_off_the_ehrhart_fit_are_a_failed_verdict(g27h, monkeypatch, capsys):
    # a count above the dimension that misses the polynomial through the
    # counts at 0..d fails the finite-difference verdict (exit 2), it is not
    # an input error
    import flowpoly.ehrhart
    from flowpoly.dag import dag_to_json

    table = flowpoly.ehrhart.flow_count_table

    def bumped(g, tmax, *args):
        counts = table(g, tmax, *args)
        counts[tmax] += 1
        return counts

    monkeypatch.setattr(flowpoly.ehrhart, "flow_count_table", bumped)
    graph = dag_to_json(g27h)
    code, out, err = main_in_process(monkeypatch, capsys, ["analyze", "--json", "--framing", "paper-g27"], graph)
    failed = [v["invariant"] for v in json.loads(out)["verdicts"] if not v["ok"]]
    assert code == 2 and failed == ["ehrhart-finite-differences-vanish"]
    assert err.startswith("consistency failure: ehrhart-finite-differences-vanish")
    code, out, err = main_in_process(monkeypatch, capsys, ["oracle", "--json", "--framing", "paper-g27"], graph)
    assert code == 2 and json.loads(out)["hstar"] == [1, 7, 7, 1, 0, 0]
    assert err == "consistency failure: ehrhart-finite-differences-vanish: instance violates the named invariants\n"

# ordered verdict names of `analyze --json`; scripts rely on them, so they stay fixed
G27_VERDICTS = [
    "framing-ample",
    "exceptional-count-source-degree",
    "unique-exceptional-route-per-edge",
    "exceptional-routes-label-constant",
    "exceptional-adjacency-bipartite",
    "cliques-contain-exceptionals",
    "cliques-are-simplices",
    "cliques-unimodular",
    "flip-traversal-matches-enumeration",
    "dual-graph-regular",
    "dcov-palindromic",
    "dcov-total",
    "dcov-extremes",
    "shelling-h-matches-dcov",
    "kappa-swaps-cover-statistics",
    "quiver-gentle",
    "blossom-gentle",
    "objects-match-nonexceptional-routes",
    "route-module-bijection",
    "rigidity-matches-coherence",
    "support-tau-tilting-matches-cliques",
    "route-count-is-vertex-count",
    "hstar-matches-dcov",
    "hstar-volume-is-clique-count",
    "hstar-palindromic-gorenstein",
    "hstar-unimodal",
    "ehrhart-finite-differences-vanish",
    "exceptionals-form-special-simplex",
]


def test_analyze_verdict_names_golden():
    gen = run(["gen", "gkn", "2", "7"])
    con = run(["contract"], stdin=gen.stdout)
    res = run(["analyze", "--json", "--framing", "paper-g27"], stdin=con.stdout)
    verdicts = json.loads(res.stdout)["verdicts"]
    assert [v["invariant"] for v in verdicts] == G27_VERDICTS


def test_fuzz_command():
    res = run(["fuzz", "--count", "5", "--seed", "3", "--json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["failures"] == []


@pytest.mark.parametrize(
    "argv, option",
    [
        (["hstar", "--extensions", "-3"], "--extensions"),
        (["fuzz", "--count", "-2"], "--count"),
        (["fuzz", "--size", "0"], "--size"),
        (["fuzz", "--size", "1"], "--size"),
        (["routes", "--max-routes", "-1"], "--max-routes"),
        (["cliques", "--max-cliques", "0"], "--max-cliques"),
        (["analyze", "--max-routes", "0"], "--max-routes"),
    ],
)
def test_bad_counts_are_usage_errors(g27h, monkeypatch, capsys, argv, option):
    # a negative count or a graph too small to draw is refused before any work
    from flowpoly.dag import dag_to_json

    code, out, err = main_in_process(monkeypatch, capsys, argv, dag_to_json(g27h))
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: argument {option}: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [([], "COMMAND"), (["foo"], "'foo'"), (["analyze", "--fram", "by-id"], "--fram"), (["gen", "car", "x"], "'x'")],
)
def test_command_lines_that_name_nothing_are_usage_errors(monkeypatch, capsys, argv, named):
    # no command, an unknown one, an abbreviated option and a non-integer
    # generator argument are refused before any work
    code, out, err = main_in_process(monkeypatch, capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and named in err and "Traceback" not in err


def test_importing_the_cli_loads_no_click():
    probe = "import sys, flowpoly.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'click'))"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stdout) == (0, "[]\n"), res.stderr


def test_fuzz_accepts_the_smallest_size(monkeypatch, capsys):
    code, out, err = main_in_process(monkeypatch, capsys, ["fuzz", "--count", "2", "--size", "2"])
    assert (code, out, err) == (0, "2 instances, 0 failures\n", "")


def test_fuzz_runs_the_oracle_on_every_instance(monkeypatch, capsys):
    import flowpoly.analysis

    calls = []
    oracle = flowpoly.analysis.ehrhart_oracle
    monkeypatch.setattr(flowpoly.analysis, "ehrhart_oracle", lambda g: calls.append(g) or oracle(g))
    code, out, err = main_in_process(monkeypatch, capsys, ["fuzz", "--count", "25", "--seed", "0", "--json"])
    assert (code, err) == (0, ""), err
    assert json.loads(out) == {"instances": 25, "failures": []}
    assert len(calls) == 25


def test_fuzz_runs_the_gentle_verdicts(monkeypatch, capsys):
    import flowpoly.analysis
    import flowpoly.cli

    monkeypatch.setattr(flowpoly.analysis, "gentleness_violations", lambda q: ["a broken relation"])
    monkeypatch.setattr(sys, "argv", ["flowpoly", "fuzz", "--count", "2"])
    with pytest.raises(SystemExit) as stop:
        flowpoly.cli.main()
    out = capsys.readouterr().out
    assert stop.value.code == 2
    assert "instance 0: quiver-gentle" in out and "instance 1: quiver-gentle" in out


def test_poset_commands_fail_fast_on_a_graph_that_is_not_full(tmp_path, monkeypatch, capsys):
    # one gate refuses a graph that is not full, before any enumeration
    import flowpoly.analysis
    import flowpoly.cli
    import flowpoly.poset
    import flowpoly.triangulation
    from flowpoly.dag import dag_to_json
    from flowpoly.generators import gkn

    calls = []
    for name in ("bron_kerbosch", "maximal_cliques_by_flips"):
        fn = getattr(flowpoly.triangulation, name)
        for mod in (flowpoly.triangulation, flowpoly.poset, flowpoly.analysis, flowpoly.cli):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    path = tmp_path / "g211.json"
    path.write_text(dag_to_json(gkn(2, 11)))
    for command in ("poset", "hstar"):
        monkeypatch.setattr(sys, "argv", ["flowpoly", command, "-i", str(path), "--framing", "paper-g27"])
        with pytest.raises(SystemExit) as stop:
            flowpoly.cli.main()
        assert stop.value.code == 1
        assert capsys.readouterr().err == "error: the graph is not full; run `flowpoly contract` first\n"
    assert calls == []


def test_oracle_json_on_car12():
    gen = run(["gen", "car", "12"])
    con = run(["contract"], stdin=gen.stdout)
    res = run(["oracle", "--json"], stdin=con.stdout)
    assert res.returncode == 0, res.stderr
    assert sum(json.loads(res.stdout)["hstar"]) == 4862


def test_in_process_calls_release_the_redirected_stdout(monkeypatch):
    import contextlib
    import gc
    import io
    import weakref

    from flowpoly.cli import main

    monkeypatch.setattr(sys, "argv", ["flowpoly", "gen", "gkn", "2", "7"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main()
    assert len(json.loads(out.getvalue())["edges"]) == 11
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_in_process_help_releases_the_redirected_stdout(monkeypatch, argv):
    import contextlib
    import gc
    import io
    import weakref

    from flowpoly.cli import main

    monkeypatch.setattr(sys, "argv", ["flowpoly", *argv])
    out = io.StringIO()
    with pytest.raises(SystemExit) as stop, contextlib.redirect_stdout(out):
        main()
    assert stop.value.code == 0
    assert out.getvalue().startswith("usage: flowpoly ") and "show this message and exit" in out.getvalue()
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


def test_deterministic_output():
    gen = run(["gen", "gkn", "2", "7"])
    con = run(["contract"], stdin=gen.stdout)
    a = run(["analyze", "--json", "--seed", "5"], stdin=con.stdout)
    b = run(["analyze", "--json", "--seed", "5"], stdin=con.stdout)
    assert a.stdout == b.stdout


def test_dot_outputs(tmp_path):
    gen = run(["gen", "gkn", "2", "7"])
    con = run(["contract"], stdin=gen.stdout)
    dot = tmp_path / "poset.dot"
    res = run(["poset", "--dot", str(dot)], stdin=con.stdout)
    assert res.returncode == 0
    text = dot.read_text()
    assert text.startswith("digraph poset {")
    assert text.count("->") == 24


def test_unwritable_dot_path_is_a_usage_error(tmp_path):
    con = run(["contract"], stdin=run(["gen", "gkn", "2", "7"]).stdout)
    for command, path in (("cliques", tmp_path / "missing" / "dual.dot"), ("poset", tmp_path)):
        res = run([command, "--dot", str(path)], stdin=con.stdout)
        assert res.returncode == 1, res.stderr
        assert res.stdout == ""
        assert res.stderr.startswith("usage error: --dot file ") and res.stderr.count("\n") == 1


def test_repeated_vertex_ids_exit_1():
    res = run(["routes", "--json"], stdin='{"vertices":[1,1,2],"edges":[{"id":0,"tail":1,"head":2}]}')
    assert res.returncode == 1
    assert res.stdout == "" and res.stderr == "error: duplicate vertex ids\n"


def test_analyze_car8_pipeline():
    # the honest contraction keeps the two source-to-sink through edges, so
    # there are seven exceptional routes (five fan routes plus two singles)
    gen = run(["gen", "car", "8"])
    con = run(["contract"], stdin=gen.stdout)
    res = run(["analyze", "--json", "--framing", "length"], stdin=con.stdout)
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["exceptional"] == 7
    assert data["flags"]["symmetric"] and data["flags"]["unimodal"]
    assert data["ok"]


def test_framings_from_file(tmp_path):
    gen = run(["gen", "gkn", "3", "10"])
    path = tmp_path / "g.json"
    path.write_text(gen.stdout)
    res = run(["framings", "--json", "-i", str(path)])
    assert json.loads(res.stdout)["count"] == 256


def test_consistency_failure_exit_code():
    # valid DAG whose idle edges close a cycle: the counting formula's
    # hypotheses fail and the tool reports a consistency failure (exit 2)
    edge_list = "\n".join(
        [
            "1 2 0",
            "1 2 1",
            "1 3 2",
            "2 3 3",
            "3 4 4",
            "3 4 5",
            "2 5 6",
            "6 5 7",
            "7 5 8",
            "4 6 9",
            "4 7 10",
        ]
    )
    res = run(["framings"], stdin=edge_list)
    assert res.returncode == 2
    assert "idle-forest-structure" in res.stderr


def test_oracle_reports_special_simplex():
    gen = run(["gen", "carcore", "8"])
    res = run(["oracle", "--json", "--framing", "length"], stdin=gen.stdout)
    data = json.loads(res.stdout)
    assert data["special_simplex"] is True


def test_oracle_and_the_ample_gate_build_no_coherence_rows(tmp_path, monkeypatch, capsys):
    # the exceptional routes come from the table's ranks, so the routes x
    # routes coherence rows are built only for the cliques and row verdicts
    import functools

    from flowpoly.dag import complete_contraction, dag_to_json
    from flowpoly.framing import CoherenceTable, framing_by_edge_id, framing_to_json, is_ample
    from flowpoly.generators import caracol, gkn

    g29h, car10h = (complete_contraction(g).result for g in (gkn(2, 9), caracol(10)))
    # a framing with one in-port reversed, which the gate refuses
    for v in g29h.inner:
        f = framing_by_edge_id(g29h)
        f.in_order[v] = f.in_order[v][::-1]
        if not is_ample(CoherenceTable(g29h, f)):
            break
    path = tmp_path / "f.json"
    path.write_text(framing_to_json(f))
    built = []
    rows = CoherenceTable.__dict__["adjacency"].func
    spy = functools.cached_property(lambda table: built.append(len(table.routes)) or rows(table))
    spy.__set_name__(CoherenceTable, "adjacency")
    monkeypatch.setattr(CoherenceTable, "adjacency", spy)
    for g in (g29h, car10h):
        code, out, _ = main_in_process(monkeypatch, capsys, ["oracle", "--json"], dag_to_json(g))
        assert code == 0 and json.loads(out)["special_simplex"] is True
    code, _, err = main_in_process(monkeypatch, capsys, ["cliques", "--framing", str(path)], dag_to_json(g29h))
    assert (code, err) == (1, "error: the framing is not ample: some edge lies on no exceptional route\n")
    assert built == []
    # the spy counts: the clique stages build the rows once
    assert main_in_process(monkeypatch, capsys, ["cliques", "--json"], dag_to_json(g29h))[0] == 0
    assert built == [len(CoherenceTable(g29h, framing_by_edge_id(g29h)).routes)]


# Reference `--json` outputs; regenerate one only when its output is meant to change.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = [
    (("gkn", "2", "7"), "paper-g27", command)
    for command in ("analyze", "cliques", "poset", "hstar", "oracle")
] + [
    # car 8's exceptional routes interleave with the others (indices 0, 1, 6,
    # 10, 13, 15, 20), so its clique tuples are decoded from masks and
    # member lists, not copied
    (("car", "8"), "length", command)
    for command in ("analyze", "cliques", "poset", "hstar")
] + [
    # 272 cliques and 680 dual edges: enough that a wrong lexicographic
    # relabelling of the flip traversal's visit order shows
    (("gkn", "2", "9"), "paper-g27", command)
    for command in ("cliques", "poset")
] + [
    # the two instances the benchmark's analyze workloads run on
    (("car", "10"), "length", "analyze"),
    (("gkn", "2", "11"), "paper-g27", "analyze"),
]


@pytest.mark.parametrize("graph, framing, command", GOLDEN_CASES)
def test_json_output_matches_golden(graph, framing, command):
    con = run(["contract"], stdin=run(["gen", *graph]).stdout)
    res = subprocess.run(
        CLI + [command, "--json", "--framing", framing],
        input=con.stdout.encode(),
        capture_output=True,
        timeout=300,
    )
    assert res.returncode == 0 and res.stderr == b""
    assert res.stdout == (GOLDEN / f"{'-'.join(graph)}_{framing}_{command}.json").read_bytes()


@pytest.mark.parametrize("graph", [("car", "10"), ("gkn", "2", "9")])
def test_framings_enumerate_matches_golden(graph):
    con = run(["contract"], stdin=run(["gen", *graph]).stdout)
    res = subprocess.run(
        CLI + ["framings", "--enumerate"], input=con.stdout.encode(), capture_output=True, timeout=300
    )
    assert res.returncode == 0 and res.stderr == b""
    assert res.stdout == (GOLDEN / f"{'-'.join(graph)}_framings.jsonl").read_bytes()


@pytest.mark.parametrize("graph, lines_read", [(("car", "10"), 1), (("gkn", "2", "9"), 0)])
def test_a_reader_closing_the_pipe_ends_the_enumeration_with_exit_1(graph, lines_read):
    # stdout is block-buffered.  Car 10's 13 kB of framings cannot all pass
    # a pipe of one page before the reader closes it after the first line;
    # gkn(2,9)'s 672 bytes are written when the command ends, into a pipe
    # closed from the start, and the flush at exit must not fail again
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe sizes are set on Linux only")
    con = run(["contract"], stdin=run(["gen", *graph]).stdout)
    read, write = os.pipe()
    fcntl.fcntl(read, fcntl.F_SETPIPE_SZ, 4096)
    if not lines_read:
        os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
        CLI + ["framings", "--enumerate"], stdin=subprocess.PIPE, stdout=write, stderr=subprocess.PIPE, env=env
    ) as proc:
        os.close(write)
        proc.stdin.write(con.stdout.encode())
        proc.stdin.close()
        if lines_read:
            with os.fdopen(read, "rb") as reader:
                assert reader.readline().startswith(b'{"in_order": ')
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_framings_enumerate_builds_only_canonical_framings(tmp_path, monkeypatch, capsys):
    # the swapped half is never printed, so its framings' text is never built
    import flowpoly.framing

    from flowpoly.dag import complete_contraction, dag_to_json
    from flowpoly.generators import caracol

    built = []
    build = flowpoly.framing._PortTable.framing_json
    monkeypatch.setattr(
        flowpoly.framing._PortTable,
        "framing_json",
        lambda table, index: built.append(index) or build(table, index),
    )
    path = tmp_path / "car10.json"
    path.write_text(dag_to_json(complete_contraction(caracol(10)).result))
    code, out, err = main_in_process(monkeypatch, capsys, ["framings", "--enumerate", "-i", str(path)])
    assert (code, err) == (0, ""), err
    assert len(out.splitlines()) == 64
    assert built == list(range(0, 128, 2))
