"""Command-line front end.

Graph-producing commands (gen, contract) write graph JSON to stdout so they
compose in pipelines; analysis commands read a graph from stdin or --input
and print a report (pretty text, or JSON with --json).

One argparse parser, built once when this module is imported, parses every
call, and `main` runs the command it names.  Exit codes: 0 all checks pass,
1 usage or limit errors, 2 a structural invariant failed on this instance:
`main` maps the families of `flowpoly.errors` to these codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from . import analysis as analysis_mod
from .analysis import Instance, Verdict, ample_instance, full_instance, run_verdicts
from .dag import (
    DEFAULT_MAX_ROUTES,
    Dag,
    complete_contraction,
    dag_from_edge_list,
    dag_from_json,
    dag_to_json,
    enumerate_routes,
    is_full,
)
from .errors import ConsistencyError, FlowpolyError, LimitError, NotFullError
from .framing import (
    Framing,
    count_ample_framings,
    enumerate_ample_framings,
    framing_from_json,
    named_framing,
    port_table,
    validate_framing,
    NAMED_FRAMINGS,
)
from .generators import generate, random_valid_dag
from .triangulation import DEFAULT_MAX_CLIQUES


class UsageError(Exception):
    """A command line, or an input named on it, that no command can run on."""


class _Parser(argparse.ArgumentParser):
    """Raises `UsageError` instead of exiting, takes no abbreviated options,
    and has `--help` as its only help option."""

    def __init__(self, **settings) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **settings)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message: str):
        raise UsageError(message)


def _at_least(low: int):
    """An int option type refusing values below `low`."""

    def checked(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value

    checked.__name__ = "int"  # argparse names the type in "invalid int value"
    return checked


def _read_graph(path: str | None) -> Dag:
    try:
        text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"graph file {path!r} is not readable text: {exc}")
    text = text.strip()
    if not text:
        raise UsageError("empty graph input")
    if text.startswith("{"):
        return dag_from_json(text)
    return dag_from_edge_list(text)


def _framed(input_path: str | None, spec: str) -> tuple[Dag, Framing]:
    """The graph read from input_path and its framing: a name, or a file that
    must frame exactly this graph's inner vertices."""
    g = _read_graph(input_path)
    if spec in NAMED_FRAMINGS:
        return g, named_framing(g, spec)
    try:
        text = Path(spec).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"framing {spec!r} is neither a name nor a readable file: {exc}")
    f = framing_from_json(g, text)
    validate_framing(g, f)
    return g, f


def _check(verdicts: Iterable[Verdict]) -> None:
    """Exit 2 naming every failed verdict; a command prints its payload first."""
    failed = ", ".join(v.invariant for v in verdicts if not v.ok)
    if failed:
        raise ConsistencyError(failed, "instance violates the named invariants")


PARSER = _Parser(prog="flowpoly", description="Flow polytopes of DAGs: framings, triangulations, posets, h*-vectors.")
_commands = PARSER.add_subparsers(metavar="COMMAND", required=True)


def _option(*flags: str, **settings) -> tuple[tuple[str, ...], dict]:
    return flags, settings


def command(*options: tuple[tuple[str, ...], dict]):
    """Add the decorated function to PARSER as the command of its name,
    with these options; `main` calls it with them as keywords."""

    def register(run):
        sub = _commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__)
        for flags, settings in options:
            sub.add_argument(*flags, **settings)
        sub.set_defaults(run=run)
        return run

    return register


INPUT = _option("--input", "-i", dest="input_path", metavar="PATH", help="graph file (default stdin)")
JSON = _option("--json", dest="as_json", action="store_true", help="machine-readable output")
FRAMING = _option("--framing", default="by-id", help="named framing or framing JSON file (default: %(default)s)")
SEED = _option("--seed", type=int, default=0, help="(default: %(default)s)")
MAX_ROUTES = _option("--max-routes", type=_at_least(1), default=DEFAULT_MAX_ROUTES, help="(default: %(default)s)")
MAX_CLIQUES = _option("--max-cliques", type=_at_least(1), default=DEFAULT_MAX_CLIQUES, help="(default: %(default)s)")
EXTENSIONS = _option(
    "--extensions", type=_at_least(0), default=5, help="random linear extensions to cross-check (default: %(default)s)"
)

# the verdicts each checking command runs, on the stages it prints
CLIQUES_VERDICTS = (
    "cliques-contain-exceptionals", "cliques-are-simplices", "cliques-unimodular", "flip-traversal-matches-enumeration"
)
POSET_VERDICTS = ("dual-graph-regular", "dcov-palindromic", "dcov-extremes", "kappa-swaps-cover-statistics")
HSTAR_VERDICTS = ("dual-graph-regular", "dcov-palindromic", "dcov-extremes", "shelling-h-matches-dcov")


@command(_option("name"), _option("args", nargs="*", type=int, metavar="N"))
def gen(name: str, args: list[int]) -> None:
    """Generate a built-in graph (car N | carcore N | gkn K N1)."""
    try:
        g = generate(name, args)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(dag_to_json(g))


@command(INPUT, JSON)
def contract(input_path, as_json) -> None:
    """Contract idle edges to a complete contraction."""
    g = _read_graph(input_path)
    trace = complete_contraction(g)
    full = is_full(trace.result)
    if as_json:
        steps = [{"edge": e, "kept": k, "removed": r} for e, (k, r) in trace.steps]
        result = json.loads(dag_to_json(trace.result))
        vertex_map = trace.vertex_map
        print(json.dumps({"steps": steps, "result": result, "vertex_map": vertex_map, "full": full, "valid": full}))
    else:
        print(dag_to_json(trace.result))
        print(f"contracted {len(trace.steps)} idle edge(s); result full: {full}", file=sys.stderr)


@command(INPUT, JSON, MAX_ROUTES)
def routes(input_path, as_json, max_routes) -> None:
    """Enumerate routes (maximal source-to-sink paths)."""
    g = _read_graph(input_path)
    rs = enumerate_routes(g, max_routes)
    if as_json:
        print(json.dumps({"count": len(rs), "routes": [list(r) for r in rs]}))
    else:
        print(f"{len(rs)} routes")
        for r in rs:
            print(" ".join(map(str, r)))


@command(INPUT, JSON, _option("--enumerate", dest="do_enum", action="store_true", help="stream the ample framings"))
def framings(input_path, as_json, do_enum) -> None:
    """Count (and optionally enumerate) ample framings of a valid DAG."""
    g = _read_graph(input_path)
    try:
        table = port_table(g)
    except NotFullError:
        raise UsageError("graph is not valid (no full contraction)")
    if do_enum:
        if not is_full(g):
            raise UsageError("--enumerate needs a full graph (contract first)")
        for tagged in enumerate_ample_framings(table):
            if tagged.canonical:
                print(table.framing_json(tagged.index))
        return
    decomp, total = table.decomposition, count_ample_framings(table)
    if as_json:
        components = [{"kind": c.kind, "walk": list(c.walk())} for c in decomp.components]
        print(json.dumps({"m": decomp.m, "components": components, "count": total}))
    else:
        print(f"M = {decomp.m} alternating components with inner vertices")
        for c in decomp.components:
            print(f"  {c.kind}: " + "-".join(map(str, c.walk())))
        print(f"ample framings: {total}")


@command(INPUT, JSON, FRAMING, _option("--dot", dest="dot_path", help="write the dual graph as DOT"), MAX_CLIQUES)
def cliques(input_path, as_json, framing, dot_path, max_cliques) -> None:
    """Maximal cliques of the coherence relation, with unimodularity flags."""
    inst = ample_instance(*_framed(input_path, framing), max_cliques=max_cliques)
    verdicts = run_verdicts(inst, CLIQUES_VERDICTS)
    table, dg = inst.table, inst.dual.relabelled()
    cs = dg.cliques  # the flip traversal's cliques, decoded in lexicographic order
    # the exchange certificate flags every clique at once
    flags = [verdicts["cliques-unimodular"].ok] * len(cs)
    pairs = [list(ab) for ab in zip(dg.a, dg.b)]
    if dot_path:
        _write_dot(dot_path, "graph dual {", cs, [f"  n{a} -- n{b};" for a, b in pairs])
    if as_json:
        print(
            json.dumps(
                {
                    "routes": [list(r) for r in table.routes],
                    "exceptional": list(table.exceptional_indices),
                    "cliques": [list(c) for c in cs],
                    "unimodular": flags,
                    "dual_edges": pairs,
                }
            )
        )
    else:
        print(f"{len(table.routes)} routes, {len(table.exceptional_indices)} exceptional")
        print(f"{len(cs)} maximal cliques, all unimodular: {all(flags)}")
        print(f"dual graph: {len(dg.a)} edges")
    _check(verdicts.values())


@command(INPUT, JSON, FRAMING, _option("--dot", dest="dot_path", help="write the Hasse diagram as DOT"))
def poset(input_path, as_json, framing, dot_path) -> None:
    """Tau-tilting poset on the dual graph, with brick labels and dcov."""
    inst = full_instance(*_framed(input_path, framing))
    inst.dual = inst.dual.relabelled()  # nodes numbered as printed
    verdicts = run_verdicts(inst, POSET_VERDICTS)
    p, dcov = inst.poset, inst.dcov
    if dot_path:
        covers = [f'  n{lo} -> n{hi} [label="{"-".join(map(str, w))}"];' for lo, hi, w in p.hasse]
        _write_dot(dot_path, "digraph poset {\n  rankdir=BT;", p.cliques, covers)
    if as_json:
        print(
            json.dumps(
                {
                    "nodes": [list(c) for c in p.cliques],
                    "hasse": [
                        {"lower": lo, "upper": hi, "brick": list(w)} for lo, hi, w in p.hasse
                    ],
                    "dcov": dcov,
                    "kappa": dict(enumerate(p.kappa)),
                }
            )
        )
    else:
        print(f"{len(p.cliques)} nodes, {len(p.hasse)} cover relations")
        print(f"dcov polynomial coefficients: {dcov}")
        print(f"kappa is a bijection on {len(p.kappa)} nodes")
    _check(verdicts.values())


@command(INPUT, JSON, FRAMING, SEED, EXTENSIONS)
def hstar(input_path, as_json, framing, seed, extensions) -> None:
    """h-vector from the poset: dcov statistics and shelling restrictions."""
    inst = full_instance(*_framed(input_path, framing), seed=seed, extensions=extensions)
    verdicts = run_verdicts(inst, HSTAR_VERDICTS)
    agree = verdicts["shelling-h-matches-dcov"].ok
    if as_json:
        print(json.dumps({"h": inst.dcov, "shelling_agrees": agree}))
    else:
        print(f"h = {inst.dcov} (shelling orders agree: {agree})")
    _check(verdicts.values())


@command(INPUT, JSON, FRAMING)
def oracle(input_path, as_json, framing) -> None:
    """Ehrhart oracle: lattice-point counts, h*, Gorenstein/unimodal flags."""
    inst = Instance(*_framed(input_path, framing))
    g, result = inst.g, inst.oracle
    payload = {
        "dimension": result.dimension,
        "counts": result.counts,
        "hstar": result.hstar,
        **result.flags,
    }
    if is_full(g):
        payload["special_simplex"] = inst.special_simplex.ok
    if as_json:
        print(json.dumps(payload))
    else:
        print(f"dim = {result.dimension}")
        print("counts: " + ", ".join(f"{t}:{c}" for t, c in sorted(result.counts.items())))
        print(f"h* = {result.hstar}")
        print(", ".join(f"{name}: {flag}" for name, flag in result.flags.items()))
        if "special_simplex" in payload:
            print(f"exceptional routes form a special simplex: {payload['special_simplex']}")
    _check(run_verdicts(inst, ("ehrhart-finite-differences-vanish",)).values())


@command(INPUT, JSON, FRAMING, SEED, MAX_ROUTES, MAX_CLIQUES)
def analyze(input_path, as_json, framing, seed, max_routes, max_cliques) -> None:
    """Run the whole pipeline and every cross-check."""
    report = analysis_mod.analyze(
        *_framed(input_path, framing), seed=seed, max_routes=max_routes, max_cliques=max_cliques
    )
    if as_json:
        payload = {key: report.data[key] for key in ("routes", "exceptional", "cliques", "dcov", "hstar", "flags")}
        verdicts = [{"invariant": v.invariant, "ok": v.ok, "detail": v.detail} for v in report.verdicts]
        print(json.dumps({**payload, "verdicts": verdicts, "ok": report.ok}))
    else:
        print(f"routes: {report.data.get('routes')}")
        print(f"exceptional routes: {report.data.get('exceptional')}")
        print(f"maximal cliques: {report.data.get('cliques')}")
        print(f"dcov: {report.data.get('dcov')}")
        print(f"oracle h*: {report.data.get('hstar')}")
        print(f"flags: {report.data.get('flags')}")
        for v in report.verdicts:
            mark = "ok " if v.ok else "FAIL"
            print(f"  [{mark}] {v.invariant}" + (f" ({v.detail})" if v.detail else ""))
    _check(report.verdicts)


@command(
    _option("--count", type=_at_least(0), default=25, help="random instances (default: %(default)s)"),
    SEED,
    _option("--size", type=_at_least(2), default=4, help="inner vertices per instance (default: %(default)s)"),
    JSON,
)
def fuzz(count, seed, size, as_json) -> None:
    """Randomized structural checks on random valid DAGs."""
    import random as _random

    rng = _random.Random(seed)
    failures = []
    for i in range(count):
        g = random_valid_dag(rng, rng.randrange(2, size + 1), expansions=rng.randrange(0, 3))
        h = complete_contraction(g).result
        if not is_full(h):
            failures.append((i, "contraction-not-full"))
            continue
        tagged = next(enumerate_ample_framings(port_table(h)))
        rep = analysis_mod.analyze(h, tagged.framing)
        failures.extend((i, v.invariant) for v in rep.failed())
    if as_json:
        print(json.dumps({"instances": count, "failures": failures}))
    else:
        print(f"{count} instances, {len(failures)} failures")
        for idx, inv in failures:
            print(f"  instance {idx}: {inv}")
    if failures:
        raise ConsistencyError("fuzz-invariants", f"{len(failures)} failures")


def _write_dot(path: str, opening: str, cliques, edge_lines: list[str]) -> None:
    """Write a DOT graph with one node per clique, labelled by its routes."""
    lines = [opening]
    lines.extend(f'  n{i} [label="{" ".join(map(str, c))}"];' for i, c in enumerate(cliques))
    lines.extend(edge_lines)
    lines.append("}")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise UsageError(f"--dot file {path!r} cannot be written: {exc}")


def main() -> None:
    try:
        options = vars(PARSER.parse_args())
        options.pop("run")(**options)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        sys.exit(1)
    except LimitError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        sys.exit(1)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        sys.exit(2)
    except FlowpolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        sys.exit(1)


if __name__ == "__main__":
    main()
