"""Command-line front end.

Graph-producing commands (gen, contract) write graph JSON to stdout so they
compose in pipelines; analysis commands read a graph from stdin or --input
and print a report (pretty text, or JSON with --json).

Exit codes: 0 all checks pass, 1 usage or limit errors, 2 a structural
invariant failed on this instance: `main` maps the families of
`flowpoly.errors` to these codes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable

import click

from . import analysis as analysis_mod
from .analysis import Instance, Verdict, ample_instance, run_verdicts
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
    framing_to_json,
    named_framing,
    port_table,
    validate_framing,
    NAMED_FRAMINGS,
)
from .generators import generate, random_valid_dag
from .triangulation import DEFAULT_MAX_CLIQUES


def _echo(message: str = "", err: bool = False) -> None:
    """click.echo to the current sys.stdout or sys.stderr.  Given no file,
    click caches each stream's wrapper in a WeakKeyDictionary whose value
    is the stream itself, so every stream that a caller redirected output
    to while calling `main` in-process would stay alive with its text."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """click's own --help callback, printing through `_echo`."""
    if value and not ctx.resilient_parsing:
        _echo(ctx.get_help())
        ctx.exit()


class _Command(click.Command):
    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Group(_Command, click.Group):
    command_class = _Command


def _read_graph(path: str | None) -> Dag:
    try:
        text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"graph file {path!r} is not readable text: {exc}")
    text = text.strip()
    if not text:
        raise click.UsageError("empty graph input")
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
        raise click.UsageError(f"framing {spec!r} is neither a name nor a readable file: {exc}")
    f = framing_from_json(g, text)
    validate_framing(g, f)
    return g, f


def _check(verdicts: Iterable[Verdict]) -> None:
    """Exit 2 naming every failed verdict; a command prints its payload first."""
    failed = ", ".join(v.invariant for v in verdicts if not v.ok)
    if failed:
        raise ConsistencyError(failed, "instance violates the named invariants")


input_opt = click.option("--input", "-i", "input_path", default=None, help="graph file (default stdin)")
json_opt = click.option("--json", "as_json", is_flag=True, help="machine-readable output")
framing_opt = click.option(
    "--framing", default="by-id", show_default=True, help="named framing or framing JSON file"
)
max_routes_opt = click.option("--max-routes", default=DEFAULT_MAX_ROUTES, show_default=True, type=click.IntRange(min=1))
max_cliques_opt = click.option("--max-cliques", default=DEFAULT_MAX_CLIQUES, show_default=True, type=click.IntRange(min=1))

# the verdicts each checking command runs, on the stages it prints
CLIQUES_VERDICTS = (
    "cliques-contain-exceptionals", "cliques-are-simplices", "cliques-unimodular", "flip-traversal-matches-enumeration"
)
POSET_VERDICTS = ("dual-graph-regular", "dcov-palindromic", "dcov-extremes", "kappa-swaps-cover-statistics")
HSTAR_VERDICTS = ("dual-graph-regular", "dcov-palindromic", "dcov-extremes", "shelling-h-matches-dcov")


@click.group(cls=_Group)
def cli() -> None:
    """Flow polytopes of DAGs: framings, triangulations, posets, h*-vectors."""


@cli.command()
@click.argument("name")
@click.argument("args", nargs=-1, type=int)
def gen(name: str, args: tuple[int, ...]) -> None:
    """Generate a built-in graph (car N | carcore N | gkn K N1)."""
    try:
        g = generate(name, list(args))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _echo(dag_to_json(g))


@cli.command()
@input_opt
@json_opt
def contract(input_path, as_json) -> None:
    """Contract idle edges to a complete contraction."""
    g = _read_graph(input_path)
    trace = complete_contraction(g)
    if as_json:
        _echo(
            json.dumps(
                {
                    "steps": [
                        {"edge": e, "kept": k, "removed": r} for e, (k, r) in trace.steps
                    ],
                    "result": json.loads(dag_to_json(trace.result)),
                    "vertex_map": trace.vertex_map,
                    "full": is_full(trace.result),
                    "valid": is_full(trace.result),
                }
            )
        )
    else:
        _echo(dag_to_json(trace.result))
        _echo(
            f"contracted {len(trace.steps)} idle edge(s); "
            f"result full: {is_full(trace.result)}",
            err=True,
        )


@cli.command()
@input_opt
@json_opt
@max_routes_opt
def routes(input_path, as_json, max_routes) -> None:
    """Enumerate routes (maximal source-to-sink paths)."""
    g = _read_graph(input_path)
    rs = enumerate_routes(g, max_routes)
    if as_json:
        _echo(json.dumps({"count": len(rs), "routes": [list(r) for r in rs]}))
    else:
        _echo(f"{len(rs)} routes")
        for r in rs:
            _echo(" ".join(map(str, r)))


@cli.command()
@input_opt
@json_opt
@click.option("--enumerate", "do_enum", is_flag=True, help="stream the ample framings")
def framings(input_path, as_json, do_enum) -> None:
    """Count (and optionally enumerate) ample framings of a valid DAG."""
    g = _read_graph(input_path)
    try:
        table = port_table(g)
    except NotFullError:
        raise click.UsageError("graph is not valid (no full contraction)")
    if do_enum:
        if not is_full(g):
            raise click.UsageError("--enumerate needs a full graph (contract first)")
        for tagged in enumerate_ample_framings(table):
            if tagged.canonical:
                _echo(framing_to_json(tagged.framing))
        return
    decomp, total = table.decomposition, count_ample_framings(table)
    if as_json:
        _echo(
            json.dumps(
                {
                    "m": decomp.m,
                    "components": [
                        {"kind": c.kind, "walk": list(c.walk())} for c in decomp.components
                    ],
                    "count": total,
                }
            )
        )
    else:
        _echo(f"M = {decomp.m} alternating components with inner vertices")
        for c in decomp.components:
            _echo(f"  {c.kind}: " + "-".join(map(str, c.walk())))
        _echo(f"ample framings: {total}")


@cli.command()
@input_opt
@json_opt
@framing_opt
@click.option("--dot", "dot_path", default=None, help="write the dual graph as DOT")
@max_cliques_opt
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
        _echo(
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
        _echo(f"{len(table.routes)} routes, {len(table.exceptional_indices)} exceptional")
        _echo(f"{len(cs)} maximal cliques, all unimodular: {all(flags)}")
        _echo(f"dual graph: {len(dg.a)} edges")
    _check(verdicts.values())


@cli.command()
@input_opt
@json_opt
@framing_opt
@click.option("--dot", "dot_path", default=None, help="write the Hasse diagram as DOT")
def poset(input_path, as_json, framing, dot_path) -> None:
    """Tau-tilting poset on the dual graph, with brick labels and dcov."""
    inst = ample_instance(*_framed(input_path, framing))
    inst.labels  # NotFullError before the flip traversal
    inst.dual = inst.dual.relabelled()  # nodes numbered as printed
    verdicts = run_verdicts(inst, POSET_VERDICTS)
    p, dcov = inst.poset, inst.dcov
    if dot_path:
        covers = [f'  n{lo} -> n{hi} [label="{"-".join(map(str, w))}"];' for lo, hi, w in p.hasse]
        _write_dot(dot_path, "digraph poset {\n  rankdir=BT;", p.cliques, covers)
    if as_json:
        _echo(
            json.dumps(
                {
                    "nodes": [list(c) for c in p.cliques],
                    "hasse": [
                        {"lower": lo, "upper": hi, "brick": list(w)} for lo, hi, w in p.hasse
                    ],
                    "dcov": dcov,
                    "kappa": p.kappa,
                }
            )
        )
    else:
        _echo(f"{len(p.cliques)} nodes, {len(p.hasse)} cover relations")
        _echo(f"dcov polynomial coefficients: {dcov}")
        _echo(f"kappa is a bijection on {len(p.kappa)} nodes")
    _check(verdicts.values())


@cli.command()
@input_opt
@json_opt
@framing_opt
@click.option("--seed", default=0, show_default=True)
@click.option(
    "--extensions", default=5, show_default=True, type=click.IntRange(min=0),
    help="random linear extensions to cross-check",
)
def hstar(input_path, as_json, framing, seed, extensions) -> None:
    """h-vector from the poset: dcov statistics and shelling restrictions."""
    inst = ample_instance(*_framed(input_path, framing), seed=seed, extensions=extensions)
    verdicts = run_verdicts(inst, HSTAR_VERDICTS)
    agree = verdicts["shelling-h-matches-dcov"].ok
    if as_json:
        _echo(json.dumps({"h": inst.dcov, "shelling_agrees": agree}))
    else:
        _echo(f"h = {inst.dcov} (shelling orders agree: {agree})")
    _check(verdicts.values())


@cli.command()
@input_opt
@json_opt
@framing_opt
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
        _echo(json.dumps(payload))
    else:
        _echo(f"dim = {result.dimension}")
        _echo("counts: " + ", ".join(f"{t}:{c}" for t, c in sorted(result.counts.items())))
        _echo(f"h* = {result.hstar}")
        _echo(", ".join(f"{name}: {flag}" for name, flag in result.flags.items()))
        if "special_simplex" in payload:
            _echo(f"exceptional routes form a special simplex: {payload['special_simplex']}")
    _check(run_verdicts(inst, ("ehrhart-finite-differences-vanish",)).values())


@cli.command()
@input_opt
@json_opt
@framing_opt
@click.option("--seed", default=0, show_default=True)
@max_routes_opt
@max_cliques_opt
def analyze(input_path, as_json, framing, seed, max_routes, max_cliques) -> None:
    """Run the whole pipeline and every cross-check."""
    report = analysis_mod.analyze(
        *_framed(input_path, framing), seed=seed, max_routes=max_routes, max_cliques=max_cliques
    )
    if as_json:
        payload = {key: report.data[key] for key in ("routes", "exceptional", "cliques", "dcov", "hstar", "flags")}
        verdicts = [{"invariant": v.invariant, "ok": v.ok, "detail": v.detail} for v in report.verdicts]
        _echo(json.dumps({**payload, "verdicts": verdicts, "ok": report.ok}))
    else:
        _echo(f"routes: {report.data.get('routes')}")
        _echo(f"exceptional routes: {report.data.get('exceptional')}")
        _echo(f"maximal cliques: {report.data.get('cliques')}")
        _echo(f"dcov: {report.data.get('dcov')}")
        _echo(f"oracle h*: {report.data.get('hstar')}")
        _echo(f"flags: {report.data.get('flags')}")
        for v in report.verdicts:
            mark = "ok " if v.ok else "FAIL"
            _echo(f"  [{mark}] {v.invariant}" + (f" ({v.detail})" if v.detail else ""))
    _check(report.verdicts)


@cli.command()
@click.option("--count", default=25, show_default=True, type=click.IntRange(min=0), help="random instances")
@click.option("--seed", default=0, show_default=True)
@click.option("--size", default=4, show_default=True, type=click.IntRange(min=2), help="inner vertices per instance")
@json_opt
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
        _echo(json.dumps({"instances": count, "failures": failures}))
    else:
        _echo(f"{count} instances, {len(failures)} failures")
        for idx, inv in failures:
            _echo(f"  instance {idx}: {inv}")
    if failures:
        raise ConsistencyError("fuzz-invariants", f"{len(failures)} failures")


def _write_dot(path: str, opening: str, cliques, edge_lines: list[str]) -> None:
    """Write a DOT graph with one node per clique, labelled by its routes."""
    lines = [opening]
    lines.extend(f'  n{i} [label="{" ".join(map(str, c))}"];' for i, c in enumerate(cliques))
    lines.extend(edge_lines)
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as exc:
        _echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except LimitError as exc:
        _echo(f"limit exceeded: {exc}", err=True)
        sys.exit(1)
    except ConsistencyError as exc:
        _echo(f"consistency failure: {exc}", err=True)
        sys.exit(2)
    except FlowpolyError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)


if __name__ == "__main__":
    main()
