"""Command-line front end.

Graph-producing commands (gen, contract) write graph JSON to stdout so they
compose in pipelines; analysis commands read a graph from stdin or --input
and print a report (pretty text, or JSON with --json).

Exit codes: 0 all checks pass, 1 usage or limit errors, 2 a structural
invariant failed on this instance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import analysis as analysis_mod
from .analysis import Instance
from .dag import (
    Dag,
    complete_contraction,
    dag_from_edge_list,
    dag_from_json,
    dag_to_json,
    enumerate_routes,
    is_full,
)
from .errors import ConsistencyError, FlowpolyError, LimitError, NotAmpleError, NotValidError
from .framing import (
    Framing,
    count_ample_framings,
    enumerate_ample_framings,
    framing_from_json,
    framing_to_json,
    named_framing,
    port_table,
    NAMED_FRAMINGS,
)
from .generators import generate, random_valid_dag
from .triangulation import DEFAULT_MAX_CLIQUES, unimodular_by_exchange


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


def _ample_instance(input_path: str | None, framing: str, max_cliques: int = DEFAULT_MAX_CLIQUES) -> Instance:
    """The stages of the graph and framing given; `NotAmpleError` (exit 1) unless the framing is ample."""
    g = _read_graph(input_path)
    inst = Instance(g, _resolve_framing(g, framing), max_cliques=max_cliques)
    if not inst.ample:
        raise NotAmpleError("the framing is not ample: some edge lies on no exceptional route")
    return inst


def _resolve_framing(g: Dag, spec: str) -> Framing:
    if spec in NAMED_FRAMINGS:
        return named_framing(g, spec)
    try:
        text = Path(spec).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"framing {spec!r} is neither a name nor a readable file: {exc}")
    return framing_from_json(g, text)


input_opt = click.option("--input", "-i", "input_path", default=None, help="graph file (default stdin)")
json_opt = click.option("--json", "as_json", is_flag=True, help="machine-readable output")
framing_opt = click.option(
    "--framing", default="by-id", show_default=True, help="named framing or framing JSON file"
)


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
@click.option("--max-routes", default=10**6, show_default=True)
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
    except NotValidError:
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
@click.option("--max-cliques", default=10**6, show_default=True)
def cliques(input_path, as_json, framing, dot_path, max_cliques) -> None:
    """Maximal cliques of the coherence relation, with unimodularity flags."""
    inst = _ample_instance(input_path, framing, max_cliques)
    g, table = inst.g, inst.table
    if not inst.flips_match:
        raise ConsistencyError(
            "flip-traversal-matches-enumeration",
            f"{len(inst.dual.masks)} cliques by flips vs {len(inst.cliques)} by enumeration",
        )
    dg = inst.dual.relabelled()
    cs = dg.cliques  # the enumeration's cliques, decoded in lexicographic order
    # the exchange certificate flags every clique at once
    if not unimodular_by_exchange(g, table, dg):
        raise ConsistencyError("cliques-unimodular", "the flip exchanges do not certify every clique unimodular")
    flags = [True] * len(cs)
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


@cli.command()
@input_opt
@json_opt
@framing_opt
@click.option("--dot", "dot_path", default=None, help="write the Hasse diagram as DOT")
def poset(input_path, as_json, framing, dot_path) -> None:
    """Tau-tilting poset on the dual graph, with brick labels and dcov."""
    inst = _ample_instance(input_path, framing)
    inst.labels  # NotFullError before the flip traversal
    inst.dual = inst.dual.relabelled()  # nodes numbered as printed
    p = inst.poset
    dcov = p.dcov_polynomial()
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
    p = _ample_instance(input_path, framing).poset
    dcov = p.dcov_polynomial()
    agree = p.shelling_agrees(extensions, seed)
    if as_json:
        _echo(json.dumps({"h": dcov, "shelling_agrees": agree}))
    else:
        _echo(f"h = {dcov} (shelling orders agree: {agree})")
    if not agree:
        raise ConsistencyError("shelling-h-matches-dcov", "instance violates the named invariants")


@cli.command()
@input_opt
@json_opt
@framing_opt
def oracle(input_path, as_json, framing) -> None:
    """Ehrhart oracle: lattice-point counts, h*, Gorenstein/unimodal flags."""
    g = _read_graph(input_path)
    inst = Instance(g, _resolve_framing(g, framing))
    result = inst.oracle
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


@cli.command()
@input_opt
@json_opt
@framing_opt
@click.option("--seed", default=0, show_default=True)
@click.option("--max-routes", default=10**6, show_default=True)
@click.option("--max-cliques", default=10**6, show_default=True)
def analyze(input_path, as_json, framing, seed, max_routes, max_cliques) -> None:
    """Run the whole pipeline and every cross-check."""
    g = _read_graph(input_path)
    f = _resolve_framing(g, framing)
    report = analysis_mod.analyze(
        g, f, seed=seed, max_routes=max_routes, max_cliques=max_cliques
    )
    if as_json:
        _echo(
            json.dumps(
                {
                    "routes": report.data.get("routes"),
                    "exceptional": report.data.get("exceptional"),
                    "cliques": report.data.get("cliques"),
                    "dcov": report.data.get("dcov"),
                    "hstar": report.data.get("hstar"),
                    "flags": report.data.get("flags"),
                    "verdicts": [
                        {"invariant": v.invariant, "ok": v.ok, "detail": v.detail}
                        for v in report.verdicts
                    ],
                    "ok": report.ok,
                }
            )
        )
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
    if not report.ok:
        failed = ", ".join(v.invariant for v in report.failed())
        raise ConsistencyError(failed, "instance violates the named invariants")


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
