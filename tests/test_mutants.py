"""The mutation kill matrix (DeMillo-Lipton-Sayward, "Hints on test data
selection", Computer 1978).

Each row breaks one stage of the pipeline, deterministically, by patching
it, runs `flowpoly.cli.main` in-process on contracted gkn(2,9) and car 10,
and expects exit 2 with the row's invariant named on stderr: among the
failed verdicts that `analyze` or a checking subcommand ran, or as the
invariant of a raised `ConsistencyError`.  An equivalent mutant changes no
output.

Three verdicts hold by construction, so a mutant fails them only by
breaking what they read: `shelling-h-matches-dcov` (the shelling h-vector
is the down-cover polynomial once an order is a linear extension),
`support-tau-tilting-matches-cliques` (the collections are the cliques
whenever the rigidity rows equal the coherence rows) and
`kappa-swaps-cover-statistics` (kappa maps each node to the node whose
up-cover bricks are its down-cover bricks, and a node's bricks are
distinct each way, so the two degrees agree; only the patched-kappa row
fails it).  `cliques-contain-exceptionals` compares two computations: the
exceptional routes that the coherence table reads off its ranks, and the
routes whose coherence rows are full.

Run as a script, `python [-O] tests/test_mutants.py ROW` applies one row's
mutation and prints, per graph and command, a JSON line [graph, command,
exit code, named invariants]; `test_guards_hold_under_python_O` runs it
under `-O`, which drops `assert` statements, for the rows in GUARDS.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

import flowpoly
import flowpoly.analysis as analysis
import flowpoly.cli as cli
import flowpoly.ehrhart as ehrhart
import flowpoly.framing as framing
import flowpoly.gentle as gentle
import flowpoly.poset as poset
import flowpoly.triangulation as triangulation
from flowpoly.dag import complete_contraction, dag_to_json
from flowpoly.generators import generate

GRAPHS = {"gkn(2,9)": ("gkn", [2, 9]), "car 10": ("car", [10])}

Patch = Callable[[object, str, object], None]  # setattr, undone after the run


def _wrap(patch: Patch, owner, name: str, change: Callable) -> None:
    """Patch `owner.name` to return change(result, *args)."""
    original = getattr(owner, name)
    patch(owner, name, lambda *args, **kwargs: change(original(*args, **kwargs), *args))


def _cached(patch: Patch, owner: type, name: str, change: Callable) -> None:
    """Patch the cached property `owner.name` to hold change(self, value)."""
    original = owner.__dict__[name].func
    prop = functools.cached_property(lambda self: change(self, original(self)))
    prop.__set_name__(owner, name)
    patch(owner, name, prop)


def _swap(items: list, i: int, j: int) -> list:
    items = list(items)
    items[i], items[j] = items[j], items[i]
    return items


def _poset(p: poset.TauPoset, lo=None, hi=None, brick=None) -> poset.TauPoset:
    """p with some columns replaced, built after `build_poset` certified p."""
    return poset.TauPoset(tuple(lo or p.lo), tuple(hi or p.hi), tuple(brick or p.brick), p.bricks, p.dual)


def drop_coherence_bit(table, adj: list[int]) -> list[int]:
    """Clear the first coherent pair of non-exceptional routes."""
    return _toggle_coherence_bit(adj, 1)


def add_coherence_bit(table, adj: list[int]) -> list[int]:
    """Set the first conflicting pair of non-exceptional routes."""
    return _toggle_coherence_bit(adj, 0)


def _toggle_coherence_bit(adj: list[int], bit: int) -> list[int]:
    """Toggle the first pair of non-exceptional routes whose coherence bit is `bit`."""
    full = (1 << len(adj)) - 1
    live = [i for i, row in enumerate(adj) if row | 1 << i != full]
    i, j = next((i, j) for i in live for j in live if i < j and adj[i] >> j & 1 == bit)
    adj = list(adj)
    adj[i] ^= 1 << j
    adj[j] ^= 1 << i
    return adj


def set_kiss_bit(kiss: list[int], quiver, objects) -> list[int]:
    """Set the first clear bit between two objects."""
    live = [i for i, o in enumerate(objects) if o is not None]
    i, j = next((i, j) for i in live for j in live if i != j and not kiss[i] >> j & 1)
    return [row | (1 << j if k == i else 0) for k, row in enumerate(kiss)]


def clear_kiss_bit(kiss: list[int], quiver, objects) -> list[int]:
    """Clear the lowest bit of the first nonzero row."""
    i = next(i for i, row in enumerate(kiss) if row)
    return [row & row - 1 if k == i else row for k, row in enumerate(kiss)]


def swap_modules(inst, phi: list) -> list:
    i, j = [k for k, m in enumerate(phi) if m is not None][:2]
    return _swap(phi, i, j)


def swap_kappa_images(p, kappa: list[int]) -> list[int]:
    """Swap the images of node 0 and the first node of another down-degree."""
    j = next(j for j, d in enumerate(p.down_degrees) if d != p.down_degrees[0])
    return _swap(kappa, 0, j)


def swap_down_degrees(p, *args) -> poset.TauPoset:
    """Swap the down-degrees of node 0 and the first node with another one."""
    degrees = p.down_degrees
    p.down_degrees = _swap(degrees, 0, next(j for j, d in enumerate(degrees) if d != degrees[0]))
    return p


def swap_labels(labels: dict, g, f) -> dict:
    """Swap the labels of the out-edges of the first inner vertex."""
    a, b = g.out_edges[g.inner[0]]
    return {**labels, a: labels[b], b: labels[a]}


def bump_count(counts: dict, *args) -> dict:
    return {**counts, 2: counts[2] + 1}


def leaving_route_as_swap(dual, *args):
    dual.pairs[0] = dual.pairs[0]._replace(swap=dual.pairs[0].leaving)
    return dual


def wrong_candidate(patch: Patch) -> None:
    """Append the inverse of the last letter, which cancels it, to every
    candidate list."""
    original = gentle._candidates
    patch(gentle, "_candidates", lambda q, w, direct: [*original(q, w, direct), (w[-1][0], -w[-1][1])])


@dataclass(frozen=True)
class Mutant:
    stage: str
    mutation: str
    # expected; per graph or per command where they differ; None if equivalent
    invariant: str | dict[str, str] | None
    apply: Callable[[Patch], None]
    commands: tuple[str, ...] = ("analyze",)

    def expected(self, graph: str, command: str) -> str:
        if isinstance(self.invariant, str):
            return self.invariant
        return self.invariant.get(graph) or self.invariant[command]


KILLS = {
    "clique-dropped": Mutant(
        "triangulation", "one Bron-Kerbosch clique dropped", "flip-traversal-matches-enumeration",
        lambda p: _wrap(p, analysis, "clique_masks", lambda masks, *a: masks[1:]), ("analyze", "cliques"),
    ),
    "swap-is-leaving-route": Mutant(
        "triangulation", "one swap replaced by the leaving route", "cliques-unimodular",
        lambda p: _wrap(p, analysis, "maximal_cliques_by_flips", leaving_route_as_swap), ("analyze", "cliques"),
    ),
    "dimension-off": Mutant(
        "triangulation", "flow_dims off by one", "cliques-are-simplices",
        lambda p: _wrap(p, triangulation, "flow_dims", lambda dims, g: (dims[0] + 1, dims[1] + 1)),
        ("analyze", "cliques"),
    ),
    "coherence-bit-dropped": Mutant(
        "framing", "one coherence bit dropped", "unique-flip-neighbor",
        lambda p: _cached(p, framing.CoherenceTable, "adjacency", drop_coherence_bit), ("analyze", "cliques"),
    ),
    "coherence-bit-added": Mutant(
        "framing", "one conflicting pair made coherent", "unique-flip-neighbor",
        lambda p: _cached(p, framing.CoherenceTable, "adjacency", add_coherence_bit), ("analyze", "cliques"),
    ),
    "extensions-reversed": Mutant(
        "poset", "the random linear extensions reversed", "shelling-h-matches-dcov",
        lambda p: _wrap(p, poset.TauPoset, "random_linear_extensions", lambda exts, *a: [e[::-1] for e in exts]),
        ("analyze", "hstar"),
    ),
    "dcov-h1-raised": Mutant(
        "poset", "h_1 of the down-cover polynomial raised by 1",
        {"analyze": "hstar-matches-dcov", "poset": "dcov-palindromic", "hstar": "dcov-palindromic"},
        lambda p: _wrap(p, poset.TauPoset, "dcov_polynomial", lambda h, *a: [h[0], h[1] + 1, *h[2:]]),
        ("analyze", "poset", "hstar"),
    ),
    "kappa-images-swapped": Mutant(
        "poset", "two kappa images swapped", "kappa-swaps-cover-statistics",
        lambda p: _cached(p, poset.TauPoset, "kappa", swap_kappa_images), ("analyze", "poset"),
    ),
    "hasse-edge-reversed": Mutant(
        "poset", "Hasse edge 0 reversed after certification",
        {"gkn(2,9)": "up-bricks-determine-node", "car 10": "kappa-total"},
        lambda p: _wrap(
            p, analysis, "build_poset", lambda q, *a: _poset(q, (q.hi[0], *q.lo[1:]), (q.lo[0], *q.hi[1:]))
        ),
    ),
    "brick-changed": Mutant(
        "poset", "the brick of Hasse edge 0 changed", "cover-bricks-distinct",
        lambda p: _wrap(
            p, analysis, "build_poset", lambda q, *a: _poset(q, brick=((q.brick[0] + 1) % len(q.bricks), *q.brick[1:]))
        ),
    ),
    "down-degrees-swapped": Mutant(
        "poset", "two down-degrees swapped", "order-closure-acyclic",
        lambda p: _wrap(p, analysis, "build_poset", swap_down_degrees), ("analyze", "hstar"),
    ),
    "object-dropped": Mutant(
        "gentle", "one gentle object dropped", "objects-match-nonexceptional-routes",
        lambda p: _wrap(p, analysis, "objects_t", lambda objects, *a: objects[:-1]),
    ),
    "kiss-bit-set": Mutant(
        "gentle", "one kiss bit set", "hasse-edges-follow-kissing-order",
        lambda p: _wrap(p, analysis, "object_kisses", set_kiss_bit), ("analyze", "poset"),
    ),
    "kiss-bit-cleared": Mutant(
        "gentle", "one kiss bit cleared", "oriented-dual-edges-are-covers",
        lambda p: _wrap(p, analysis, "object_kisses", clear_kiss_bit), ("analyze", "poset"),
    ),
    "modules-swapped": Mutant(
        "gentle", "two modules swapped in phi", "hasse-edges-follow-kissing-order",
        lambda p: _cached(p, analysis.Instance, "phi", swap_modules),
    ),
    "labels-swapped": Mutant(
        "gentle", "the edge labels swapped at one inner vertex", "route-module-bijection",
        lambda p: _wrap(p, analysis, "edge_labeling", swap_labels), ("analyze", "poset"),
    ),
    "wrong-candidate": Mutant(
        "gentle", "a second, wrong candidate from _candidates", "blossom-extension-unique", wrong_candidate,
    ),
    "count-bumped": Mutant(
        "ehrhart", "a lattice count raised by 1 at t = 2", "hstar-nonnegative",
        lambda p: _wrap(p, ehrhart, "flow_count_table", bump_count), ("analyze", "oracle"),
    ),
}

# Equivalent mutants, with the reason that no check can tell them apart.
EQUIVALENT = {
    "swaps-exchanged": (
        Mutant(
            "triangulation", "the two swaps of every pair exchanged", None,
            lambda p: _wrap(p, triangulation, "_swaps", lambda swaps, *a: swaps[::-1]), ("analyze", "cliques"),
        ),
        "the exchange identity r + r' = s + s' is symmetric in s and s'",
    ),
}

# Rows whose invariants are guarded in `gentle`, `ehrhart` and `triangulation`
# by checks that must survive `python -O`.
GUARDS = ("count-bumped", "labels-swapped", "dimension-off", "wrong-candidate")


@contextlib.contextmanager
def mutated(row: Mutant):
    saved = []

    def patch(owner, name: str, value) -> None:
        saved.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    try:
        row.apply(patch)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def run(argv: list[str], stdin: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `flowpoly <argv>` in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv, sys.stdin
    sys.argv, sys.stdin = ["flowpoly", *argv], io.StringIO(stdin)
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main()
    except SystemExit as stop:
        code = stop.code
    finally:
        sys.argv, sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def named(err: str) -> list[str]:
    """The invariants that a `consistency failure:` line names."""
    prefix = "consistency failure: "
    return err[len(prefix) :].split(": ", 1)[0].strip().split(", ") if err.startswith(prefix) else []


def graph_texts() -> dict[str, str]:
    return {name: dag_to_json(complete_contraction(generate(*spec)).result) for name, spec in GRAPHS.items()}


def outcomes(row: Mutant, texts: dict[str, str]):
    """(graph, command, exit code, stdout, named invariants) of each run of the row."""
    for graph, text in texts.items():
        for command in row.commands:
            with mutated(row):
                code, out, err = run([command, "--json"], text)
            yield graph, command, code, out, named(err)


@pytest.fixture(scope="module")
def texts() -> dict[str, str]:
    return graph_texts()


@pytest.mark.parametrize("key", KILLS)
def test_every_mutant_exits_2_naming_its_invariant(key, texts):
    row = KILLS[key]
    for graph, command, code, out, names in outcomes(row, texts):
        assert (code, row.expected(graph, command) in names) == (2, True), (graph, command, code, names)
        if command == "analyze" and out:  # a payload: its failed verdicts are the ones named
            assert names == [v["invariant"] for v in json.loads(out)["verdicts"] if not v["ok"]]


@pytest.mark.parametrize("key", EQUIVALENT)
def test_equivalent_mutants_change_no_output(key, texts):
    row, _reason = EQUIVALENT[key]
    for graph, command, code, out, names in outcomes(row, texts):
        assert (code, out) == run([command, "--json"], texts[graph])[:2], (graph, command)


def test_guards_hold_under_python_O(texts):
    src = Path(flowpoly.__file__).resolve().parents[1]
    for key in GUARDS:
        res = subprocess.run(
            [sys.executable, "-O", __file__, key],
            capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert res.returncode == 0, res.stderr
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        assert len(lines) == len(texts) * len(KILLS[key].commands)
        for graph, command, code, names in lines:
            assert (code, KILLS[key].expected(graph, command) in names) == (2, True), (key, graph, command, code, names)


def test_no_assert_statement_in_the_package():
    # an invariant guarded by `assert` vanishes under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(flowpoly.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


if __name__ == "__main__":
    for graph, command, code, _out, names in outcomes(KILLS[sys.argv[1]], graph_texts()):
        print(json.dumps([graph, command, code, names]))
