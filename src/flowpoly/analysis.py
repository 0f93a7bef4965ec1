"""End-to-end analysis of a framed DAG with every cross-check verdict.

`VERDICTS` is the one table of checks: each invariant name, in report
order, maps to a check that reads an `Instance` and returns ok or (ok,
detail).  `analyze` runs the whole table; the `cliques`, `poset`, `hstar`
and `oracle` commands run the named rows whose stages they print, and the
CLI turns a failed verdict into exit code 2.  The checks deliberately pit
independent computations against each other: clique enumeration vs flip
traversal, down-cover statistics vs the lattice-point oracle, coherence vs
tau-rigidity.  Unimodularity is one determinant carried across the flip
records: on each dual edge the leaving and entering routes r, r' have
swaps s, s' on the shared ridge with r + r' = s + s', so the two cliques'
determinants differ only in sign.  Shelling restrictions equal the
down-cover statistics on every linear extension, so that comparison
checks only the extensions.

Every stage is keyed by route index; `phi` is None at the exceptional
routes.  The routes' blossom walks are extended once; their kiss table
serves the gentle block and `build_poset`, which certifies its covers
from it: no route kisses a coherent one (C1), and across each Hasse edge
the entering route kisses the leaving one, not back (C2).  The non-kissing order is
inclusion of torsion classes (Adachi-Iyama-Reiten 2014; Palu-Pilaud-
Plamondon 2021), hence transitive, so C1 and C2 rule out implied edges.

Support tau-tilting collections are the maximal cliques of the
tau-rigidity graph on the objects.  A graph is the union of its maximal
cliques: two graphs on one vertex set with the same maximal cliques have
the same edges.  So the collections match the triangulation's cliques iff
the rigidity rows equal the coherence rows on the non-exceptional routes,
whose maximal cliques `clique_masks` has already enumerated.  The check
compares the rows, and runs a second enumeration only when they differ,
to report how far the collections are off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest
from operator import add
from typing import Callable, Iterable

from .dag import DEFAULT_MAX_ROUTES, Dag, enumerate_routes, flow_dims, is_full
from .ehrhart import ehrhart_oracle, finite_differences_vanish, special_simplex_check
from .errors import FramingError, GraphError, NotFullError
from .framing import CoherenceTable, Framing, adjacency_graph, edge_labeling, exceptional_routes, is_ample
from .gentle import (
    blossom, build_quiver, gentleness_violations, module_to_route, object_kisses, objects_t, rigidity_rows,
    route_to_module,
)
from .poset import build_poset
# maximal_cliques stays bound here: perfbench/test_perfbench.py reads analysis.maximal_cliques
from .triangulation import (
    DEFAULT_MAX_CLIQUES, bron_kerbosch, clique_masks, maximal_cliques, maximal_cliques_by_flips, unimodular_by_exchange,
)


@dataclass
class Instance:
    """The stages of the pipeline on the framed DAG (g, f), each built on first use
    and then kept: `cliques` (sorted route bitmasks) by Bron-Kerbosch, `dual` by the
    flip traversal, whose masks are distinct, so `flips_match` is multiset equality.
    `full_instance` gates on fullness; the clique stages run on any DAG.  A graph
    without edges has no route, hence no polytope: `GraphError`.  `seed` and
    `extensions` pick the linear extensions that `shelling-h-matches-dcov` draws."""

    g: Dag
    f: Framing
    max_routes: int = DEFAULT_MAX_ROUTES
    max_cliques: int = DEFAULT_MAX_CLIQUES
    seed: int = 0
    extensions: int = 5

    def __post_init__(self) -> None:
        if not self.g.edges:
            raise GraphError("the graph has no edges")

    table = cached_property(
        lambda self: CoherenceTable(self.g, self.f, enumerate_routes(self.g, self.max_routes))
    )
    ample = cached_property(lambda self: is_ample(self.table))
    exceptional = cached_property(lambda self: self.table.exceptional_indices)
    labels = cached_property(lambda self: edge_labeling(self.g, self.f))
    cliques = cached_property(lambda self: clique_masks(self.table, self.max_cliques))
    dual = cached_property(lambda self: maximal_cliques_by_flips(self.table, self.max_cliques))
    flips_match = cached_property(
        lambda self: len(self.cliques) == len(self.dual.masks) and set(self.cliques).issuperset(self.dual.masks)
    )
    quiver = cached_property(lambda self: build_quiver(self.g, self.f, self.labels))
    blossom_quiver = cached_property(lambda self: blossom(self.quiver))
    objects = cached_property(lambda self: objects_t(self.quiver))
    oracle = cached_property(lambda self: ehrhart_oracle(self.g))
    special_simplex = cached_property(
        lambda self: special_simplex_check(self.g, exceptional_routes(self.table), self.table.routes)
    )

    @cached_property
    def phi(self) -> list:
        """The object of each route, by route index; None at the exceptional routes."""
        exc = set(self.exceptional)
        return [None if i in exc else route_to_module(self.g, self.labels, r) for i, r in enumerate(self.table.routes)]

    # the kiss table over routes; exceptional routes' rows and columns are 0
    kiss = cached_property(lambda self: object_kisses(self.blossom_quiver, self.phi))
    rigid = cached_property(lambda self: rigidity_rows(self.kiss, self.phi))
    # the coherence rows of the non-exceptional routes
    coherent = cached_property(
        lambda self: [0 if m is None else row & self.table.live for m, row in zip(self.phi, self.table.adjacency)]
    )

    poset = cached_property(lambda self: build_poset(self.table, self.dual, self.labels, self.kiss))

    dcov = cached_property(lambda self: self.poset.dcov_polynomial())


def ample_instance(g: Dag, f: Framing, **options: int) -> Instance:
    """The stages of (g, f), with `Instance`'s limits and draws as options;
    `FramingError` (exit 1) unless the framing is ample."""
    inst = Instance(g, f, **options)
    if not inst.ample:
        raise FramingError("the framing is not ample: some edge lies on no exceptional route")
    return inst


def full_instance(g: Dag, f: Framing, **options: int) -> Instance:
    """`ample_instance` of a full DAG, else `NotFullError`: the gate of `analyze`, `poset` and `hstar`."""
    if not is_full(g):
        raise NotFullError("the graph is not full; run `flowpoly contract` first")
    return ample_instance(g, f, **options)


def _exceptional_count(inst: Instance):
    g, n = inst.g, len(inst.exceptional)
    src = sum(len(g.out_edges[s]) for s in g.sources)
    snk = sum(len(g.in_edges[t]) for t in g.sinks)
    return n == src == snk, f"{n} vs {src}/{snk}"


def _dual_regular(inst: Instance):
    p, n = inst.poset, len(inst.g.inner)
    return set(map(add, p.down_degrees, p.up_degrees)) <= {n}, f"expected degree {n}"


def _objects_match(inst: Instance):
    n = sum(m is not None for m in inst.phi)
    return len(inst.objects) == n, f"{len(inst.objects)} objects vs {n} routes"


def _bijection(inst: Instance) -> bool:
    modules = [m for m in inst.phi if m is not None]
    return sorted(map(str, modules)) == sorted(map(str, inst.objects)) and all(
        module_to_route(inst.g, inst.labels, m) == r for m, r in zip(inst.phi, inst.table.routes) if m is not None
    )


def _collections_match(inst: Instance):
    if inst.rigid == inst.coherent:
        # equal graphs have equal maximal cliques, and `cliques` are those of the coherence rows
        return True, f"{len(inst.cliques)} collections vs {len(inst.cliques)} cliques"
    collections = set(bron_kerbosch(inst.rigid, inst.table.live, inst.max_cliques))
    cliques = {c & inst.table.live for c in inst.cliques}
    return collections == cliques, f"{len(collections)} collections vs {len(cliques)} cliques"


# The verdicts in report order: README and `analyze --json` fix the names and the order.
VERDICTS: dict[str, Callable[[Instance], object]] = {
    "framing-ample": lambda inst: inst.ample,
    "exceptional-count-source-degree": _exceptional_count,
    "unique-exceptional-route-per-edge": lambda inst: not (
        inst.special_simplex.uncovered or inst.special_simplex.multiply_covered
    ),
    "exceptional-routes-label-constant": lambda inst: all(
        len({inst.labels[e] for e in inst.table.routes[i]}) == 1 for i in inst.exceptional
    ),
    "exceptional-adjacency-bipartite": lambda inst: adjacency_graph(
        inst.g, [inst.table.routes[i] for i in inst.exceptional]
    ).is_bipartite()[0],
    # two computations: the rank rule's exceptional routes are the routes whose coherence rows are full
    "cliques-contain-exceptionals": lambda inst: inst.exceptional == tuple(
        i for i, row in enumerate(inst.table.adjacency) if (row | 1 << i).bit_count() == len(inst.table.routes)
    ),
    "cliques-are-simplices": lambda inst: set(map(int.bit_count, inst.cliques)) <= {flow_dims(inst.g)[1] + 1},
    # the flip traversal's records are the dual graph; by the exchange
    # argument they carry one determinant to every clique they reach, and
    # those are all the cliques when the two enumerations agree
    "cliques-unimodular": lambda inst: inst.flips_match and unimodular_by_exchange(inst.g, inst.table, inst.dual),
    "flip-traversal-matches-enumeration": lambda inst: inst.flips_match,
    "dual-graph-regular": _dual_regular,
    "dcov-palindromic": lambda inst: inst.dcov == inst.dcov[::-1],
    "dcov-total": lambda inst: sum(inst.dcov) == len(inst.cliques),
    "dcov-extremes": lambda inst: inst.dcov[0] == inst.dcov[-1] == 1 and len(inst.dcov) == len(inst.g.inner) + 1,
    "shelling-h-matches-dcov": lambda inst: inst.poset.shelling_agrees(inst.extensions, inst.seed),
    "kappa-swaps-cover-statistics": lambda inst: inst.poset.down_degrees == [
        inst.poset.up_degrees[j] for j in inst.poset.kappa  # node i maps to kappa[i], in node order
    ],
    "quiver-gentle": lambda inst: not gentleness_violations(inst.quiver),
    "blossom-gentle": lambda inst: not gentleness_violations(inst.blossom_quiver),
    "objects-match-nonexceptional-routes": _objects_match,
    "route-module-bijection": _bijection,
    # tau-rigidity of the routes' objects, against coherence among the non-exceptional routes
    "rigidity-matches-coherence": lambda inst: inst.rigid == inst.coherent,
    "support-tau-tilting-matches-cliques": _collections_match,
    "route-count-is-vertex-count": lambda inst: inst.oracle.counts[1] == len(inst.table.routes),
    "hstar-matches-dcov": lambda inst: all(a == b for a, b in zip_longest(inst.dcov, inst.oracle.hstar, fillvalue=0)),
    "hstar-volume-is-clique-count": lambda inst: sum(inst.oracle.hstar) == len(inst.cliques),
    "hstar-palindromic-gorenstein": lambda inst: inst.oracle.symmetric and inst.oracle.gorenstein,
    "hstar-unimodal": lambda inst: inst.oracle.unimodal,
    "ehrhart-finite-differences-vanish": lambda inst: finite_differences_vanish(
        inst.oracle.counts, inst.oracle.dimension
    ),
    "exceptionals-form-special-simplex": lambda inst: inst.special_simplex.ok,
}


@dataclass
class Verdict:
    invariant: str
    ok: bool
    detail: str = ""


def run_verdicts(inst: Instance, names: Iterable[str] = VERDICTS) -> dict[str, Verdict]:
    """The named verdicts on inst, run in the order given."""
    verdicts = {}
    for name in names:
        result = VERDICTS[name](inst)
        ok, detail = result if isinstance(result, tuple) else (result, "")
        verdicts[name] = Verdict(name, bool(ok), detail)
    return verdicts


@dataclass
class AnalysisReport:
    table: CoherenceTable
    verdicts: list[Verdict] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def failed(self) -> list[Verdict]:
        return [v for v in self.verdicts if not v.ok]


def analyze(
    g: Dag,
    f: Framing,
    seed: int = 0,
    extensions: int = 5,
    max_routes: int = DEFAULT_MAX_ROUTES,
    max_cliques: int = DEFAULT_MAX_CLIQUES,
) -> AnalysisReport:
    """The gate, then every verdict of the table, then the report's data."""
    inst = full_instance(g, f, max_routes=max_routes, max_cliques=max_cliques, seed=seed, extensions=extensions)
    verdicts = list(run_verdicts(inst).values())
    data = {"routes": len(inst.table.routes), "exceptional": len(inst.exceptional), "cliques": len(inst.cliques),
            "poset": inst.poset, "dcov": inst.dcov, "hstar": inst.oracle.hstar, "flags": inst.oracle.flags}
    return AnalysisReport(inst.table, verdicts, data)
