"""End-to-end analysis of a framed DAG with every cross-check verdict.

Each verdict pairs an invariant name with a boolean; the CLI turns a failed
verdict into exit code 2.  The checks deliberately pit independent
computations against each other: clique enumeration vs flip traversal,
down-cover statistics vs the lattice-point oracle, coherence vs
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
whose maximal cliques `clique_masks` has already enumerated.  `analyze`
compares the rows, and runs a second enumeration only when they differ,
to report how far the collections are off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import Sequence

from .dag import DEFAULT_MAX_ROUTES, Dag, enumerate_routes, flow_dims, is_full
from .ehrhart import ehrhart_oracle, finite_differences_vanish, special_simplex_check
from .errors import NotFullError
from .framing import (
    CoherenceTable,
    Framing,
    adjacency_graph,
    edge_labeling,
    is_ample,
    route_weight,
)
from .gentle import (
    blossom,
    build_quiver,
    gentleness_violations,
    module_to_route,
    object_kisses,
    objects_t,
    rigidity_rows,
    route_to_module,
)
from .poset import build_poset
# maximal_cliques stays bound here: perfbench/test_perfbench.py reads analysis.maximal_cliques
from .triangulation import (
    DEFAULT_MAX_CLIQUES,
    bron_kerbosch,
    clique_masks,
    maximal_cliques,
    maximal_cliques_by_flips,
    unimodular_by_exchange,
)


@dataclass
class Instance:
    """The stages of the pipeline on the framed DAG (g, f), each built on first use
    and then kept: `cliques` (sorted route bitmasks) by Bron-Kerbosch, `dual` by the
    flip traversal, whose masks are distinct, so `flips_match` is multiset equality.
    Fullness is not checked here: `labels` raises `NotFullError`, so `poset` reads
    them before it enumerates anything, and the clique stages run on any DAG."""

    g: Dag
    f: Framing
    max_routes: int = DEFAULT_MAX_ROUTES
    max_cliques: int = DEFAULT_MAX_CLIQUES

    table = cached_property(
        lambda self: CoherenceTable(self.g, self.f, enumerate_routes(self.g, self.max_routes))
    )
    ample = cached_property(lambda self: is_ample(self.table))
    labels = cached_property(lambda self: edge_labeling(self.g, self.f))
    cliques = cached_property(lambda self: clique_masks(self.table, self.max_cliques))
    dual = cached_property(lambda self: maximal_cliques_by_flips(self.table, self.max_cliques))
    flips_match = cached_property(
        lambda self: len(self.cliques) == len(self.dual.masks) and set(self.cliques).issuperset(self.dual.masks)
    )
    quiver = cached_property(lambda self: build_quiver(self.g, self.f, self.labels))
    blossom_quiver = cached_property(lambda self: blossom(self.quiver))
    oracle = cached_property(lambda self: ehrhart_oracle(self.g))

    @cached_property
    def phi(self) -> list:
        """The object of each route, by route index; None at the exceptional routes."""
        exc = set(self.table.exceptional_indices)
        return [None if i in exc else route_to_module(self.g, self.labels, r) for i, r in enumerate(self.table.routes)]

    # the kiss table over routes; exceptional routes' rows and columns are 0
    kiss = cached_property(lambda self: object_kisses(self.blossom_quiver, self.phi))

    @cached_property
    def poset(self):
        labels = self.labels  # before the flip traversal: it raises on a DAG that is not full
        return build_poset(self.table, self.dual, labels, self.kiss)

    @cached_property
    def special_simplex(self):
        routes = self.table.routes
        return special_simplex_check(self.g, [routes[i] for i in self.table.exceptional_indices], routes)


@dataclass
class Verdict:
    invariant: str
    ok: bool
    detail: str = ""


@dataclass
class AnalysisReport:
    graph: Dag
    table: CoherenceTable
    verdicts: list[Verdict] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def check(self, invariant: str, ok: bool, detail: str = "") -> None:
        self.verdicts.append(Verdict(invariant, bool(ok), detail))

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
    if not is_full(g):
        raise NotFullError("analyze needs a full DAG; run `flowpoly contract` first")
    inst = Instance(g, f, max_routes, max_cliques)
    table = inst.table
    report = AnalysisReport(g, table)
    d_space, d_poly = flow_dims(g)
    routes = table.routes
    exc = list(table.exceptional_indices)
    report.data["routes"] = len(routes)
    report.data["exceptional"] = len(exc)
    report.data["dims"] = (d_space, d_poly)
    report.data["ample"] = inst.ample
    report.check("framing-ample", inst.ample)
    labels = inst.labels
    report.data["labels"] = labels

    # exceptional structure
    src_deg = sum(len(g.out_edges[s]) for s in g.sources)
    snk_deg = sum(len(g.in_edges[t]) for t in g.sinks)
    report.check(
        "exceptional-count-source-degree",
        len(exc) == src_deg == snk_deg,
        f"{len(exc)} vs {src_deg}/{snk_deg}",
    )
    simplex = inst.special_simplex
    report.check("unique-exceptional-route-per-edge", not (simplex.uncovered or simplex.multiply_covered))
    report.check(
        "exceptional-routes-label-constant",
        all(len(set(route_weight(g, labels, routes[i]))) == 1 for i in exc),
    )
    bip, _ = adjacency_graph(g, [routes[i] for i in exc]).is_bipartite()
    report.check("exceptional-adjacency-bipartite", bip)

    # triangulation
    cliques = inst.cliques
    report.data["cliques"] = len(cliques)
    # exceptional rows are full: both enumerations rely on it, neither sets it
    adj = table.adjacency
    full = (1 << len(routes)) - 1
    report.check(
        "cliques-contain-exceptionals",
        all(adj[i] | 1 << i == full for i in exc),
    )
    report.check(
        "cliques-are-simplices",
        set(map(int.bit_count, cliques)) <= {d_poly + 1},
    )
    # the flip traversal's records are the dual graph; by the exchange
    # argument they carry one determinant to every clique they reach, and
    # those are all the cliques when the two enumerations agree
    flips_match = inst.flips_match
    report.check(
        "cliques-unimodular",
        flips_match and unimodular_by_exchange(g, table, inst.dual),
    )
    report.check("flip-traversal-matches-enumeration", flips_match)
    poset = inst.poset
    report.data["poset"] = poset
    n_inner = len(g.inner)
    dcovs, ucovs = poset.down_degrees, poset.up_degrees
    report.check(
        "dual-graph-regular",
        set(map(add, dcovs, ucovs)) <= {n_inner},
        f"expected degree {n_inner}",
    )

    # poset
    dcov = poset.dcov_polynomial()
    report.data["dcov"] = dcov
    report.check("dcov-palindromic", dcov == dcov[::-1])
    report.check("dcov-total", sum(dcov) == len(cliques))
    report.check(
        "dcov-extremes",
        dcov[0] == 1 and dcov[-1] == 1 and len(dcov) == n_inner + 1,
    )
    report.check("shelling-h-matches-dcov", poset.shelling_agrees(extensions, seed))
    kappa = poset.kappa  # node i maps to kappa[i], in node order
    report.check(
        "kappa-swaps-cover-statistics",
        dcovs == list(map(ucovs.__getitem__, kappa.values())),
    )

    # gentle algebra
    quiver, phi = inst.quiver, inst.phi
    modules = [m for m in phi if m is not None]
    report.check("quiver-gentle", not gentleness_violations(quiver))
    report.check("blossom-gentle", not gentleness_violations(inst.blossom_quiver))
    objs = objects_t(quiver)
    report.check(
        "objects-match-nonexceptional-routes",
        len(objs) == len(modules),
        f"{len(objs)} objects vs {len(modules)} routes",
    )
    report.check(
        "route-module-bijection",
        sorted(map(str, modules)) == sorted(map(str, objs))
        and all(module_to_route(g, labels, m) == r for m, r in zip(phi, routes) if m is not None),
    )
    # tau-rigidity of the routes' objects, against coherence among the
    # non-exceptional routes
    rest = full ^ sum(1 << i for i in exc)
    rigid = rigidity_rows(inst.kiss, phi)
    coherent = [0 if m is None else row & rest for m, row in zip(phi, adj)]
    report.check("rigidity-matches-coherence", rigid == coherent)
    if rigid == coherent:
        # equal graphs have equal maximal cliques, and `cliques` are
        # those of the coherence rows
        same, n_coll = True, len(cliques)
        n_cliques = n_coll
    else:
        collections = set(bron_kerbosch(rigid, rest, max_cliques))
        clique_sets = {c & rest for c in cliques}
        same, n_coll, n_cliques = collections == clique_sets, len(collections), len(clique_sets)
        del collections, clique_sets  # free them before the oracle
    report.check(
        "support-tau-tilting-matches-cliques",
        same,
        f"{n_coll} collections vs {n_cliques} cliques",
    )

    # lattice point oracle
    oracle = inst.oracle
    counts = oracle.counts
    report.data["counts"] = counts
    report.check("route-count-is-vertex-count", counts[1] == len(routes))
    report.data["hstar"] = oracle.hstar
    report.check("hstar-matches-dcov", _pad_eq(dcov, oracle.hstar))
    report.check("hstar-volume-is-clique-count", sum(oracle.hstar) == len(cliques))
    report.data["flags"] = oracle.flags
    report.check("hstar-palindromic-gorenstein", oracle.symmetric and oracle.gorenstein)
    report.check("hstar-unimodal", oracle.unimodal)
    report.check(
        "ehrhart-finite-differences-vanish",
        finite_differences_vanish(counts, d_poly),
    )
    report.data["special_simplex"] = simplex
    report.check("exceptionals-form-special-simplex", simplex.ok)

    return report


def _pad_eq(a: Sequence[int], b: Sequence[int]) -> bool:
    n = max(len(a), len(b))
    pa = list(a) + [0] * (n - len(a))
    pb = list(b) + [0] * (n - len(b))
    return pa == pb
