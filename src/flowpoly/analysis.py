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

The routes' blossom walks are extended once; their kiss table serves the
gentle block and `build_poset`, which certifies its covers from it: no
route kisses a coherent one (C1), and across each Hasse edge the entering
route kisses the leaving one, not back (C2).  The non-kissing order is
inclusion of torsion classes (Adachi-Iyama-Reiten 2014; Palu-Pilaud-
Plamondon 2021), hence transitive, so C1 and C2 rule out implied edges.

Support tau-tilting collections are the maximal cliques of the
tau-rigidity graph on the objects.  A graph is the union of its maximal
cliques: two graphs on one vertex set with the same maximal cliques have
the same edges.  So the collections match the triangulation's cliques iff
the rigidity rows equal the coherence rows, whose maximal cliques
`maximal_cliques` has already enumerated.  `analyze` compares the rows,
and runs a second enumeration only when they differ, to report how far
the collections are off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .dag import Dag, enumerate_routes, flow_dims, is_full
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
    kisses_by_route,
    module_to_route,
    object_kisses,
    objects_t,
    rigidity_rows,
    route_to_module,
)
from .poset import build_poset
from .triangulation import (
    bron_kerbosch,
    maximal_cliques,
    maximal_cliques_by_flips,
    unimodular_by_exchange,
)


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
    max_routes: int = 10**6,
    max_cliques: int = 10**6,
    with_gentle: bool = True,
) -> AnalysisReport:
    if not is_full(g):
        raise NotFullError("analyze needs a full DAG; run `flowpoly contract` first")
    table = CoherenceTable(g, f, enumerate_routes(g, max_routes))
    report = AnalysisReport(g, table)
    d_space, d_poly = flow_dims(g)
    routes = table.routes
    exc = list(table.exceptional_indices)
    report.data["routes"] = len(routes)
    report.data["exceptional"] = len(exc)
    report.data["dims"] = (d_space, d_poly)
    report.data["ample"] = is_ample(g, f, table)
    report.check("framing-ample", report.data["ample"])
    labels = edge_labeling(g, f)
    report.data["labels"] = labels

    # exceptional structure
    src_deg = sum(len(g.out_edges[s]) for s in g.sources)
    snk_deg = sum(len(g.in_edges[t]) for t in g.sinks)
    report.check(
        "exceptional-count-source-degree",
        len(exc) == src_deg == snk_deg,
        f"{len(exc)} vs {src_deg}/{snk_deg}",
    )
    cover: dict[int, int] = {}
    for i in exc:
        for e in routes[i]:
            cover[e] = cover.get(e, 0) + 1
    report.check(
        "unique-exceptional-route-per-edge",
        all(cover.get(e, 0) == 1 for e in g.tail),
    )
    report.check(
        "exceptional-routes-label-constant",
        all(len(set(route_weight(g, labels, routes[i]))) == 1 for i in exc),
    )
    bip, _ = adjacency_graph(g, [routes[i] for i in exc]).is_bipartite()
    report.check("exceptional-adjacency-bipartite", bip)

    # triangulation
    cliques = maximal_cliques(table, max_cliques)
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
        all(len(c) == d_poly + 1 for c in cliques),
    )
    # the flip traversal's records are the dual graph; by the exchange
    # argument they carry one determinant to every clique they reach, and
    # those are all the cliques when the two enumerations agree
    dual = maximal_cliques_by_flips(table, max_cliques)
    flips_match = dual.cliques == cliques
    report.check(
        "cliques-unimodular",
        flips_match and unimodular_by_exchange(g, table, dual),
    )
    report.check("flip-traversal-matches-enumeration", flips_match)
    if flips_match:
        cliques = dual.cliques  # keep one copy of the equal lists
    # the non-exceptional routes' objects and the kiss table of their walks
    quiver = build_quiver(g, f)
    bq = blossom(quiver)
    exc_set = set(exc)
    non_exc = [i for i in range(len(routes)) if i not in exc_set]
    phi = {i: route_to_module(g, labels, routes[i]) for i in non_exc}
    kiss = object_kisses(bq, list(phi.values()))
    poset = build_poset(g, f, table, dual, labels, kisses_by_route(kiss, non_exc, len(routes)))
    report.data["poset"] = poset
    n_inner = len(g.inner)
    report.check(
        "dual-graph-regular",
        all(poset.dcov(i) + poset.ucov(i) == n_inner for i in range(len(cliques))),
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
    exts = [poset.default_linear_extension()]
    exts.extend(poset.random_linear_extensions(extensions, seed))
    report.check(
        "shelling-h-matches-dcov",
        all(_pad_eq(poset.h_from_shelling(e), dcov) for e in exts),
    )
    kappa = poset.kappa
    report.check(
        "kappa-swaps-cover-statistics",
        all(poset.dcov(i) == poset.ucov(kappa[i]) for i in kappa),
    )

    # gentle algebra
    if with_gentle:
        report.check("quiver-gentle", not gentleness_violations(quiver))
        report.check("blossom-gentle", not gentleness_violations(bq.quiver))
        objs = objects_t(quiver)
        report.check(
            "objects-match-nonexceptional-routes",
            len(objs) == len(non_exc),
            f"{len(objs)} objects vs {len(non_exc)} routes",
        )
        report.check(
            "route-module-bijection",
            sorted(map(str, phi.values())) == sorted(map(str, objs))
            and all(module_to_route(g, labels, m) == routes[i] for i, m in phi.items()),
        )
        # tau-rigidity of the objects in route order, against coherence
        rigid = rigidity_rows(kiss, list(phi.values()))
        coherent = [
            sum(1 << k for k, j in enumerate(non_exc) if adj[i] >> j & 1) for i in non_exc
        ]
        report.check("rigidity-matches-coherence", rigid == coherent)
        if rigid == coherent:
            # equal graphs have equal maximal cliques, and `cliques` are
            # those of the coherence rows
            same, n_coll = True, len(cliques)
            n_cliques = n_coll
        else:
            collections = bron_kerbosch(rigid, (1 << len(non_exc)) - 1, max_cliques)
            clique_sets = {tuple(sorted(set(c) - exc_set)) for c in cliques}
            coll_sets = {tuple(non_exc[k] for k in coll) for coll in collections}
            same, n_coll, n_cliques = coll_sets == clique_sets, len(coll_sets), len(clique_sets)
            del collections, clique_sets, coll_sets  # free them before the oracle
        report.check(
            "support-tau-tilting-matches-cliques",
            same,
            f"{n_coll} collections vs {n_cliques} cliques",
        )

    # lattice point oracle
    oracle = ehrhart_oracle(g)
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
    special = special_simplex_check(g, [routes[i] for i in exc], routes)
    report.data["special_simplex"] = special
    report.check("exceptionals-form-special-simplex", special.ok)

    return report


def _pad_eq(a: Sequence[int], b: Sequence[int]) -> bool:
    n = max(len(a), len(b))
    pa = list(a) + [0] * (n - len(a))
    pb = list(b) + [0] * (n - len(b))
    return pa == pb
