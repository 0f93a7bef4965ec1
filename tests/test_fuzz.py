"""Seeded randomized property checks across random full and valid DAGs.

The acceptance suite repeats these at the mandated scale; here a moderate
sample keeps the default test run quick.
"""

import random

from conftest import all_framings

from flowpoly.analysis import analyze
from flowpoly.dag import complete_contraction, enumerate_routes, is_full
from flowpoly.framing import (
    CoherenceTable,
    adjacency_graph,
    count_ample_framings,
    enumerate_ample_framings,
    is_ample,
)
from flowpoly.generators import random_full_dag, random_valid_dag


def test_full_pipeline_on_random_full_dags():
    rng = random.Random(401)
    for _ in range(15):
        g = random_full_dag(
            rng,
            rng.randrange(2, 5),
            n_sources=rng.randrange(1, 3),
            n_sinks=rng.randrange(1, 3),
        )
        tagged = next(iter(enumerate_ample_framings(g)))
        report = analyze(g, tagged.framing, extensions=3)
        assert report.ok, [v.invariant for v in report.failed()]


def test_structural_invariants_on_random_valid_dags():
    rng = random.Random(402)
    for _ in range(40):
        g = random_valid_dag(rng, rng.randrange(2, 5), expansions=rng.randrange(0, 3))
        trace = complete_contraction(g)
        h = trace.result
        assert is_full(h)
        # routes correspond bijectively under contraction
        routes_g = enumerate_routes(g)
        assert sorted(trace.project_route(r) for r in routes_g) == enumerate_routes(h)
        for tagged in enumerate_ample_framings(h):
            t = CoherenceTable(h, tagged.framing)
            exc = [t.routes[i] for i in t.exceptional_indices]
            cover = {}
            for r in exc:
                for e in r:
                    cover[e] = cover.get(e, 0) + 1
            assert all(cover.get(e, 0) == 1 for e in h.tail)
            src = sum(len(h.out_edges[s]) for s in h.sources)
            assert len(exc) == src
            assert adjacency_graph(h, exc).is_bipartite()[0]
            break


def test_enumeration_equals_brute_force_small():
    rng = random.Random(403)
    done = 0
    while done < 10:
        g = random_valid_dag(rng, rng.randrange(1, 3), expansions=rng.randrange(0, 2))
        if len(g.edges) > 10:
            continue
        done += 1
        from flowpoly.framing import enumerate_ample_framings_valid

        brute = {f.key() for f in all_framings(g) if is_ample(g, f)}
        enum = {f.key() for f in enumerate_ample_framings_valid(g)}
        assert brute == enum
        assert len(brute) == count_ample_framings(g)
