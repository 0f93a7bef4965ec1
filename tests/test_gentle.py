import collections
import random
import re

import pytest

import flowpoly.analysis
import flowpoly.ehrhart
import flowpoly.framing
import flowpoly.gentle
import flowpoly.poset
import flowpoly.triangulation
from flowpoly.analysis import Instance, analyze

from flowpoly.dag import complete_contraction
from flowpoly.errors import ConsistencyError, ExceptionalRouteError, NotAmpleError
from flowpoly.framing import (
    CoherenceTable,
    Framing,
    edge_labeling,
    enumerate_ample_framings,
    named_framing,
    port_table,
)
from flowpoly.gentle import (
    Arrow,
    Quiver,
    StringWord,
    Walk,
    _walk_from_letters,
    blossom,
    build_quiver,
    enumerate_strings,
    extend_string,
    gentleness_violations,
    kiss_table,
    module_to_route,
    object_kisses,
    obstruction_walks,
    objects_t,
    rigidity_rows,
    route_to_module,
    support_tau_tilting,
    tau_rigid_pair,
)
from flowpoly.generators import caracol, caracol_core, gkn, random_full_dag, random_valid_dag
from flowpoly.triangulation import maximal_cliques


def route_word(g, labels, q, route):
    """Expected walk of a route in the blossomed quiver q: its edges with
    weight signs."""
    inner = set(g.inner)
    added = [a for a in q.arrows if a.edge is None]
    letters = []
    for e in route:
        w = labels[e]
        t_, h_ = g.tail[e], g.head[e]
        if t_ in inner and h_ in inner:
            aid = e
        elif w == 1 and h_ in inner:
            (aid,) = [a.id for a in added if a.target == h_ and a.weight == 1]
        elif w == 1 and t_ in inner:
            (aid,) = [a.id for a in added if a.source == t_ and a.weight == 1]
        elif w == 2 and h_ in inner:
            (aid,) = [a.id for a in added if a.source == h_ and a.weight == 2]
        else:
            (aid,) = [a.id for a in added if a.target == t_ and a.weight == 2]
        letters.append((aid, 1 if w == 1 else -1))
    return _walk_from_letters(q, letters)


def same_walk(a: Walk, b: Walk) -> bool:
    return a == b or a == b.reversed()


def test_quiver_g27(g27h, g27f):
    q = build_quiver(g27h, g27f)
    assert q.nodes == (3, 4, 5)
    arrows = {(a.id, a.source, a.target, a.weight) for a in q.arrows}
    assert arrows == {(2, 3, 4, 1), (3, 4, 5, 1), (8, 5, 3, 2)}
    assert sorted(q.relations) == [(3, 8), (8, 2)]
    assert not gentleness_violations(q)


def test_quiver_needs_ample(g27h, g27f):
    broken = Framing(dict(g27f.in_order), dict(g27f.out_order))
    broken.out_order[3] = tuple(reversed(broken.out_order[3]))
    with pytest.raises(NotAmpleError):
        build_quiver(g27h, broken)


def test_quiver_empty_for_no_inner(single_edge):
    from flowpoly.framing import framing_by_edge_id

    q = build_quiver(single_edge, framing_by_edge_id(single_edge))
    assert q.nodes == () and q.arrows == ()
    assert enumerate_strings(q) == []
    assert objects_t(q) == []
    bq = blossom(q)
    assert support_tau_tilting(bq, []) == [()]


def test_strings_g27(g27h, g27f):
    q = build_quiver(g27h, g27f)
    strings = enumerate_strings(q)
    assert len(strings) == 7
    names = sorted(str(s) for s in strings)
    assert names == ["a2", "a2a3", "a3", "a8", "e_3", "e_4", "e_5"]
    assert len(objects_t(q)) == 10


def test_string_count_matches_nonexceptional(g27t, g27h, g27f):
    q = build_quiver(g27h, g27f)
    non_exc = len(g27t.routes) - len(g27t.exceptional_indices)
    assert len(objects_t(q)) == non_exc == 10


def test_route_module_examples(g27h, g27f):
    labels = edge_labeling(g27h, g27f)
    # weights (1,1,2): shifted projective at the switch vertex
    assert route_to_module(g27h, labels, (1, 2, 9)) == StringWord("shift", vertex=4)
    # weights (2,1,1,2): the single middle arrow
    assert route_to_module(g27h, labels, (6, 2, 3, 10)) == StringWord(
        "word", letters=((2, 1),)
    )
    assert module_to_route(g27h, labels, StringWord("shift", vertex=4)) == (1, 2, 9)
    assert module_to_route(
        g27h, labels, StringWord("word", letters=((2, 1),))
    ) == (6, 2, 3, 10)


def test_route_module_inverse_bijection(g27h, g27f, g27t):
    labels = edge_labeling(g27h, g27f)
    q = build_quiver(g27h, g27f)
    exc = set(g27t.exceptional_indices)
    images = []
    for i, r in enumerate(g27t.routes):
        if i in exc:
            with pytest.raises(ExceptionalRouteError):
                route_to_module(g27h, labels, r)
            continue
        m = route_to_module(g27h, labels, r)
        assert module_to_route(g27h, labels, m) == r
        images.append(str(m))
    assert sorted(images) == sorted(str(o) for o in objects_t(q))


def test_blossom_g27(g27h, g27f):
    q = build_quiver(g27h, g27f)
    bq = blossom(q)
    assert len(bq.arrows) == 9
    assert not gentleness_violations(bq)
    for v in q.nodes:
        assert len(bq.arrows_into(v)) == 2
        assert len(bq.arrows_from(v)) == 2
    for a in bq.arrows:
        if a.edge is None:
            blossom_end = a.source if a.source not in q.nodes else a.target
            incident = [
                b
                for b in bq.arrows
                if blossom_end in (b.source, b.target)
            ]
            assert incident == [a]


def test_extension_examples(g27h, g27f):
    # the worked strings: a3 extends to (inverse, direct, direct) between
    # blossoms, and e_4 to a three-letter zigzag through both its out-arrows
    q = build_quiver(g27h, g27f)
    bq = blossom(q)
    w1 = extend_string(bq, StringWord("word", letters=((3, 1),)))
    assert len(w1.letters) == 3
    assert [e for _, e in w1.letters] in ([-1, 1, 1], [-1, -1, 1])
    assert w1.letters[1][0] == 3 or w1.letters[1][0] == 3
    w2 = extend_string(bq, StringWord("const", vertex=4))
    assert len(w2.letters) == 3
    assert 4 in w2.vertices


def test_extension_is_route_word(g27h, g27f, g27t):
    labels = edge_labeling(g27h, g27f)
    q = build_quiver(g27h, g27f)
    bq = blossom(q)
    exc = set(g27t.exceptional_indices)
    seen = set()
    for i, r in enumerate(g27t.routes):
        if i in exc:
            continue
        m = route_to_module(g27h, labels, r)
        ext = extend_string(bq, m)
        assert same_walk(ext, route_word(g27h, labels, bq, r)), (r, str(m))
        key = min(ext.letters, ext.reversed().letters)
        assert key not in seen  # extension is injective
        seen.add(key)


def test_self_rigidity(g27h, g27f):
    q = build_quiver(g27h, g27f)
    bq = blossom(q)
    for o in objects_t(q):
        assert tau_rigid_pair(bq, o, o)


def test_rigidity_matches_coherence(g27h, g27f, g27t):
    labels = edge_labeling(g27h, g27f)
    q = build_quiver(g27h, g27f)
    bq = blossom(q)
    exc = set(g27t.exceptional_indices)
    non_exc = [i for i in range(len(g27t.routes)) if i not in exc]
    phi = {i: route_to_module(g27h, labels, g27t.routes[i]) for i in non_exc}
    for a in non_exc:
        for b in non_exc:
            want = g27t.coherent(a, b) if a != b else True
            assert tau_rigid_pair(bq, phi[a], phi[b]) == want


def test_rigidity_rows_missing_an_edge_fail_both_verdicts(g27h, g27f, monkeypatch):
    rows_of = flowpoly.analysis.rigidity_rows

    def dropped(kiss, objects):
        # the first route i with a rigid partner and its first such partner j
        # no longer count as compatible; exceptional routes have empty rows
        rows = rows_of(kiss, objects)
        i = next(i for i, row in enumerate(rows) if row)
        j = (rows[i] & -rows[i]).bit_length() - 1
        rows[i] &= ~(1 << j)
        rows[j] &= ~(1 << i)
        return rows

    monkeypatch.setattr(flowpoly.analysis, "rigidity_rows", dropped)
    report = analyze(g27h, g27f)
    assert [(v.invariant, v.detail) for v in report.failed()] == [
        ("rigidity-matches-coherence", ""),
        ("support-tau-tilting-matches-cliques", "14 collections vs 16 cliques"),
    ]


def test_conflicting_pair_not_rigid(core8, core8f):
    labels = edge_labeling(core8, core8f)
    q = build_quiver(core8, core8f)
    bq = blossom(q)
    # 1346 and 1236 conflict at vertex 3
    m1 = route_to_module(core8, labels, (5, 10, 2))
    m2 = route_to_module(core8, labels, (4, 9, 1))
    assert not tau_rigid_pair(bq, m1, m2)


def test_support_tau_tilting_matches_cliques(g27h, g27f, g27t):
    labels = edge_labeling(g27h, g27f)
    q = build_quiver(g27h, g27f)
    bq = blossom(q)
    objs = objects_t(q)
    colls = support_tau_tilting(bq, objs)
    assert len(colls) == 16
    exc = set(g27t.exceptional_indices)
    idx_of = {}
    for i, r in enumerate(g27t.routes):
        if i not in exc:
            idx_of[str(route_to_module(g27h, labels, r))] = i
    coll_sets = {
        frozenset(idx_of[str(objs[k])] for k in coll) for coll in colls
    }
    clique_sets = {
        frozenset(set(c) - exc) for c in maximal_cliques(g27t)
    }
    assert coll_sets == clique_sets


def test_rigidity_adjacency_matches_pairwise_reference(core8, core8f):
    q = build_quiver(core8, core8f)
    bq = blossom(q)
    objs = objects_t(q)
    adj = rigidity_rows(object_kisses(bq, objs), objs)
    for a in range(len(objs)):
        for b in range(len(objs)):
            want = a != b and tau_rigid_pair(bq, objs[a], objs[b])
            assert bool(adj[a] >> b & 1) == want


def framed_walks(g, f):
    """Blossom extensions of every object of an amply framed full DAG."""
    q = build_quiver(g, f)
    bq = blossom(q)
    return [extend_string(bq, o) for o in objects_t(q)]


def kiss_table_matches_pairwise_reference(walks) -> int:
    """Compare `kiss_table` with `obstruction_walks` on every ordered pair,
    i = j included; return the number of pairs compared."""
    table = kiss_table(walks)
    for i, w in enumerate(walks):
        for j, v in enumerate(walks):
            assert bool(table[i] >> j & 1) == bool(obstruction_walks(w, v)), (i, j)
    assert all(row >> len(walks) == 0 for row in table)
    return len(walks) ** 2


@pytest.mark.parametrize(
    "graph, framing",
    [(lambda: gkn(2, 9), "paper-g27"), (lambda: caracol(8), "length"), (lambda: gkn(2, 11), "paper-g27")],
    ids=["gkn29", "car8", "gkn211"],
)
def test_kiss_table_matches_pairwise_obstructions(graph, framing):
    g = complete_contraction(graph()).result
    walks = framed_walks(g, named_framing(g, framing))
    assert kiss_table_matches_pairwise_reference(walks) > 0
    assert any(kiss_table(walks))  # some pair does kiss


@pytest.mark.parametrize(
    "graph, framing",
    [
        (lambda: complete_contraction(gkn(2, 9)).result, "paper-g27"),
        (lambda: complete_contraction(caracol(8)).result, "length"),
        (lambda: caracol_core(8), "length"),
    ],
    ids=["gkn29", "car8", "carcore8"],
)
def test_gentle_block_is_keyed_by_route(graph, framing):
    # phi, the kiss table and the rigidity rows share the routes' indices;
    # an exceptional route has no object and an empty row and column
    g = graph()
    inst = Instance(g, named_framing(g, framing))
    phi, kiss, exc = inst.phi, inst.kiss, set(inst.table.exceptional_indices)
    assert len(phi) == len(kiss) == len(inst.table.routes)
    assert {i for i, m in enumerate(phi) if m is None} == exc
    walks = [None if m is None else extend_string(inst.blossom_quiver, m) for m in phi]
    for i, w in enumerate(walks):
        for j, v in enumerate(walks):
            want = w is not None and v is not None and bool(obstruction_walks(w, v))
            assert bool(kiss[i] >> j & 1) == want, (i, j)
    rest = sum(1 << i for i, m in enumerate(phi) if m is not None)
    assert rigidity_rows(kiss, phi) == [0 if m is None else row & rest for m, row in zip(phi, inst.table.adjacency)]


def test_kiss_table_matches_pairwise_obstructions_random():
    rng = random.Random(1212)
    instances = pairs = 0
    for k in range(63):
        g = complete_contraction(
            random_valid_dag(rng, 2 + k % 3, expansions=rng.randrange(0, 4))
        ).result
        for tagged in list(enumerate_ample_framings(port_table(g)))[:3]:
            pairs += kiss_table_matches_pairwise_reference(framed_walks(g, tagged.framing))
            instances += 1
    assert instances >= 150 and pairs > 15000


def test_kiss_table_hashes_both_orientations():
    # the one common window, u -a5-> v, is a source window of w_out and a
    # target window only of w_in read backwards; read forwards, w_in holds
    # v <-a5- u entered by a3 and left by a4^-1, a different key
    u, v = 1, 2
    w_out = Walk((0, u, v, 3), ((1, -1), (5, 1), (2, 1)))
    w_in = Walk((4, v, u, 5), ((3, 1), (5, -1), (4, -1)))
    assert obstruction_walks(w_out, w_in) == [Walk((u, v), ((5, 1),))]
    assert not obstruction_walks(w_in, w_out)
    assert kiss_table([w_out, w_in]) == [0b10, 0]
    assert kiss_table([w_out, w_in.reversed()]) == [0b10, 0]


def test_self_kissing_walk_raises(g27h, g27f, monkeypatch):
    # a walk through u twice, once as a source window and once as a target
    # window, kisses itself: its object is not tau-rigid
    q = build_quiver(g27h, g27f)
    bq = blossom(q)
    objs = objects_t(q)
    u = 7
    kisser = Walk((0, u, 2, u, 4), ((1, -1), (2, 1), (3, 1), (4, -1)))
    assert obstruction_walks(kisser, kisser) and kiss_table([kisser]) == [1]
    extend = flowpoly.gentle.extend_string
    monkeypatch.setattr(
        flowpoly.gentle, "extend_string", lambda bq, o: kisser if o is objs[3] else extend(bq, o)
    )
    with pytest.raises(ConsistencyError, match=re.escape(f"objects-self-rigid: object {objs[3]} ")):
        rigidity_rows(object_kisses(bq, objs), objs)


def test_analyze_computes_each_intermediate_once(g29h, tmp_path, monkeypatch):
    from click.testing import CliRunner

    import flowpoly.cli
    from flowpoly.dag import dag_to_json

    calls = collections.Counter()
    extended = collections.Counter()
    extend = flowpoly.gentle.extend_string
    modules = [flowpoly.framing, flowpoly.triangulation, flowpoly.poset, flowpoly.gentle, flowpoly.ehrhart]
    modules += [flowpoly.analysis, flowpoly.cli]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # every module that binds these names gets the counting wrapper
    stages = ("CoherenceTable", "bron_kerbosch", "dual_graph", "maximal_cliques_by_flips", "simplex_volume")
    stages += ("edge_labeling", "blossom", "object_kisses", "build_poset", "ehrhart_oracle")
    for name in stages:
        wrapped = counted(name, next(getattr(mod, name) for mod in modules if hasattr(mod, name)))
        for mod in modules:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)

    def counting_extend(bq, obj):
        extended[str(obj)] += 1
        return extend(bq, obj)

    monkeypatch.setattr(flowpoly.gentle, "extend_string", counting_extend)
    # the lexicographic numbering is paid only by the commands that print it
    dual_graph_class = flowpoly.triangulation.DualGraph
    monkeypatch.setattr(dual_graph_class, "relabelled", counted("relabelled", dual_graph_class.relabelled))
    f = named_framing(g29h, "paper-g27")
    assert analyze(g29h, f).ok
    # the flip records are the dual graph, one determinant certifies every
    # clique, and the cliques are enumerated once: equal rigidity and
    # coherence rows need no second enumeration; the quiver reads the
    # pipeline's edge labels
    assert calls == dict.fromkeys(set(stages) - {"dual_graph"}, 1)
    t = CoherenceTable(g29h, f)
    n_objects = len(t.routes) - len(t.exceptional_indices)
    assert len(extended) == n_objects and set(extended.values()) == {1}

    # each command runs the stages it reads once, and no other
    poset = {"CoherenceTable", "edge_labeling", "maximal_cliques_by_flips", "blossom", "object_kisses", "build_poset"}
    needs = {
        "cliques": {"CoherenceTable", "bron_kerbosch", "maximal_cliques_by_flips", "simplex_volume", "relabelled"},
        "poset": poset | {"relabelled"},
        "hstar": poset,
        "oracle": {"CoherenceTable", "ehrhart_oracle"},
    }
    path = tmp_path / "g29.json"
    path.write_text(dag_to_json(g29h))
    for command, stages_read in needs.items():
        calls.clear()
        extended.clear()
        res = CliRunner().invoke(flowpoly.cli.cli, [command, "--framing", "paper-g27", "-i", str(path)])
        assert res.exit_code == 0, (command, res.output)
        assert calls == dict.fromkeys(stages_read, 1), command
        assert len(extended) == (n_objects if "object_kisses" in stages_read else 0), command
        assert set(extended.values()) <= {1}, command
    calls.clear()
    res = CliRunner().invoke(flowpoly.cli.cli, ["fuzz", "--count", "3", "--seed", "1"])
    assert res.exit_code == 0 and calls["maximal_cliques_by_flips"] > 0 and not calls["relabelled"]


def test_blossom_label_invariance(g27h, g27f):
    """Renaming blossom vertices must not change rigidity outcomes."""
    q = build_quiver(g27h, g27f)
    bq = blossom(q)
    blossom_nodes = [v for v in bq.nodes if v not in q.nodes]
    shift = {v: v + 100 for v in blossom_nodes}
    bq2 = Quiver(
        tuple(shift.get(v, v) for v in bq.nodes),
        tuple(
            Arrow(a.id, shift.get(a.source, a.source), shift.get(a.target, a.target), a.weight, a.edge)
            for a in bq.arrows
        ),
        bq.relations,
    )
    objs = objects_t(q)
    for a in range(len(objs)):
        for b in range(a, len(objs)):
            assert tau_rigid_pair(bq, objs[a], objs[b]) == tau_rigid_pair(
                bq2, objs[a], objs[b]
            )


def test_gentleness_and_bijection_random():
    rng = random.Random(31)
    for _ in range(12):
        g = random_full_dag(rng, rng.randrange(1, 5))
        tagged = next(iter(enumerate_ample_framings(port_table(g))))
        f = tagged.framing
        labels = edge_labeling(g, f)
        q = build_quiver(g, f)
        assert not gentleness_violations(q)
        bq = blossom(q)
        assert not gentleness_violations(bq)
        t = CoherenceTable(g, f)
        exc = set(t.exceptional_indices)
        non_exc = [i for i in range(len(t.routes)) if i not in exc]
        objs = objects_t(q)
        assert len(objs) == len(non_exc)
        for i in non_exc:
            m = route_to_module(g, labels, t.routes[i])
            assert module_to_route(g, labels, m) == t.routes[i]
            assert same_walk(
                extend_string(bq, m), route_word(g, labels, bq, t.routes[i])
            )
        # strings never revisit a vertex
        for s in enumerate_strings(q):
            if s.kind == "word":
                walk = _walk_from_letters(q, s.letters)
                assert len(set(walk.vertices)) == len(walk.vertices)
