"""Gentle algebra of a framed full DAG: strings, blossoming, tau-rigidity.

The quiver lives on the inner vertices; weight-1 edges keep their direction
and weight-2 edges reverse, with relations at every weight change.  Route
combinatorics translates to string combinatorics, and pairwise coherence of
routes matches tau-rigidity of the corresponding string modules over the
blossoming algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterator, Mapping, Sequence

from .dag import Dag, EdgeId, Route, VertexId, is_full
from .errors import (
    ConsistencyError,
    ExceptionalRouteError,
    InconsistentFramingError,
    NotAmpleError,
    NotFullError,
)
from .framing import Framing, edge_labeling
from .triangulation import bron_kerbosch, mask_members

ArrowId = int


@dataclass(frozen=True)
class Arrow:
    id: ArrowId
    source: VertexId
    target: VertexId
    weight: int  # weight of the originating edge; blossom arrows inherit
    edge: EdgeId | None  # originating edge of the base DAG, None if added


@dataclass(frozen=True)
class Quiver:
    nodes: tuple[VertexId, ...]
    arrows: tuple[Arrow, ...]
    relations: frozenset[tuple[ArrowId, ArrowId]]  # composable pairs in the ideal

    def arrow(self, a: ArrowId) -> Arrow:
        return self._by_id[a]

    @cached_property
    def _by_id(self) -> dict[ArrowId, Arrow]:
        return {a.id: a for a in self.arrows}

    def arrows_into(self, v: VertexId) -> list[Arrow]:
        return [a for a in self.arrows if a.target == v]

    def arrows_from(self, v: VertexId) -> list[Arrow]:
        return [a for a in self.arrows if a.source == v]


def build_quiver(g: Dag, f: Framing, labels: Mapping[EdgeId, int] | None = None) -> Quiver:
    """Quiver with relations for an amply framed full DAG.

    Arrows come from edges between inner vertices (arrow id = edge id);
    relations are the composable pairs whose weights differ.  `labels` is
    `edge_labeling(g, f)` when the caller already holds it.
    """
    if not is_full(g):
        raise NotFullError("the quiver construction needs a full DAG")
    if labels is None:
        try:
            labels = edge_labeling(g, f)
        except InconsistentFramingError as exc:
            raise NotAmpleError(str(exc)) from exc
    inner = set(g.inner)
    arrows = []
    for e in sorted(g.tail):
        t, h = g.tail[e], g.head[e]
        if t in inner and h in inner:
            if labels[e] == 1:
                arrows.append(Arrow(e, t, h, 1, e))
            else:
                arrows.append(Arrow(e, h, t, 2, e))
    relations = _weight_relations(arrows)
    return Quiver(tuple(sorted(inner)), tuple(arrows), relations)


def _weight_relations(arrows: Sequence[Arrow]) -> frozenset[tuple[ArrowId, ArrowId]]:
    rel = set()
    for a in arrows:
        for b in arrows:
            if a.target == b.source and a.weight != b.weight:
                rel.add((a.id, b.id))
    return frozenset(rel)


def gentleness_violations(q: Quiver) -> list[str]:
    """Empty iff the quiver with relations is gentle."""
    issues = []
    for v in q.nodes:
        if len(q.arrows_into(v)) > 2:
            issues.append(f"node {v} has more than two incoming arrows")
        if len(q.arrows_from(v)) > 2:
            issues.append(f"node {v} has more than two outgoing arrows")
    rel = q.relations
    for a1, a2 in rel:
        if q.arrow(a1).target != q.arrow(a2).source:
            issues.append(f"relation ({a1},{a2}) is not composable")
    for a in q.arrows:
        for side, pairs in (
            ("continuations", [(a.id, b.id) for b in q.arrows if a.target == b.source]),
            ("predecessors", [(b.id, a.id) for b in q.arrows if b.target == a.source]),
        ):
            inside = sum(pair in rel for pair in pairs)
            if len(pairs) - inside > 1:
                issues.append(f"arrow {a.id} has two {side} outside the ideal")
            if inside > 1:
                issues.append(f"arrow {a.id} has two {side} inside the ideal")
    return issues


# -- strings ----------------------------------------------------------------------

Letter = tuple[ArrowId, int]  # (arrow id, +1 or -1)


@dataclass(frozen=True)
class StringWord:
    """A string object: a reduced word, a constant path, or a shifted marker."""

    kind: str  # 'word' | 'const' | 'shift'
    letters: tuple[Letter, ...] = ()
    vertex: VertexId | None = None

    def __str__(self) -> str:
        if self.kind == "const":
            return f"e_{self.vertex}"
        if self.kind == "shift":
            return f"P_{self.vertex}[1]"
        return "".join(
            (f"a{a}" if e == 1 else f"a{a}^-1") for a, e in self.letters
        )


def _inverse(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return tuple((a, -e) for a, e in reversed(letters))


def _canonical(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    inv = _inverse(letters)
    key = lambda w: tuple((a, 0 if e == 1 else 1) for a, e in w)  # noqa: E731
    return letters if key(letters) <= key(inv) else inv


def _letter_ends(q: Quiver, letter: Letter) -> tuple[VertexId, VertexId]:
    a, e = letter
    arr = q.arrow(a)
    return (arr.source, arr.target) if e == 1 else (arr.target, arr.source)


def _letters_ok(q: Quiver, x: Letter, y: Letter) -> bool:
    """May letter y follow letter x in a string?"""
    if _letter_ends(q, x)[1] != _letter_ends(q, y)[0]:
        return False
    if x[0] == y[0] and x[1] == -y[1]:
        return False  # immediate cancellation
    if x[1] == 1 and y[1] == 1 and (x[0], y[0]) in q.relations:
        return False
    if x[1] == -1 and y[1] == -1 and (y[0], x[0]) in q.relations:
        return False
    return True


def enumerate_strings(q: Quiver) -> list[StringWord]:
    """All strings up to inversion: constant paths plus reduced words.

    Quivers from full DAGs admit no string visiting a vertex twice; a
    repeat would contradict that, so it is reported rather than pruned.
    """
    words: set[tuple[Letter, ...]] = set()
    letters = [(a.id, e) for a in q.arrows for e in (1, -1)]
    stack: list[tuple[tuple[Letter, ...], tuple[VertexId, ...]]] = []
    for lt in letters:
        s, t = _letter_ends(q, lt)
        stack.append(((lt,), (s, t)))
    while stack:
        word, verts = stack.pop()
        words.add(_canonical(word))
        for lt in letters:
            if not _letters_ok(q, word[-1], lt):
                continue
            nxt = _letter_ends(q, lt)[1]
            if nxt in verts:
                raise ConsistencyError(
                    "string-vertex-multiplicity",
                    f"string {word + (lt,)} revisits vertex {nxt}",
                )
            stack.append((word + (lt,), verts + (nxt,)))
    out = [StringWord("const", vertex=v) for v in q.nodes]
    out.extend(StringWord("word", letters=w) for w in sorted(words))
    return out


def objects_t(q: Quiver) -> list[StringWord]:
    """Indecomposables plus one shifted projective marker per node."""
    out = enumerate_strings(q)
    out.extend(StringWord("shift", vertex=v) for v in q.nodes)
    return out


# -- the route <-> module bijection ------------------------------------------------


def route_to_module(g: Dag, labels: Mapping[EdgeId, int], route: Route) -> StringWord:
    """Map a non-exceptional route to its string object.

    Weight pattern 1..12..2 gives the shifted marker at the switch vertex;
    otherwise the stretch strictly between the first 2 and the last 1 gives
    a word (weight-1 edges direct, weight-2 edges inverse), degenerating to
    a constant path when the two are adjacent.
    """
    w = [labels[e] for e in route]
    if all(x == 1 for x in w) or all(x == 2 for x in w):
        raise ExceptionalRouteError("route is exceptional")
    i = w.index(2)
    j = len(w) - 1 - w[::-1].index(1)
    if i > j:  # pattern 1^a 2^b with a, b >= 1
        return StringWord("shift", vertex=g.head[route[i - 1]])
    if j == i + 1:
        return StringWord("const", vertex=g.head[route[i]])
    letters = tuple(
        (route[s], 1 if labels[route[s]] == 1 else -1) for s in range(i + 1, j)
    )
    return StringWord("word", letters=_canonical(letters))


def _edge_of_weight(labels: Mapping[EdgeId, int], port: Sequence[EdgeId], weight: int) -> EdgeId:
    es = [e for e in port if labels[e] == weight]
    assert len(es) == 1
    return es[0]


def _weight_run(
    g: Dag,
    labels: Mapping[EdgeId, int],
    v: VertexId,
    ports: Mapping[VertexId, tuple[EdgeId, ...]],
    end: Mapping[EdgeId, VertexId],
    weight: int,
) -> list[EdgeId]:
    """Edges met from v to a source or sink, leaving each inner vertex by
    its weight-`weight` edge at `ports` and moving to that edge's `end`."""
    out: list[EdgeId] = []
    inner = set(g.inner)
    while v in inner:
        e = _edge_of_weight(labels, ports[v], weight)
        out.append(e)
        v = end[e]
    return out


def module_to_route(g: Dag, labels: Mapping[EdgeId, int], obj: StringWord) -> Route:
    """Inverse of route_to_module.

    A shifted marker at v is the weight-1 run into v followed by the
    weight-2 run out of v.  A word (or constant path) is entered on a
    weight-2 edge and left on a weight-1 edge, with the same runs around.
    """
    start = end = obj.vertex
    middle: list[EdgeId] = []
    if obj.kind != "shift":
        if obj.kind == "word":
            middle = _directed_path(g, [a for a, _ in obj.letters])
            start, end = g.tail[middle[0]], g.head[middle[-1]]
        e_in = _edge_of_weight(labels, g.in_edges[start], 2)
        e_out = _edge_of_weight(labels, g.out_edges[end], 1)
        middle = [e_in] + middle + [e_out]
        start, end = g.tail[e_in], g.head[e_out]
    back = _weight_run(g, labels, start, g.in_edges, g.tail, 1)
    fwd = _weight_run(g, labels, end, g.out_edges, g.head, 2)
    return tuple(back[::-1] + middle + fwd)


def _directed_path(g: Dag, edges: Sequence[EdgeId]) -> list[EdgeId]:
    """Order the edges of a directed path in g from its start."""
    heads = {g.head[e] for e in edges}
    first = [e for e in edges if g.tail[e] not in heads]
    assert len(first) == 1
    path = [first[0]]
    rest = set(edges) - {first[0]}
    while rest:
        nxt = [e for e in rest if g.tail[e] == g.head[path[-1]]]
        assert len(nxt) == 1
        path.append(nxt[0])
        rest.remove(nxt[0])
    return path


# -- blossoming ---------------------------------------------------------------------


@dataclass(frozen=True)
class BlossomQuiver:
    quiver: Quiver
    base_nodes: tuple[VertexId, ...]


def blossom(q: Quiver) -> BlossomQuiver:
    """Extend a gentle quiver so every original node has two arrows each way.

    New vertices carry a single arrow; weights of the added arrows are the
    complements of the present ones, which pins down the extended relations
    (weight changes) and keeps the result gentle.
    """
    next_node = max(q.nodes, default=0) + 1
    next_arrow = max((a.id for a in q.arrows), default=-1) + 1
    arrows = list(q.arrows)
    for v in q.nodes:
        in_w = sorted(a.weight for a in q.arrows if a.target == v)
        out_w = sorted(a.weight for a in q.arrows if a.source == v)
        for w in (1, 2):
            if w not in in_w:
                arrows.append(Arrow(next_arrow, next_node, v, w, None))
                next_arrow += 1
                next_node += 1
        for w in (1, 2):
            if w not in out_w:
                arrows.append(Arrow(next_arrow, v, next_node, w, None))
                next_arrow += 1
                next_node += 1
    nodes = tuple(dict.fromkeys(list(q.nodes) + sorted(
        ({a.source for a in arrows} | {a.target for a in arrows}) - set(q.nodes)
    )))
    bq = Quiver(nodes, tuple(arrows), _weight_relations(arrows))
    return BlossomQuiver(bq, tuple(q.nodes))


@dataclass(frozen=True)
class Walk:
    """A word in the blossoming quiver with its vertex trail."""

    vertices: tuple[VertexId, ...]
    letters: tuple[Letter, ...]

    def reversed(self) -> "Walk":
        return Walk(tuple(reversed(self.vertices)), _inverse(self.letters))


def _walk_from_letters(q: Quiver, letters: Sequence[Letter]) -> Walk:
    verts = [_letter_ends(q, letters[0])[0]]
    for lt in letters:
        s, t = _letter_ends(q, lt)
        assert s == verts[-1]
        verts.append(t)
    return Walk(tuple(verts), tuple(letters))


def _candidates(q: Quiver, letters: Sequence[Letter], direct: bool) -> list[Letter]:
    """Letters of one kind (arrows if `direct`, else inverse arrows) that
    may follow the last letter."""
    v = _letter_ends(q, letters[-1])[1]
    sign = 1 if direct else -1
    pool = q.arrows_from(v) if direct else q.arrows_into(v)
    return [
        (arr.id, sign)
        for arr in sorted(pool, key=lambda a: a.id)
        if _letters_ok(q, letters[-1], (arr.id, sign))
    ]


def _extend(q: Quiver, letters: list[Letter]) -> None:
    """Append inverse arrows while a (unique) valid one exists."""
    while cands := _candidates(q, letters, direct=False):
        assert len(cands) == 1, "gentle quivers admit unique extensions"
        letters.append(cands[0])


def extend_string(bq: BlossomQuiver, obj: StringWord) -> Walk:
    """Blossom extension: every object becomes a maximal mixed string.

    Each end of the seed gets inverse arrows for as long as they extend it;
    a word first gets one arrow there.  The front end is extended as the
    back end of the inverse word, which mirrors letters and their kinds.
    """
    q = bq.quiver
    if obj.kind == "word":
        letters = list(obj.letters)
    elif obj.kind == "const":  # inverse of one arrow out of v, then the other
        a, b = sorted(q.arrows_from(obj.vertex), key=lambda a: a.id)
        letters = [(a.id, -1), (b.id, 1)]
    else:  # shifted marker: an arrow into v, then the other one inverted
        a, b = sorted(q.arrows_into(obj.vertex), key=lambda a: a.id)
        letters = [(a.id, 1), (b.id, -1)]
    for _ in range(2):
        if obj.kind == "word":
            hook = _candidates(q, letters, direct=True)
            assert len(hook) == 1, "gentle quivers admit unique extensions"
            letters.append(hook[0])
        _extend(q, letters)
        letters = list(_inverse(tuple(letters)))
    return _walk_from_letters(q, tuple(letters))


# -- tau-rigidity --------------------------------------------------------------------


def obstruction_walks(w_out: Walk, w_in: Walk) -> list[Walk]:
    """Common substrings with both w_out letters leaving and w_in letters entering."""
    found = []
    both = (w_in, w_in.reversed())
    for a in range(1, len(w_out.vertices) - 1):
        for b in range(a, len(w_out.vertices) - 1):
            if w_out.letters[a - 1][1] != -1 or w_out.letters[b][1] != 1:
                continue
            seg_v = w_out.vertices[a : b + 1]
            seg_l = w_out.letters[a:b]
            for cand in both:
                for c in range(1, len(cand.vertices) - 1):
                    d = c + (b - a)
                    if d > len(cand.vertices) - 2:
                        continue
                    if cand.letters[c - 1][1] != 1 or cand.letters[d][1] != -1:
                        continue
                    if cand.vertices[c : d + 1] == seg_v and cand.letters[c:d] == seg_l:
                        found.append(Walk(seg_v, seg_l))
    return found


def _windows(w: Walk, enter: int) -> Iterator[tuple[tuple, tuple]]:
    """Keys (vertices, letters) of the inner windows of w entered by a letter
    of sign `enter` and left by one of the opposite sign: source windows
    for -1, target windows for +1, as `obstruction_walks` reads them."""
    verts, letters = w.vertices, w.letters
    ends = [d for d in range(1, len(verts) - 1) if letters[d][1] == -enter]
    for c in range(1, len(verts) - 1):
        if letters[c - 1][1] == enter:
            for d in ends:
                if d >= c:
                    yield verts[c : d + 1], letters[c:d]


def kiss_table(walks: Sequence[Walk]) -> list[int]:
    """Row i has bit j set iff `obstruction_walks(walks[i], walks[j])` is
    non-empty: every target window of every walk, in both orientations, is
    hashed once, and row i ORs the hits of walk i's source windows."""
    targets: dict[tuple, int] = {}
    for j, w in enumerate(walks):
        for key in (*_windows(w, 1), *_windows(w.reversed(), 1)):
            targets[key] = targets.get(key, 0) | 1 << j
    return [reduce(or_, [targets.get(k, 0) for k in _windows(w, -1)], 0) for w in walks]


def tau_rigid_pair(bq: BlossomQuiver, o1: StringWord, o2: StringWord) -> bool:
    """No common substring is a target in one extension and a source in the
    other: the pairwise reference for `rigidity_adjacency`."""
    w1, w2 = extend_string(bq, o1), extend_string(bq, o2)
    return not (obstruction_walks(w1, w2) or obstruction_walks(w2, w1))


def object_kisses(bq: BlossomQuiver, objects: Sequence[StringWord]) -> list[int]:
    """`kiss_table` of the objects' blossom extensions, each extended once."""
    return kiss_table([extend_string(bq, o) for o in objects])


def rigidity_rows(kiss: Sequence[int], objects: Sequence[StringWord]) -> list[int]:
    """Tau-rigidity graph of the objects as bitmasks (bit j set on row i iff
    i != j and the pair is tau-rigid), read from the objects' `kiss_table`:
    a pair is rigid iff neither walk kisses the other."""
    adj = [0] * len(kiss)
    for i, row in enumerate(kiss):
        if row >> i & 1:
            raise ConsistencyError(
                "objects-self-rigid", f"object {objects[i]} is not tau-rigid"
            )
        for j in range(i + 1, len(kiss)):
            if not (row >> j & 1 or kiss[j] >> i & 1):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def rigidity_adjacency(bq: BlossomQuiver, objects: Sequence[StringWord]) -> list[int]:
    """`rigidity_rows` of the objects, extending each string once."""
    return rigidity_rows(object_kisses(bq, objects), objects)


def support_tau_tilting(bq: BlossomQuiver, objects: Sequence[StringWord]) -> list[tuple[int, ...]]:
    """Maximal collections of pairwise tau-rigid objects (as index tuples)."""
    adj = rigidity_adjacency(bq, objects)
    return sorted(map(mask_members, bron_kerbosch(adj, (1 << len(objects)) - 1)))
