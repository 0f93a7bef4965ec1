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
from .errors import ConsistencyError, NotFullError
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

    def arrows_at(self, v: VertexId, sign: int) -> Sequence[Arrow]:
        """The arrows out of v (sign 1) or into v (sign -1), in id order."""
        return self._at.get((v, sign), ())

    @cached_property
    def _at(self) -> dict[tuple[VertexId, int], list[Arrow]]:
        at: dict[tuple[VertexId, int], list[Arrow]] = {}
        for a in sorted(self.arrows, key=lambda a: a.id):
            at.setdefault((a.source, 1), []).append(a)
            at.setdefault((a.target, -1), []).append(a)
        return at


def build_quiver(g: Dag, f: Framing, labels: Mapping[EdgeId, int] | None = None) -> Quiver:
    """Quiver with relations for an amply framed full DAG.

    Arrows come from edges between inner vertices (arrow id = edge id);
    relations are the composable pairs whose weights differ.  `labels` is
    `edge_labeling(g, f)` when the caller already holds it.
    """
    if not is_full(g):
        raise NotFullError("the quiver construction needs a full DAG")
    if labels is None:
        labels = edge_labeling(g, f)
    inner = set(g.inner)
    arrows = []
    for e in sorted(g.tail):
        t, h = g.tail[e], g.head[e]
        if t in inner and h in inner:
            if labels[e] == 1:
                arrows.append(Arrow(e, t, h, 1, e))
            else:
                arrows.append(Arrow(e, h, t, 2, e))
    return _with_weight_relations(Quiver(tuple(sorted(inner)), tuple(arrows), frozenset()))


def _with_weight_relations(q: Quiver) -> Quiver:
    """q with the composable pairs whose weights differ as its relations."""
    rel = frozenset((a.id, b.id) for a in q.arrows for b in q.arrows_at(a.target, 1) if a.weight != b.weight)
    return Quiver(q.nodes, q.arrows, rel)


def gentleness_violations(q: Quiver) -> list[str]:
    """Empty iff the quiver with relations is gentle."""
    issues = []
    for v in q.nodes:
        for sign, side in ((-1, "incoming"), (1, "outgoing")):
            if len(q.arrows_at(v, sign)) > 2:
                issues.append(f"node {v} has more than two {side} arrows")
    rel = q.relations
    for a1, a2 in rel:
        if q.arrow(a1).target != q.arrow(a2).source:
            issues.append(f"relation ({a1},{a2}) is not composable")
    for a in q.arrows:
        for side, pairs in (
            ("continuations", [(a.id, b.id) for b in q.arrows_at(a.target, 1)]),
            ("predecessors", [(b.id, a.id) for b in q.arrows_at(a.source, -1)]),
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
    stack = [((lt,), _letter_ends(q, lt)) for a in q.arrows for lt in ((a.id, 1), (a.id, -1))]
    while stack:
        word, verts = stack.pop()
        words.add(_canonical(word))
        for lt in [(a.id, sign) for sign in (1, -1) for a in q.arrows_at(verts[-1], sign)]:
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
        raise ConsistencyError("route-module-bijection", f"route {route} is exceptional")
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


def _only(items: list, invariant: str, what: str):
    """The one member of `items`, the `what` found; `invariant` is broken
    unless there is exactly one."""
    if len(items) != 1:
        raise ConsistencyError(invariant, f"{what} {items}, expected one")
    return items[0]


def _edge_of_weight(labels: Mapping[EdgeId, int], port: Sequence[EdgeId], weight: int) -> EdgeId:
    es = [e for e in port if labels[e] == weight]
    return _only(es, "route-module-bijection", "edges of one weight in a port:")


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
    path = [_only(first, "route-module-bijection", "first edges of a string's path:")]
    rest = set(edges) - {path[0]}
    while rest:
        nxt = [e for e in rest if g.tail[e] == g.head[path[-1]]]
        path.append(_only(nxt, "route-module-bijection", "next edges of a string's path:"))
        rest.remove(path[-1])
    return path


# -- blossoming ---------------------------------------------------------------------


def blossom(q: Quiver) -> Quiver:
    """Extend a gentle quiver so every original node has two arrows each way.

    New vertices carry a single arrow; weights of the added arrows are the
    complements of the present ones, which pins down the extended relations
    (weight changes) and keeps the result gentle.
    """
    next_node = max((v for v in q.nodes if isinstance(v, int)), default=0) + 1
    next_arrow = max((a.id for a in q.arrows), default=-1) + 1
    arrows = list(q.arrows)
    for v in q.nodes:
        for sign in (-1, 1):
            present = {a.weight for a in q.arrows_at(v, sign)}
            for w in (1, 2):
                if w not in present:
                    ends = (next_node, v) if sign == -1 else (v, next_node)
                    arrows.append(Arrow(next_arrow, *ends, w, None))
                    next_arrow += 1
                    next_node += 1
    nodes = tuple(dict.fromkeys(list(q.nodes) + sorted(
        ({a.source for a in arrows} | {a.target for a in arrows}) - set(q.nodes)
    )))
    return _with_weight_relations(Quiver(nodes, tuple(arrows), frozenset()))


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
        if s != verts[-1]:
            raise ConsistencyError("blossom-extension-is-a-walk", f"letter {lt} does not continue {letters}")
        verts.append(t)
    return Walk(tuple(verts), tuple(letters))


def _candidates(q: Quiver, letters: Sequence[Letter], direct: bool) -> list[Letter]:
    """Letters of one kind (arrows if `direct`, else inverse arrows) that
    may follow the last letter."""
    v = _letter_ends(q, letters[-1])[1]
    sign = 1 if direct else -1
    return [(a.id, sign) for a in q.arrows_at(v, sign) if _letters_ok(q, letters[-1], (a.id, sign))]


def _extend(q: Quiver, letters: list[Letter]) -> None:
    """Append inverse arrows while a valid one exists.  Gentle quivers admit
    at most one, and a string uses each arrow at most once, so it stops."""
    while cands := _candidates(q, letters, direct=False):
        if len(letters) >= len(q.arrows):
            raise ConsistencyError("blossom-extension-unique", f"{letters} extends past every arrow")
        letters.append(_only(cands, "blossom-extension-unique", "extensions:"))


def extend_string(q: Quiver, obj: StringWord) -> Walk:
    """Blossom extension in the blossomed quiver `q`: every object becomes a
    maximal mixed string.

    Each end of the seed gets inverse arrows for as long as they extend it;
    a word first gets one arrow there.  The front end is extended as the
    back end of the inverse word, which mirrors letters and their kinds.
    """
    if obj.kind == "word":
        letters = list(obj.letters)
    elif obj.kind == "const":  # inverse of one arrow out of v, then the other
        a, b = q.arrows_at(obj.vertex, 1)
        letters = [(a.id, -1), (b.id, 1)]
    else:  # shifted marker: an arrow into v, then the other one inverted
        a, b = q.arrows_at(obj.vertex, -1)
        letters = [(a.id, 1), (b.id, -1)]
    for _ in range(2):
        if obj.kind == "word":
            hook = _candidates(q, letters, direct=True)
            letters.append(_only(hook, "blossom-extension-unique", "hooks:"))
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


def kiss_table(walks: Sequence[Walk | None]) -> list[int]:
    """Row i has bit j set iff `obstruction_walks(walks[i], walks[j])` is
    non-empty: every target window of every walk, in both orientations, is
    hashed once, and row i ORs the hits of walk i's source windows.  A None
    position has an empty row and an empty column."""
    targets: dict[tuple, int] = {}
    for j, w in enumerate(walks):
        if w is not None:
            for key in (*_windows(w, 1), *_windows(w.reversed(), 1)):
                targets[key] = targets.get(key, 0) | 1 << j
    return [0 if w is None else reduce(or_, [targets.get(k, 0) for k in _windows(w, -1)], 0) for w in walks]


def tau_rigid_pair(q: Quiver, o1: StringWord, o2: StringWord) -> bool:
    """No common substring is a target in one extension and a source in the
    other: the pairwise reference for `rigidity_rows`."""
    w1, w2 = extend_string(q, o1), extend_string(q, o2)
    return not (obstruction_walks(w1, w2) or obstruction_walks(w2, w1))


def object_kisses(q: Quiver, objects: Sequence[StringWord | None]) -> list[int]:
    """`kiss_table` of the objects' extensions in the blossomed quiver `q`,
    each extended once; a None object stays None."""
    return kiss_table([None if o is None else extend_string(q, o) for o in objects])


def rigidity_rows(kiss: Sequence[int], objects: Sequence[StringWord | None]) -> list[int]:
    """Tau-rigidity graph of the objects as bitmasks (bit j set on row i iff
    i != j and the pair is tau-rigid), read from the objects' `kiss_table`:
    a pair is rigid iff neither walk kisses the other.  None positions are
    skipped: their rows and columns are 0."""
    adj = [0] * len(kiss)
    live = [i for i, o in enumerate(objects) if o is not None]
    for n, i in enumerate(live):
        row = kiss[i]
        if row >> i & 1:
            raise ConsistencyError(
                "objects-self-rigid", f"object {objects[i]} is not tau-rigid"
            )
        for j in live[n + 1 :]:
            if not (row >> j & 1 or kiss[j] >> i & 1):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def support_tau_tilting(q: Quiver, objects: Sequence[StringWord]) -> list[tuple[int, ...]]:
    """Maximal collections of pairwise tau-rigid objects (as index tuples)."""
    adj = rigidity_rows(object_kisses(q, objects), objects)
    return sorted(map(mask_members, bron_kerbosch(adj, (1 << len(objects)) - 1)))
