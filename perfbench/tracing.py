"""Spans around the calls into flowpoly's layers, made from outside the program.

`Tracer.install` rebinds, in every layer module, the names that point at a
public function of another layer, and the same name in the module that
defines it, so calls through an import, a lazy import or a module attribute
all pass through a wrapper.  A few methods that per-layer metrics need are
wrapped on their class.  `uninstall` restores every original object, so the
traced and untraced runs execute the same code.

Spans stay in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

PACKAGE = "flowpoly"
LAYERS = ("dag", "framing", "triangulation", "poset", "gentle", "ehrhart", "analysis", "cli")

# Methods with a metric of their own; module functions are found by import.
METHODS = {
    "framing": {"CoherenceTable": ("__init__", "adjacency")},
    "poset": {
        "TauPoset": ("h_from_shelling", "default_linear_extension", "random_linear_extensions", "kappa")
    },
}
# Entry points that no other layer imports by name.
ENTRY_POINTS = {"analysis": ("analyze",), "cli": ("main",)}

# A span: (name, start, end, parent span index or -1, instance id, size).
Span = tuple


def _bits(masks: Sequence[int]) -> int:
    return sum(m.bit_count() for m in masks) // 2


# Sizes recorded at a span's end from the layer's return value.
SIZES: dict[str, Callable] = {
    "dag.enumerate_routes": len,
    "dag.complete_contraction": lambda trace: len(trace.steps),
    "framing.CoherenceTable.adjacency": _bits,
    "framing.count_ample_framings": int,
    "triangulation.maximal_cliques": len,
    "triangulation.dual_graph": lambda dg: len(dg.edges),
    "poset.build_poset": lambda p: len(p.hasse),
    "gentle.objects_t": len,
    "gentle.support_tau_tilting": len,
    "ehrhart.flow_count_table": len,
}

# Per-layer metrics.  A time metric sums the self time of its spans, a
# "calls" metric counts them, a "size" metric sums their recorded sizes.
# Every metric is reported per analyze call.
METRICS: list[tuple[str, str, tuple[str, ...]]] = [
    ("ehrhart.counts_s", "time", ("ehrhart.flow_count_table",)),
    ("ehrhart.dilates", "size", ("ehrhart.flow_count_table",)),
    (
        "ehrhart.hstar_s",
        "time",
        ("ehrhart.hstar_from_counts", "ehrhart.finite_differences_vanish", "ehrhart.check_symmetry_unimodality"),
    ),
    ("ehrhart.special_simplex_s", "time", ("ehrhart.special_simplex_check",)),
    ("triangulation.bk_s", "time", ("triangulation.maximal_cliques",)),
    ("triangulation.cliques", "size", ("triangulation.maximal_cliques",)),
    ("triangulation.flips_s", "time", ("triangulation.maximal_cliques_by_flips",)),
    ("triangulation.unimodular_s", "time", ("triangulation.verify_unimodular",)),
    ("triangulation.unimodular_calls", "calls", ("triangulation.verify_unimodular",)),
    ("triangulation.dual_s", "time", ("triangulation.dual_graph",)),
    ("triangulation.dual_calls", "calls", ("triangulation.dual_graph",)),
    ("triangulation.dual_edges", "size", ("triangulation.dual_graph",)),
    ("poset.build_s", "time", ("poset.build_poset",)),
    ("poset.hasse_edges", "size", ("poset.build_poset",)),
    (
        "poset.shelling_s",
        "time",
        (
            "poset.TauPoset.h_from_shelling",
            "poset.TauPoset.default_linear_extension",
            "poset.TauPoset.random_linear_extensions",
        ),
    ),
    ("poset.kappa_s", "time", ("poset.TauPoset.kappa",)),
    ("gentle.quiver_s", "time", ("gentle.build_quiver", "gentle.blossom", "gentle.gentleness_violations")),
    ("gentle.objects_s", "time", ("gentle.objects_t",)),
    ("gentle.objects", "size", ("gentle.objects_t",)),
    ("gentle.bijection_s", "time", ("gentle.route_to_module", "gentle.module_to_route")),
    ("gentle.rigidity_s", "time", ("gentle.tau_rigid_pair",)),
    ("gentle.rigidity_pairs", "calls", ("gentle.tau_rigid_pair",)),
    ("gentle.tau_tilting_s", "time", ("gentle.support_tau_tilting",)),
    ("gentle.collections", "size", ("gentle.support_tau_tilting",)),
    ("framing.table_s", "time", ("framing.CoherenceTable.__init__", "framing.CoherenceTable.adjacency")),
    ("framing.coherent_pairs", "size", ("framing.CoherenceTable.adjacency",)),
    ("framing.count_s", "time", ("framing.count_ample_framings",)),
    ("framing.enumerate_s", "time", ("framing.enumerate_ample_framings",)),
    ("framing.ample_framings", "size", ("framing.count_ample_framings",)),
    ("dag.routes_s", "time", ("dag.enumerate_routes",)),
    ("dag.routes", "size", ("dag.enumerate_routes",)),
    ("dag.contract_s", "time", ("dag.complete_contraction",)),
    ("dag.contracted_edges", "size", ("dag.complete_contraction",)),
    ("dag.json_s", "time", ("dag.dag_from_json", "dag.dag_to_json")),
]


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    instance: int = -1
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[Callable[[], None]] = field(default_factory=list)

    # -- wrappers ------------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, result, failed: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        size_of = SIZES.get(name)
        size = size_of(result) if size_of and not failed else None
        self.spans[idx] = (name, start, end, parent, self.instance, size)

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            result, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(idx, name, start, result, failed)

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per resumption, so the consumer's work between items
        stays out of the generator's time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, name, start, None, True)
                    yield item
            finally:
                inner.close()

        return traced

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self) -> None:
        """Wrap every cross-layer function and the listed methods.  A listed
        name that no longer exists is recorded in `absent`."""
        self.absent = []
        modules = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                self.absent.append(layer)
            else:
                modules[layer] = mod
        targets: dict[tuple[str, str], Callable] = {}
        for layer, mod in modules.items():
            for obj in list(vars(mod).values()):
                owner = getattr(obj, "__module__", "") or ""
                home = owner.rpartition(".")[2]
                if inspect.isfunction(obj) and owner.startswith(PACKAGE + ".") and home in modules and home != layer:
                    targets[(home, obj.__name__)] = obj
        named = {n for _, _, names in METRICS for n in names if n.count(".") == 1}
        named |= {f"{layer}.{f}" for layer, fs in ENTRY_POINTS.items() for f in fs}
        for name in sorted(named):
            layer, _, fname = name.partition(".")
            fn = getattr(modules.get(layer), fname, None)
            if inspect.isfunction(fn):
                targets[(layer, fname)] = fn
            elif layer in modules:
                self.absent.append(name)
        for (home, fname), fn in targets.items():
            wrapped = self.wrap(f"{home}.{fname}", fn)
            for mod in modules.values():
                for attr in [a for a, obj in vars(mod).items() if obj is fn]:
                    self._rebind(mod, attr, wrapped)
        for layer, classes in METHODS.items():
            for cname, mnames in classes.items():
                cls = getattr(modules.get(layer), cname, None)
                for mname in mnames:
                    self._wrap_method(cls, f"{layer}.{cname}.{mname}", mname)

    def _wrap_method(self, cls, name: str, mname: str) -> None:
        attr = cls.__dict__.get(mname) if isinstance(cls, type) else None
        if isinstance(attr, functools.cached_property):
            original = attr.func
            attr.func = self.wrap(name, original)
            self._undo.append(lambda: setattr(attr, "func", original))
        elif inspect.isfunction(attr):
            self._rebind(cls, mname, self.wrap(name, attr))
        else:
            self.absent.append(name)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path, header: dict) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span, own in zip(self.spans, selfs):
                fh.write(json.dumps(list(span) + [own]) + "\n")


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: Sequence[Span], analyses: int, absent: Sequence[str]) -> dict[str, float | None]:
    """Per-analyze-call totals of every metric in METRICS, and each layer's
    whole self time as `<layer>.self_s`.  A metric whose layer or name is
    absent reads None."""
    own = self_times(spans)
    time_by: dict[str, float] = {}
    calls_by: dict[str, int] = {}
    size_by: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, own):
        name = span[0]
        time_by[name] = time_by.get(name, 0.0) + t
        calls_by[name] = calls_by.get(name, 0) + 1
        if span[5] is not None:
            size_by[name] = size_by.get(name, 0) + span[5]
        layer_self[name.partition(".")[0]] += t
    gone = set(absent)
    out: dict[str, float | None] = {}
    for metric, kind, names in METRICS:
        if any(n in gone or n.partition(".")[0] in gone for n in names):
            out[metric] = None
            continue
        table = {"time": time_by, "calls": calls_by, "size": size_by}[kind]
        out[metric] = sum(table.get(n, 0) for n in names) / analyses
    for layer in LAYERS:
        out[f"{layer}.self_s"] = None if layer in gone else layer_self[layer] / analyses
    return out
