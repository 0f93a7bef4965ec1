"""The benchmark's tracer (perfbench/tracing.py) finds every function it wraps.

A wrapped function that is renamed or deleted makes its per-layer metric
read None, and the benchmark then leaves that metric out of a traced run.
"""

import importlib.util
import sys
from pathlib import Path

import flowpoly.cli  # noqa: F401  (imports every layer the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_wrapped_function(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
