"""flowpoly benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload oracle-car10 --seed 1 --seconds 32 --trace 0

Run from the root of a flowpoly checkout; the package is imported from
its `src/`.  With `--trace 0` the run reports the end-to-end metrics,
its times scaled to a reference host speed (see hostspeed.py);
with `--trace 1` it alternates untraced and traced instances and reports
the per-layer metrics, writing every span to `.perfbench/` at the end.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import pipeline
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 9


def set_up(workload: str, seed: int):
    """Import flowpoly and build, contract and serialize the inputs."""
    pkg = pipeline.import_program(SRC)
    return pkg, pipeline.WORKLOADS[workload](pkg, seed)


def measure(pkg, source, seed: int, seconds: float, tracer, workdir: Path, speed):
    """Run instances until their calls have taken `seconds` in all.  With a
    tracer, each graph runs twice, untraced and then traced, so the two
    sides see the same inputs.  Input generation between instances is not
    timed; `speed` samples the host speed between instances.
    Returns (calls, traced flags, timed seconds)."""
    calls, traced, timed = [], [], 0.0
    i = 0
    while timed < seconds or (tracer is not None and i % 2):
        graph = source.graph(i // 2 if tracer else i)
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.instance = i
            tracer.install()
        try:
            inst = pipeline.run_instance(pkg, graph, workdir, seed)
        finally:
            if on:
                tracer.uninstall()
        for c in inst:  # keep only the outcome, so memory does not grow with the call count
            c.stdout = c.payload = None
        speed.after(sum(c.seconds for c in inst))
        calls += inst
        traced += [on] * len(inst)
        timed += sum(c.seconds for c in inst)
        i += 1
    speed.take()
    return calls, traced, timed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "flowpoly" / "__init__.py").is_file():
        print(f"no flowpoly sources under {SRC}", file=sys.stderr)
        return 2

    table_mb = hostspeed.build_table()
    speed = hostspeed.Speed()
    speed.take()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPS):
        start = time.perf_counter()
        pkg, source = set_up(args.workload, args.seed)
        setups.append(time.perf_counter() - start)
        speed.take()
    inputs = pipeline.digest(source.graphs)
    nproc = len(os.sched_getaffinity(0))
    print(f"workload {args.workload} seed {args.seed}: python {platform.python_version()}, nproc {nproc}")
    print(f"inputs sha256 {inputs} ({len(source.graphs)} graphs set up)")

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        calls, traced, timed = measure(pkg, source, args.seed, args.seconds, tracer, workdir, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    analyses = [c for c, on in zip(calls, traced) if c.kind == "analyze" and not on]
    failed = [c for c in calls if c.failed]
    print(f"calls {len(calls)}, failed {len(failed)}, failed_frac {len(failed) / len(calls):.6f}")
    for c in failed[:20]:
        print(f"  FAILED {c.kind} {' '.join(c.argv)}: {c.error or ''} {'; '.join(c.mismatch)}")

    if args.trace:
        metrics = traced_metrics(args, calls, traced, tracer, inputs, nproc)
    else:
        wall = [c.seconds for c in analyses]
        ok = sum(1 for c in analyses if not c.failed)
        cpu = sum(c.cpu for c in calls)
        loops, factor = speed.samples, speed.factor()
        times = [t * factor for t in wall]
        print(f"analyze calls {len(times)} in {timed:.3f} s of calls, CPU/wall {cpu / timed:.3f}")
        print(
            f"host speed: loop median {statistics.median(loops) * 1e3:.3f} ms over {len(loops)} samples "
            f"(min {min(loops) * 1e3:.3f}, max {max(loops) * 1e3:.3f}; reference {hostspeed.REFERENCE_S * 1e3:g}), "
            f"times scaled by {factor:.4f}"
        )
        print(f"peak RSS {hostspeed.peak_rss_mb():.3f} MB, of which the host-speed table {table_mb:.3f} MB")
        print(
            f"wall, unscaled: verdict_s {statistics.median(wall):.6f} s, "
            f"analyses_per_s {ok / timed:.6g} 1/s, setup_s {statistics.median(setups):.6f} s"
        )
        if len(times) <= 20:
            print("analyze seconds (scaled) " + " ".join(f"{t:.3f}" for t in times))
        tail = stats.tail_percentile(len(times))
        if tail is not None and tail >= 90:
            print(f"verdict_s_p90 {stats.percentile(times, 90):.6f} s (n={len(times)})")
        if tail is not None:
            print(f"verdict_s_p{tail} {stats.percentile(times, tail):.6f} s (highest percentile with >=10 beyond)")
        metrics = {
            "verdict_s": (statistics.median(times), "s"),
            "analyses_per_s": (ok / (timed * factor), "1/s"),
            "peak_rss_mb": (hostspeed.peak_rss_mb() - table_mb, "MB"),
            "setup_s": (statistics.median(setups) * factor, "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(args, calls, traced, tracer, inputs, nproc) -> dict:
    """Per-layer metrics of the traced instances, per analyze call."""
    spans = tracer.spans
    plain = [c.seconds for c, on in zip(calls, traced) if c.kind == "analyze" and not on]
    with_trace = [c.seconds for c, on in zip(calls, traced) if c.kind == "analyze" and on]
    layers = tracing.layer_metrics(spans, len(with_trace), tracer.absent)
    if tracer.absent:
        print("absent (not reported): " + ", ".join(sorted(set(tracer.absent))))
    counts = {name for name, kind, _ in tracing.METRICS if kind != "time"}
    metrics = {
        name: (value, "count" if name in counts else "s") for name, value in layers.items() if value is not None
    }
    verdict = statistics.median(with_trace)
    metrics["trace.overhead_s"] = (verdict - statistics.median(plain), "s")
    mean = sum(with_trace) / len(with_trace)
    print(f"traced analyze calls {len(with_trace)}, untraced {len(plain)}, spans {len(spans)}")
    print(f"share of the mean traced analyze call ({mean:.6f} s): "
          f"ehrhart.counts_s {(layers['ehrhart.counts_s'] or 0) / mean:.1%}, "
          f"ehrhart.* {(layers['ehrhart.self_s'] or 0) / mean:.1%}")
    OUT.mkdir(exist_ok=True)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": nproc,
        "inputs_sha256": inputs,
        "absent": sorted(set(tracer.absent)),
        "columns": ["name", "start", "end", "parent", "instance", "size", "self"],
    }
    path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(path, header)
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
