"""Host speed, measured between program calls, to put times on one scale.

On a shared host the same call can take twice as long from one minute to
the next, while the process keeps its CPU (CPU/wall stays near 1): other
tenants slow the core and its caches down.  A fixed pure-Python loop is
timed between calls, about once per EVERY_S of program time.  A run's
times are multiplied by REFERENCE_S over the median loop time of the run,
which gives seconds at the reference speed: the speed at which the loop
takes REFERENCE_S.  The loop is part of the
benchmark, so no change to the program changes it.

The loop has two halves of about equal time, because the workloads slow
down differently: tuple-keyed dicts, sets and integer arithmetic in a
small working set track the many small calls of `framings-batch`, and
random lookups in a table of TABLE_SIZE entries (about 20 MB, which
`build_table` reports so that the run can leave it out of its peak memory)
track the lattice-point oracle's large dictionaries on `oracle-car10`.  On a 2-vCPU
VM, the quartile spread of 36-second blocks of identical work went from
0.13-0.32 of the median to 0.06-0.10 when scaled by both halves; either
half alone did much worse on one of the two workloads.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time

REFERENCE_S = 0.008  # the loop's time at the reference speed
REPS = 3  # loop runs per sample; a sample is their median
EVERY_S = 1.0  # program seconds between samples
TABLE_SIZE = 300_000
LOOKUPS = 8_000

_table: dict = {}
_keys: list = []


def loop() -> int:
    """One run of the fixed loop: the small working set, then the table."""
    small: dict = {}
    for i in range(8000):
        small[(i * 7919) % 8009, i & 15] = i
    total = 0
    for (a, b), v in small.items():
        if (a + 1, b) in small:
            total += v * v
    total += len(set(range(0, 8000, 3)) & set(range(0, 8000, 5)))
    for k in _keys:
        total += _table[k]
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build_table() -> float:
    """Make the table and the keys looked up in it, once per process, and
    return the growth of the peak resident memory in MB.  The keys are new
    int objects in a fixed random order, so every lookup reads the table's
    index, its entry and the stored key from scattered memory."""
    if _table:
        return 0.0
    before = peak_rss_mb()
    _table.update((i, i) for i in range(TABLE_SIZE))
    order = random.Random(0).sample(range(TABLE_SIZE), LOOKUPS)
    _keys.extend(int(str(k)) for k in order)
    return peak_rss_mb() - before


def sample(reps: int = REPS) -> float:
    """Median time of `reps` runs of the loop.  The garbage collector is
    off meanwhile, so the size of the program's heap does not change what
    the loop measures."""
    build_table()
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Speed:
    """The loop samples of one run.  `factor` turns the run's wall seconds
    into seconds at the reference speed.  It uses the median sample, so a
    burst of load during a few samples hardly moves it."""

    def __init__(self, probe=sample, every: float = EVERY_S):
        self.probe = probe
        self.every = every
        self.samples: list[float] = []
        self.since = 0.0

    def take(self, count: int = 1) -> None:
        self.samples += [self.probe() for _ in range(count)]

    def after(self, seconds: float) -> None:
        """Count `seconds` of program time; take one sample per `every`
        seconds of it, so long calls get as many samples as short ones."""
        self.since += seconds
        if self.since >= self.every:
            self.take(int(self.since / self.every))
            self.since = 0.0

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
