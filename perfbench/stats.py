"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank p-th percentile of a nonempty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: int) -> int:
    """Samples ranked above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100 * n))


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile below 100 with at least ten of n samples
    above it, or None when the sample is too small for any."""
    for p in range(99, 0, -1):
        if samples_beyond(n, p) >= 10:
            return p
    return None
