"""Closed-form answers that the benchmark checks flowpoly against.

Nothing here imports flowpoly: each value comes from a formula for the
graph family, so a wrong count cannot be confirmed by the code under test.
"""

from __future__ import annotations

from math import comb


def narayana_row(n: int) -> list[int]:
    """N(n, k) = C(n, k) C(n, k-1) / n for k = 1..n."""
    return [comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1)]


def zigzag(n: int) -> int:
    """Euler zigzag number E_n (1, 1, 1, 2, 5, 16, 61, ...), by the
    Seidel-Entringer boustrophedon; odd n give the tangent numbers."""
    row = [1]
    for _ in range(n):
        nxt = [0]
        for x in reversed(row):
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def trim_zeros(h: list[int]) -> list[int]:
    """h* padded to the dimension, without its trailing zeros."""
    h = list(h)
    while h and h[-1] == 0:
        h.pop()
    return h


def caracol_hstar(n: int) -> list[int]:
    """h* of the caracol flow polytope car(n): the Narayana row N(n-3, .)."""
    return narayana_row(n - 3)


def gkn2_volume(m: int) -> int:
    """Normalized volume of the gkn(2, m) flow polytope: the zigzag number
    E_{m-2}, a tangent number for odd m-2."""
    return zigzag(m - 2)


def canonical_framings_expected(count: int) -> int:
    """Canonical ample framings for `count` = 2^M ample framings of a full
    DAG: one of each global label swap, so half of them, or 1 when M = 0."""
    return 1 if count == 1 else count // 2
