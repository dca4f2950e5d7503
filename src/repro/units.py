"""Unit conventions and small numeric helpers shared across the package.

Following the paper (Section 3, Figure 3) exact units do not matter so
long as machine and workload use the same scale.  We standardise on:

* time        — seconds
* frequency   — GHz (cycles per nanosecond)
* instruction
  throughput  — giga-instructions per second (Ginstr/s)
* bandwidth   — GB/s
* capacity    — MiB for caches, GiB for DRAM
* work        — giga-instructions (Ginstr)

Helpers here are deliberately tiny; anything with behaviour lives in a
real module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Tolerance used when comparing resource rates and times.
EPSILON = 1e-9

#: Bytes in one cache line; stress applications touch one value per line.
CACHE_LINE_BYTES = 64

KIB = 1024
MIB = 1024 * KIB


def near_zero(value: float, tolerance: float = EPSILON) -> bool:
    """True when *value* is within *tolerance* of zero.

    The tolerance-band replacement for ``value == 0.0`` that PD-FLOAT
    (``repro.lint``) flags: capacities, rates and loads are computed
    floats, and exact equality on them is bit-level.
    """
    return abs(value) < tolerance


def safe_div(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Divide, returning *default* when the denominator is ~zero."""
    if near_zero(denominator):
        return default
    return numerator / denominator


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp *value* into the inclusive range [*lo*, *hi*]."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def median(values: Iterable[float]) -> float:
    """Median; raises ``ValueError`` on an empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median() of empty sequence")
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
