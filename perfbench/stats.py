"""Exact percentiles under the ten-beyond rule, and run-to-run spread.

Percentiles are taken from the raw per-call samples the benchmark
times itself, by nearest rank, so every reported value is one that was
actually observed.  A percentile is only reported when at least ten
samples lie beyond it; below that the tail is a handful of outliers and
the number would not repeat.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the *q* quantile among *n* samples."""
    # The epsilon keeps a product like 0.99 * 1000 from rounding up a rank.
    return max(1, math.ceil(q * n - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie beyond the nearest-rank *q* quantile."""
    return n - _rank(n, q)


def min_samples(q: float) -> int:
    """The smallest sample count for which *q* may be reported."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank *q* quantile of *samples* (``0 < q < 1``).

    Raises :class:`TooFewSamples` when fewer than ten samples lie
    beyond it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed ({min_samples(q)} samples)"
        )
    return sorted(samples)[_rank(n, q) - 1]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and the quartile spread of run values.

    ``spread`` is the distance between the first and third quartile as
    a share of the median, with the quartiles taken the way
    ``statistics.quantiles(values, n=4)`` gives them.
    """
    if len(values) < 2:
        raise TooFewSamples(f"a spread needs at least 2 runs, got {len(values)}")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / abs(median) if median else math.inf,
    }
