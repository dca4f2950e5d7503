"""Explain a prediction: where does the time go?

Related work the paper cites (Scal-Tool [28]) *explains* performance
characteristics rather than predicting them; Pandia's iterative
predictor computes everything needed to do both.  This module turns a
:class:`~repro.core.predictor.Prediction` into a human-readable
account: the Amdahl ceiling, each penalty's contribution, the most
loaded resources, and per-thread slowdown structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.core.predictor import Prediction, ResourceKey
from repro.errors import ReproError
from repro.units import mean


def _resource_label(key: ResourceKey) -> str:
    kind, where = key
    if kind == "core":
        return f"core {where}"
    if kind == "cache_link":
        level, core = where
        return f"{level} link of core {core}"
    if kind == "cache_agg":
        level, socket = where
        return f"{level} aggregate of socket {socket}"
    if kind == "dram":
        return f"DRAM node {where}"
    if kind == "link":
        a, b = where
        return f"interconnect {a}<->{b}"
    return f"{kind} {where}"


@dataclass
class PenaltyBreakdown:
    """Average per-thread slowdown contributions of the final iteration."""

    resource: float
    communication: float
    load_balance: float

    @property
    def total(self) -> float:
        return self.resource + self.communication + self.load_balance


def _untraced(prediction: Prediction) -> str:
    return (
        f"explain needs a prediction made with keep_trace=True; the prediction "
        f"for workload {prediction.workload_name!r} on "
        f"{prediction.machine_name} has no trace"
    )


def penalty_breakdown(prediction: Prediction) -> PenaltyBreakdown:
    """Split the final mean slowdown into the three penalty classes.

    Requires a prediction made with ``keep_trace=True``.
    """
    if not prediction.trace:
        raise ReproError(_untraced(prediction))
    last = prediction.trace[-1]
    n = prediction.n_threads
    resource_part = mean([s - 1.0 for s in last.resource_slowdown])
    comm_part = mean(list(last.comm_penalty))
    balance_part = mean(list(last.balance_penalty))
    return PenaltyBreakdown(
        resource=resource_part,
        communication=comm_part,
        load_balance=balance_part,
    )


def top_resources(
    prediction: Prediction, limit: int = 5
) -> List[Tuple[ResourceKey, float]]:
    """The most utilised resources (load/capacity), highest first."""
    ratios = prediction.resource_utilisation()
    ranked = sorted(ratios.items(), key=lambda kv: -kv[1])
    return ranked[:limit]


def explain(prediction: Prediction) -> str:
    """A full textual account of one prediction."""
    if not prediction.trace:
        raise ReproError(_untraced(prediction))
    breakdown = penalty_breakdown(prediction)
    lines = [
        f"{prediction.workload_name} on {prediction.machine_name}: "
        f"{prediction.n_threads} threads",
        f"  Amdahl ceiling: {prediction.amdahl:.2f}x; "
        f"predicted: {prediction.speedup:.2f}x "
        f"({prediction.predicted_time_s:.3f} s)",
        f"  converged after {prediction.iterations} iteration(s)",
        "",
        "mean per-thread slowdown contributions:",
        f"  resource contention (+burstiness): +{breakdown.resource:.3f}",
        f"  inter-socket communication:        +{breakdown.communication:.3f}",
        f"  load-balance coupling:             +{breakdown.load_balance:.3f}",
        "",
        "most utilised resources:",
    ]
    rows = [
        [_resource_label(key), f"{ratio * 100:.1f}%"]
        for key, ratio in top_resources(prediction)
    ]
    lines.append(format_table(["resource", "predicted utilisation"], rows))

    slow = max(prediction.slowdowns)
    fast = min(prediction.slowdowns)
    lines.append("")
    lines.append(
        f"thread slowdowns: min {fast:.2f}x, max {slow:.2f}x"
        + (" (uniform)" if abs(slow - fast) < 1e-9 else "")
    )
    bottleneck = prediction.bottleneck()
    if bottleneck is not None:
        ratio = prediction.resource_utilisation()[bottleneck]
        lines.append(
            f"bottleneck: {_resource_label(bottleneck)} at {ratio * 100:.0f}% "
            f"of measured capacity"
        )
    return "\n".join(lines)
