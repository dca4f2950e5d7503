"""Shared telemetry record types.

:class:`ConvergenceRecord` is the one-iteration unit of fixed-point
telemetry used by *every* iterative solver in the repo — the
predictor's fixed-point kernel (a traced ``predict`` call's
``keep_trace`` rows are these records, and every kernel call attaches
population-level records to its span) and, where useful, the
simulator's outer loop.  Keeping one shape makes a traced prediction's
rows and population records directly comparable: both expose
``iteration``, ``max_residual``, ``alive`` and ``compacted``; solver-
specific per-thread vectors ride in ``vectors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass
class ConvergenceRecord:
    """One iteration of a fixed-point solve.

    ``max_residual`` is the iteration's convergence residual (``max
    |Δslowdown|`` for the predictor); the first iteration, having no
    predecessor, records ``inf``.  ``alive`` counts the rows still
    iterating (1 for a one-row solve), ``compacted`` the rows retired
    *by* this iteration (batch active-set compaction).
    """

    iteration: int
    max_residual: float = math.inf
    alive: int = 1
    compacted: int = 0
    #: Named per-thread value vectors (e.g. a traced prediction's
    #: ``overall_slowdown``); empty for population-level records.
    vectors: Dict[str, Tuple[float, ...]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON-able form (what span attrs / JSONL carry)."""
        out: Dict[str, Any] = {
            "iteration": self.iteration,
            "max_residual": self.max_residual,
            "alive": self.alive,
            "compacted": self.compacted,
        }
        if self.vectors:
            out["vectors"] = {k: list(v) for k, v in self.vectors.items()}
        return out
