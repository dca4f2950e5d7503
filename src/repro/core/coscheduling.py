"""Co-scheduling prediction: multiple workloads sharing one machine.

The paper closes with: "We believe Pandia's prediction of resource
consumption as well as overall workload performance will let us handle
cases with multiple workloads sharing a machine" by "looking at their
total demands" (Sections 6.3 and 8).  This module packages that
extension: each co-schedule is one row of the Section-5 kernel
(:meth:`repro.core.predictor.PandiaPredictor._solve`), a solo
prediction being the one-job row.

Each workload keeps its own Amdahl speedup, utilisation baseline,
communication structure (intra-workload only) and load-balance coupling
(intra-workload only); what they share is the machine — all threads'
utilisation-scaled demands are summed on each resource, and a core
hosting threads of *different* workloads still switches to its measured
SMT aggregate capacity and incurs each workload's burstiness penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.description import WorkloadDescription
from repro.core.machine_desc import MachineDescription
from repro.core.placement import Placement
from repro.core.predictor import (
    BATCH_CHUNK,
    Job,
    PandiaPredictor,
    Prediction,
    ResourceKey,
)
from repro.errors import PredictionError


@dataclass(frozen=True)
class CoScheduledWorkload:
    """One workload and the placement it is pinned to."""

    description: WorkloadDescription
    placement: Placement


@dataclass
class WorkloadOutcome:
    """Per-workload prediction within a co-schedule."""

    workload_name: str
    amdahl: float
    speedup: float
    predicted_time_s: float
    slowdowns: Tuple[float, ...]

    @property
    def relative_time(self) -> float:
        return 1.0 / self.speedup


@dataclass
class CoSchedulePrediction:
    """Joint prediction for a set of co-scheduled workloads."""

    outcomes: List[WorkloadOutcome]
    iterations: int
    converged: bool
    resource_loads: Dict[ResourceKey, float]
    resource_capacities: Dict[ResourceKey, float]

    def outcome_for(self, workload_name: str) -> WorkloadOutcome:
        for outcome in self.outcomes:
            if outcome.workload_name == workload_name:
                return outcome
        raise PredictionError(f"no outcome for workload {workload_name!r}")


class CoSchedulePredictor:
    """Joint performance predictor for workloads sharing a machine.

    A co-schedule is one row of :class:`PandiaPredictor`'s kernel: each
    job keeps its own Amdahl speedup, utilisation baseline,
    communication and load-balance terms, while every job's demands are
    summed on the shared resources.
    """

    def __init__(
        self,
        machine_description: MachineDescription,
        max_iterations: int = 500,
        tolerance: float = 1e-6,
    ) -> None:
        self.md = machine_description
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self._kernel = PandiaPredictor(machine_description, max_iterations, tolerance)

    def predict(self, jobs: Sequence[CoScheduledWorkload]) -> CoSchedulePrediction:
        """Joint prediction of one co-schedule."""
        (row,) = self._kernel._solve([self._row(jobs)], "coscheduling.predict")
        return _joint(row)

    def predict_batch(
        self, schedules: Sequence[Sequence[CoScheduledWorkload]]
    ) -> List[CoSchedulePrediction]:
        """Joint predictions of many co-schedules in one vectorised fixed
        point (chunks of :data:`BATCH_CHUNK` rows).  Each result is
        bit-identical to :meth:`predict` on that co-schedule."""
        rows = [self._row(jobs) for jobs in schedules]
        return [
            _joint(row)
            for start in range(0, len(rows), BATCH_CHUNK)
            for row in self._kernel._solve(
                rows[start : start + BATCH_CHUNK], "coscheduling.predict_batch"
            )
        ]

    def _row(self, jobs: Sequence[CoScheduledWorkload]) -> List[Job]:
        if not jobs:
            raise PredictionError(
                f"machine {self.md.machine_name}: no workloads to co-schedule"
            )
        return [(job.description, job.placement) for job in jobs]


def _joint(row: Sequence[Prediction]) -> CoSchedulePrediction:
    """Package one kernel row's per-job predictions."""
    return CoSchedulePrediction(
        outcomes=[
            WorkloadOutcome(
                workload_name=p.workload_name,
                amdahl=p.amdahl,
                speedup=p.speedup,
                predicted_time_s=p.predicted_time_s,
                slowdowns=p.slowdowns,
            )
            for p in row
        ],
        iterations=row[0].iterations,
        converged=row[0].converged,
        resource_loads=row[0].resource_loads,
        resource_capacities=row[0].resource_capacities,
    )
