"""Validate a rack schedule against the ground-truth simulator.

Each rack machine co-runs its assigned workloads through the engine;
the result compares measured completion times and makespan with the
schedule's predictions — the rack-scale analogue of the paper's
measured-vs-predicted evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set

from repro.errors import ReproError
from repro.rack.model import RackSchedule
from repro.sim.engine import Job, SimOptions, simulate
from repro.sim.noise import NoiseModel
from repro.workloads.spec import WorkloadSpec


@dataclass
class ScheduleValidation:
    """Measured outcome of one schedule."""

    measured_times: Dict[str, float] = field(default_factory=dict)
    predicted_times: Dict[str, float] = field(default_factory=dict)

    @property
    def measured_makespan_s(self) -> float:
        if not self.measured_times:
            raise ReproError("validation holds no measurements")
        return max(self.measured_times.values())

    @property
    def predicted_makespan_s(self) -> float:
        if not self.predicted_times:
            raise ReproError("validation holds no predictions")
        return max(self.predicted_times.values())

    def error_percent(self, workload_name: str) -> float:
        measured = self.measured_times[workload_name]
        predicted = self.predicted_times[workload_name]
        return abs(predicted - measured) / measured * 100.0

    @property
    def makespan_error_percent(self) -> float:
        return (
            abs(self.predicted_makespan_s - self.measured_makespan_s)
            / self.measured_makespan_s
            * 100.0
        )


def validate_schedule(
    schedule: RackSchedule,
    specs: Mapping[str, WorkloadSpec],
    noise: Optional[NoiseModel] = None,
) -> ScheduleValidation:
    """Co-run the schedule through the simulator, per machine.

    ``specs`` maps workload names to their ground-truth specs — the
    actual binaries the descriptions were profiled from.
    """
    validation = ScheduleValidation(predicted_times=dict(schedule.predicted_times))
    for machine in schedule.rack.machines:
        assignments = schedule.assignments_on(machine.name)
        if not assignments:
            continue
        jobs = []
        for a in assignments:
            if a.workload.name not in specs:
                raise ReproError(
                    f"no ground-truth spec provided for workload {a.workload.name!r}"
                )
            jobs.append(Job(specs[a.workload.name], a.placement.hw_thread_ids))
        options = SimOptions(
            noise=noise if noise is not None else NoiseModel(),
            run_tag=f"rack/{machine.name}",
        )
        sim = simulate(machine.spec, jobs, options)
        for a, result in zip(assignments, sim.job_results):
            validation.measured_times[a.workload.name] = result.elapsed_s
    missing = set(validation.predicted_times) - set(validation.measured_times)
    if missing:
        raise ReproError(f"scheduled workloads never ran: {sorted(missing)}")
    return validation


@dataclass
class TimelineValidation:
    """Measured outcome of an executed timeline (churn-aware)."""

    measured_ends: Dict[str, float] = field(default_factory=dict)
    predicted_ends: Dict[str, float] = field(default_factory=dict)

    @property
    def measured_makespan_s(self) -> float:
        if not self.measured_ends:
            raise ReproError("timeline validation holds no measurements")
        return max(self.measured_ends.values())

    @property
    def predicted_makespan_s(self) -> float:
        if not self.predicted_ends:
            raise ReproError("timeline validation holds no predictions")
        return max(self.predicted_ends.values())

    @property
    def makespan_error_percent(self) -> float:
        return (
            abs(self.predicted_makespan_s - self.measured_makespan_s)
            / self.measured_makespan_s
            * 100.0
        )


def validate_timeline(
    timeline,
    schedule_rack,
    specs: Mapping[str, WorkloadSpec],
    noise: Optional[NoiseModel] = None,
) -> TimelineValidation:
    """Replay a :class:`~repro.rack.timeline.Timeline` through the
    churn-aware simulator (:mod:`repro.sim.events`), per machine.

    Each workload starts when the scheduler started it; the simulator
    then accounts for residents arriving and departing, so the gap
    between the two makespans measures how well the scheduler's
    predictions tracked churn.  The simulator cannot move a running
    job, so a workload with more than one entry (it migrated) raises,
    naming it.
    """
    from repro.sim.events import ScheduledJob, simulate_timeline

    seen: Set[str] = set()
    for entry in timeline.entries:
        if entry.workload_name in seen:
            raise ReproError(
                f"workload {entry.workload_name!r} ran on more than one "
                f"placement (it migrated); the churn-aware simulator cannot "
                f"replay a move"
            )
        seen.add(entry.workload_name)
    validation = TimelineValidation(
        predicted_ends={e.workload_name: e.end_s for e in timeline.entries}
    )
    for machine in schedule_rack.machines:
        entries = [e for e in timeline.entries if e.machine_name == machine.name]
        if not entries:
            continue
        jobs = []
        for entry in entries:
            if entry.workload_name not in specs:
                raise ReproError(
                    f"no ground-truth spec for workload {entry.workload_name!r}"
                )
            jobs.append(
                ScheduledJob(
                    specs[entry.workload_name],
                    entry.placement.hw_thread_ids,
                    arrival_s=entry.start_s,
                )
            )
        options = SimOptions(
            noise=noise if noise is not None else NoiseModel(),
            run_tag=f"rack-timeline/{machine.name}",
        )
        result = simulate_timeline(machine.spec, jobs, options)
        for entry in entries:
            validation.measured_ends[entry.workload_name] = result.result_for(
                entry.workload_name
            ).end_s
    missing = set(validation.predicted_ends) - set(validation.measured_ends)
    if missing:
        raise ReproError(f"scheduled workloads never ran: {sorted(missing)}")
    return validation
