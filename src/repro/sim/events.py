"""Event-driven co-run simulation: jobs arriving and finishing over time.

The steady-state engine (:mod:`repro.sim.engine`) assumes every job in
a run co-resides for the whole duration.  Real servers see churn: a job
finishing relieves contention for the survivors.  This module simulates
that with the standard malleable-task approximation: between events the
resident set is fixed, each job progresses at ``1/T_j(residents)``
fractions per second — where ``T_j`` is the steady-state completion
time the engine predicts for the current resident set — and at every
arrival or completion the rates are re-solved.

A job that runs alone end-to-end gets exactly its engine time; a job
whose noisy neighbour departs halfway speeds up for its second half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.hardware.spec import MachineSpec
from repro.sim.engine import Job, SimOptions, simulate
from repro.workloads.spec import WorkloadSpec

_EPS = 1e-9


@dataclass(frozen=True)
class ScheduledJob:
    """A pinned workload with an arrival time."""

    spec: WorkloadSpec
    hw_thread_ids: Tuple[int, ...]
    arrival_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hw_thread_ids", tuple(self.hw_thread_ids))
        if self.arrival_s < 0:
            raise SimulationError(
                f"{self.spec.name}: arrival time cannot be negative, "
                f"got {self.arrival_s!r} s"
            )
        if self.spec.background:
            raise SimulationError(
                f"{self.spec.name} is a background job; event simulation "
                f"takes foreground jobs only"
            )


@dataclass
class EventedJobResult:
    """Execution record of one job."""

    name: str
    arrival_s: float
    end_s: float
    segments: List[Tuple[float, float, float]] = field(default_factory=list)
    #: (segment start, segment end, hypothetical full-run time under
    #: that segment's resident set)

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.arrival_s


@dataclass
class TimelineSimResult:
    """Outcome of one event-driven simulation."""

    results: Dict[str, EventedJobResult] = field(default_factory=dict)
    events: List[float] = field(default_factory=list)
    machine_name: str = "an unnamed machine"

    def result_for(self, name: str) -> EventedJobResult:
        try:
            return self.results[name]
        except KeyError:
            raise SimulationError(f"no job named {name!r} in this simulation") from None

    @property
    def makespan_s(self) -> float:
        if not self.results:
            raise SimulationError(
                f"timeline simulation on {self.machine_name} ran no jobs, "
                f"so it has no makespan"
            )
        return max(r.end_s for r in self.results.values())


def _steady_times(
    machine: MachineSpec,
    residents: Sequence[ScheduledJob],
    options: SimOptions,
) -> Dict[str, float]:
    """Full-run completion times if the resident set stayed fixed."""
    tag = options.run_tag + "/" + "+".join(sorted(j.spec.name for j in residents))
    opts = SimOptions(
        turbo_enabled=options.turbo_enabled,
        noise=options.noise,
        measurement_window_s=options.measurement_window_s,
        inner_max_iters=options.inner_max_iters,
        inner_tolerance=options.inner_tolerance,
        outer_max_iters=options.outer_max_iters,
        outer_tolerance=options.outer_tolerance,
        run_tag=tag,
    )
    sim = simulate(machine, [Job(j.spec, j.hw_thread_ids) for j in residents], opts)
    return {
        jr.job.spec.name: jr.elapsed_s for jr in sim.job_results
    }


def simulate_timeline(
    machine: MachineSpec,
    jobs: Sequence[ScheduledJob],
    options: Optional[SimOptions] = None,
) -> TimelineSimResult:
    """Run *jobs* with churn-aware contention.

    Jobs sharing hardware threads must not overlap *in time*; overlap
    in space is legal only if their execution windows are disjoint,
    which the simulation detects and rejects as it plays out.
    """
    opts = options or SimOptions()
    if not jobs:
        raise SimulationError(
            f"simulate_timeline() on {machine.name} needs at least one job"
        )
    names = [j.spec.name for j in jobs]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate job names: {names}")

    pending = sorted(jobs, key=lambda j: j.arrival_s)
    active: List[ScheduledJob] = []
    remaining: Dict[str, float] = {}
    out = TimelineSimResult(machine_name=machine.name)
    now = 0.0

    while pending or active:
        # Admit arrivals.
        while pending and pending[0].arrival_s <= now + _EPS:
            job = pending.pop(0)
            for other in active:
                if set(job.hw_thread_ids) & set(other.hw_thread_ids):
                    raise SimulationError(
                        f"jobs {job.spec.name!r} and {other.spec.name!r} "
                        f"overlap in time on shared hardware threads"
                    )
            active.append(job)
            remaining[job.spec.name] = 1.0
            out.results[job.spec.name] = EventedJobResult(
                name=job.spec.name, arrival_s=job.arrival_s, end_s=math.inf
            )
            out.events.append(now)

        if not active:
            if not pending:
                break
            now = pending[0].arrival_s
            continue

        times = _steady_times(machine, active, opts)
        # Next event: earliest completion under current rates, or arrival.
        completions = {
            j.spec.name: now + remaining[j.spec.name] * times[j.spec.name]
            for j in active
        }
        next_completion = min(completions.values())
        next_arrival = pending[0].arrival_s if pending else math.inf
        horizon = min(next_completion, next_arrival)
        dt = horizon - now

        finished: List[str] = []
        for j in active:
            segment = (now, horizon, times[j.spec.name])
            out.results[j.spec.name].segments.append(segment)
            remaining[j.spec.name] -= dt / times[j.spec.name]
            if remaining[j.spec.name] <= _EPS:
                finished.append(j.spec.name)
                out.results[j.spec.name].end_s = horizon
        active = [j for j in active if j.spec.name not in finished]
        now = horizon
        out.events.append(now)

    return out
