"""The online scheduling service: arrivals in, placement decisions out.

:class:`OnlineScheduler` ties the pieces together.  It runs the
discrete-event loop (:mod:`repro.online.events`) over an
:class:`~repro.online.trace.ArrivalTrace`, keeps fleet state in the
shared :class:`~repro.rack.occupancy.FleetOccupancy` residency model,
and delegates every placement choice to a pluggable
:class:`~repro.online.policies.PlacementPolicy` bound to the
:class:`~repro.rack.scheduler.RackScheduler` decision core.

Per event:

* **Arrival** — all arrivals at one timestamp are drained as one batch
  through the policy.  Admitted jobs are placed, then every affected
  machine's co-schedule is re-predicted *once* to time the newcomers
  and re-time disturbed residents (contention changed for everyone on
  the machine).  Unplaceable jobs stay pending and retry at the next
  event.
* **Departure** — the finished job frees its contexts and its
  machine's survivors are re-predicted: they now run faster, so their
  departure events move earlier.  Stale departure events (superseded
  by a re-prediction) are version-checked and skipped on pop.
* **Reschedule** — pushed after each departure when migration is
  enabled: the latest-finishing resident is hypothetically detached
  and re-auctioned across the fleet; the move commits only if it
  improves the predicted fleet makespan by more than the hysteresis
  threshold (progress is conserved as a fraction of the old
  prediction).

A cold-start trace — every job arriving at ``t=0`` on an empty fleet,
under the predicted-slowdown policy — admits exactly one batch through
the *same* ``admit_batch`` call the offline
:meth:`~repro.rack.scheduler.RackScheduler.schedule` makes, so the
decisions (and the predicted durations) are bit-identical to the batch
scheduler's.  ``tests/online/test_batch_equivalence.py`` holds this
property.

The headline quality metric is **slowdown**: a finished job's
turnaround time (queueing included) over its predicted solo time on
its best machine.  Packing blindly looks fine on placement latency and
terrible on slowdown — which is the point of the comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.core.placement import Placement
from repro.errors import ReproError
from repro.obs.metrics import Metrics
from repro.online.events import Event, EventKind, EventLog, EventLoop
from repro.online.policies import PlacementPolicy, get_policy
from repro.online.trace import ArrivalTrace, Job
from repro.rack.model import Rack
from repro.rack.occupancy import FleetOccupancy
from repro.rack.scheduler import RackScheduler
from repro.rack.timeline import Timeline, TimelineEntry

__all__ = [
    "CompletedJob",
    "Decision",
    "OnlineResult",
    "OnlineScheduler",
    "OnlineStats",
]

#: Event counters kept by the service.
_COUNTER_FIELDS = (
    "arrivals",
    "departures",
    "decisions",
    "migrations",
    "stale_events",
    "deferrals",
)
_TIME_FIELDS = ("wall_time_s",)
#: Admission-latency buckets (microseconds of wall clock per admit call).
_DECISION_US_BUCKETS = (
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
    5000.0, 10000.0, 50000.0, 250000.0,
)
#: Slowdown buckets (1.0 = ran at predicted solo speed, no queueing).
_SLOWDOWN_BUCKETS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0)


class OnlineStats:
    """Service metrics: a typed view over an ``online.*`` registry.

    Mirrors :class:`repro.search.stats.SearchStats`: the counters the
    service bumps live in a :class:`repro.obs.Metrics` registry, so
    they merge/export like every other metric.  ``deferrals`` counts
    deferral *instances* — a job bounced at three drains counts three.
    ``online.decision_us`` holds one sample per policy admit call, its
    wall time, whether the call placed any job or none.
    """

    __slots__ = ("metrics",)

    def __init__(self, registry: Optional[Metrics] = None) -> None:
        self.metrics = registry if registry is not None else Metrics()
        for name in _COUNTER_FIELDS + _TIME_FIELDS:
            self.metrics.counter(f"online.{name}")
        self.metrics.histogram("online.decision_us", _DECISION_US_BUCKETS)
        self.metrics.histogram("online.queue_depth")
        self.metrics.histogram("online.slowdown", _SLOWDOWN_BUCKETS)

    # -- mutation (the service's write API) ------------------------------

    def inc(self, name: str, amount: Union[int, float] = 1) -> None:
        """Bump one ``online.<name>`` counter."""
        if name not in _COUNTER_FIELDS and name not in _TIME_FIELDS:
            raise KeyError(f"unknown online stat {name!r}")
        self.metrics.counter(f"online.{name}").inc(amount)

    def observe_decision_us(self, value: float) -> None:
        self.metrics.histogram("online.decision_us", _DECISION_US_BUCKETS).observe(value)

    def observe_queue_depth(self, depth: int) -> None:
        self.metrics.gauge("online.queue_depth").set(float(depth))
        self.metrics.histogram("online.queue_depth").observe(depth)

    def observe_slowdown(self, value: float) -> None:
        self.metrics.histogram("online.slowdown", _SLOWDOWN_BUCKETS).observe(value)

    # -- reads ------------------------------------------------------------

    def _value(self, name: str) -> Union[int, float]:
        return self.metrics.counter(f"online.{name}").value

    @property
    def arrivals(self) -> int:
        return self._value("arrivals")

    @property
    def departures(self) -> int:
        return self._value("departures")

    @property
    def decisions(self) -> int:  # placements + migrations committed
        return self._value("decisions")

    @property
    def migrations(self) -> int:
        return self._value("migrations")

    @property
    def stale_events(self) -> int:  # superseded departures skipped on pop
        return self._value("stale_events")

    @property
    def deferrals(self) -> int:  # jobs left pending after a drain, summed
        return self._value("deferrals")

    @property
    def wall_time_s(self) -> float:
        return float(self._value("wall_time_s"))

    @property
    def mean_decision_us(self) -> float:
        """Mean wall time of one admit call (microseconds)."""
        return self.metrics.histogram("online.decision_us", _DECISION_US_BUCKETS).mean

    def decision_us_percentile(self, q: float) -> float:
        """Interpolated admit-call latency quantile (microseconds)."""
        return self.metrics.histogram(
            "online.decision_us", _DECISION_US_BUCKETS
        ).percentile(q)

    def slowdown_percentile(self, q: float) -> float:
        """Interpolated quantile of the per-job slowdown distribution."""
        return self.metrics.histogram(
            "online.slowdown", _SLOWDOWN_BUCKETS
        ).percentile(q)

    @property
    def queue_depth(self) -> float:
        """Pending-queue depth after the most recent drain."""
        value = self.metrics.gauge("online.queue_depth").value
        return 0.0 if value is None else value

    @property
    def mean_slowdown(self) -> float:
        return self.metrics.histogram("online.slowdown", _SLOWDOWN_BUCKETS).mean

    def snapshot(self) -> "OnlineStats":
        """An independent copy (frozen into an :class:`OnlineResult`)."""
        return OnlineStats(self.metrics.snapshot())

    def summary(self) -> str:
        admit_calls = self.metrics.histogram(
            "online.decision_us", _DECISION_US_BUCKETS
        ).count
        return "\n".join(
            [
                "online scheduler stats:",
                f"  arrivals:     {self.arrivals}",
                f"  departures:   {self.departures}",
                f"  decisions:    {self.decisions}",
                f"  admit calls:  {admit_calls} "
                f"(latency mean {self.mean_decision_us:.0f} us, "
                f"p50 {self.decision_us_percentile(0.50):.0f} / "
                f"p99 {self.decision_us_percentile(0.99):.0f} us)",
                f"  slowdown:     p50 {self.slowdown_percentile(0.50):.2f}x / "
                f"p90 {self.slowdown_percentile(0.90):.2f}x / "
                f"p99 {self.slowdown_percentile(0.99):.2f}x (histogram)",
                f"  migrations:   {self.migrations}",
                f"  deferrals:    {self.deferrals}",
                f"  stale events: {self.stale_events}",
                f"  wall time:    {self.wall_time_s:.3f} s",
            ]
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in _COUNTER_FIELDS + _TIME_FIELDS
        )
        return f"OnlineStats({fields})"


@dataclass(frozen=True)
class Decision:
    """One committed scheduling decision (placement or migration)."""

    job_name: str
    kind: str  # "place" | "migrate"
    time_s: float
    machine_name: str
    hw_thread_ids: Tuple[int, ...]
    predicted_total_s: float

    @property
    def n_threads(self) -> int:
        return len(self.hw_thread_ids)


@dataclass(frozen=True)
class CompletedJob:
    """One finished job with the timing needed for quality metrics."""

    name: str
    spec_name: str
    machine_name: str
    arrival_s: float
    start_s: float
    end_s: float
    solo_reference_s: float  # predicted solo time on its best machine

    @property
    def queueing_delay_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def turnaround_s(self) -> float:
        return self.end_s - self.arrival_s

    @property
    def slowdown(self) -> float:
        """Normalised turnaround: queueing plus contention, over solo."""
        return self.turnaround_s / self.solo_reference_s


@dataclass
class OnlineResult:
    """Everything one :meth:`OnlineScheduler.run` produced."""

    policy: str
    timeline: Timeline
    decisions: List[Decision]
    completed: List[CompletedJob]
    event_log: EventLog
    stats: OnlineStats
    makespan_s: float
    utilisation: float
    wall_time_s: float

    @property
    def mean_slowdown(self) -> float:
        if not self.completed:
            return 0.0
        return sum(c.slowdown for c in self.completed) / len(self.completed)

    @property
    def p95_slowdown(self) -> float:
        if not self.completed:
            return 0.0
        ordered = sorted(c.slowdown for c in self.completed)
        index = max(0, -(-len(ordered) * 95 // 100) - 1)  # ceil(0.95n) - 1
        return ordered[index]

    @property
    def decisions_per_s(self) -> float:
        """Decision throughput against real (wall-clock) time."""
        if self.wall_time_s <= 0:
            return 0.0
        return len(self.decisions) / self.wall_time_s

    @property
    def decisions_per_sim_day(self) -> float:
        """Decision throughput against simulated time, per 24 h."""
        if self.makespan_s <= 0:
            return 0.0
        return len(self.decisions) / self.makespan_s * 86400.0

    def summary(self) -> str:
        return "\n".join(
            [
                f"online run ({self.policy}):",
                f"  jobs completed: {len(self.completed)}",
                f"  makespan:       {self.makespan_s:.1f} s simulated",
                f"  utilisation:    {self.utilisation:.0%}",
                f"  slowdown:       mean {self.mean_slowdown:.2f}x,"
                f" p95 {self.p95_slowdown:.2f}x",
                f"  decisions:      {len(self.decisions)}"
                f" ({self.stats.migrations} migrations,"
                f" {self.decisions_per_s:,.0f}/s wall,"
                f" {self.decisions_per_sim_day:,.0f}/simulated day)",
            ]
        )


class OnlineScheduler:
    """Event-driven scheduler over a job-arrival stream.

    Parameters
    ----------
    rack:
        The fleet to schedule onto.
    policy:
        A :class:`~repro.online.policies.PlacementPolicy` instance or
        registered name (default ``"predicted-slowdown"``).
    migrate:
        When true, each departure triggers a reschedule check that may
        move the latest-finishing resident.
    hysteresis:
        Minimum *relative* predicted-makespan improvement before a
        migration commits (0.1 = move only for a >10% win).  Guards
        against churn from prediction jitter.
    """

    def __init__(
        self,
        rack: Rack,
        policy: Union[str, PlacementPolicy] = "predicted-slowdown",
        migrate: bool = False,
        hysteresis: float = 0.1,
    ) -> None:
        if hysteresis < 0:
            raise ReproError(f"hysteresis cannot be negative, got {hysteresis}")
        self.rack = rack
        self.core = RackScheduler(rack)
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.policy.bind(self.core)
        self.migrate = migrate
        self.hysteresis = hysteresis

    # -- public API ------------------------------------------------------

    def run(self, trace: ArrivalTrace, recorder=None) -> OnlineResult:
        """Drive the trace to completion and return the full record.

        ``recorder`` (a :class:`repro.obs.TimeSeriesRecorder`) hooks the
        simulated clock: the run's stats registry becomes the recorder's
        registry, and every event-loop step calls
        :meth:`~repro.obs.timeseries.TimeSeriesRecorder.sample_at` with
        the simulated ``now`` — so queue depth, decision-latency
        percentiles, admission/migration counts and the slowdown
        histogram are sampled once per simulated window, never off a
        wall clock.
        """
        wall_start = time.perf_counter()
        jobs: Dict[str, Job] = {j.name: j for j in trace.jobs}
        loop = EventLoop()
        log = EventLog()
        stats = OnlineStats(recorder.registry if recorder is not None else None)
        fleet = FleetOccupancy(self.rack)
        versions: Dict[str, int] = {name: 0 for name in jobs}
        pending: List[str] = []
        timeline = Timeline()
        # Placements a job left by migrating: (machine, placement, end).
        moved_off: Dict[str, List[Tuple[str, Placement, float]]] = {}
        decisions: List[Decision] = []
        completed: List[CompletedJob] = []
        busy_thread_seconds = 0.0

        for job in trace.jobs:
            loop.push(Event(job.arrival_s, EventKind.ARRIVAL, job.name))

        with obs.span("online.run", jobs=len(trace), policy=self.policy.name):
            while loop:
                event = loop.pop()
                busy_thread_seconds += fleet.occupied_total() * (loop.now - fleet.now)
                fleet.now = loop.now
                if recorder is not None:
                    recorder.sample_at(fleet.now)

                if event.kind is EventKind.DEPARTURE:
                    if event.version != versions[event.job_name]:
                        stats.inc("stale_events")
                        continue
                    log.append(event)
                    self._depart(
                        event.job_name, fleet, loop, versions,
                        jobs, timeline, moved_off, completed, stats,
                    )
                    self._drain(
                        fleet, loop, versions, jobs, pending, decisions, stats
                    )
                    if self.migrate and len(fleet):
                        loop.push(
                            Event(fleet.now, EventKind.RESCHEDULE, event.job_name)
                        )
                elif event.kind is EventKind.ARRIVAL:
                    batch = [event]
                    while True:
                        upcoming = loop.peek()
                        if (
                            upcoming is None
                            or upcoming.kind is not EventKind.ARRIVAL
                            or upcoming.time_s > fleet.now
                        ):
                            break
                        batch.append(loop.pop())
                    for arrival in batch:
                        log.append(arrival)
                        pending.append(arrival.job_name)
                    stats.inc("arrivals", len(batch))
                    self._drain(
                        fleet, loop, versions, jobs, pending, decisions, stats
                    )
                else:  # RESCHEDULE
                    log.append(event)
                    self._consider_migration(
                        fleet, loop, versions, moved_off, decisions, stats
                    )

            if pending:
                raise ReproError(
                    f"job {pending[0]!r} can never start: no fleet machine "
                    f"offers a feasible placement even when idle"
                )

        wall_time = time.perf_counter() - wall_start
        stats.inc("wall_time_s", wall_time)
        makespan = max((e.end_s for e in timeline.entries), default=0.0)
        if recorder is not None:
            # Close the final (partial) window so the last state is
            # visible.  Stale departure events may have advanced the
            # simulated clock past the makespan; keep timestamps
            # monotone by sampling at whichever is later.
            recorder.sample(max(fleet.now, makespan))
        utilisation = (
            busy_thread_seconds / (self.rack.total_hw_threads * makespan)
            if makespan > 0
            else 0.0
        )
        return OnlineResult(
            policy=self.policy.name,
            timeline=timeline,
            decisions=decisions,
            completed=completed,
            event_log=log,
            stats=stats.snapshot(),
            makespan_s=makespan,
            utilisation=utilisation,
            wall_time_s=wall_time,
        )

    # -- event handlers --------------------------------------------------

    def _depart(
        self, name, fleet, loop, versions, jobs, timeline, moved_off,
        completed, stats,
    ) -> None:
        now = fleet.now
        resident = fleet.remove(name)
        job = jobs[name]
        stats.inc("departures")
        # One entry per placement the job ran on, in time order.
        start = resident.start_s
        segments = moved_off.pop(name, [])
        segments.append((resident.machine_name, resident.placement, now))
        for machine_name, placement, end in segments:
            timeline.entries.append(
                TimelineEntry(
                    workload_name=name,
                    machine_name=machine_name,
                    placement=placement,
                    arrival_s=job.arrival_s,
                    start_s=start,
                    end_s=end,
                )
            )
            start = end
        record = CompletedJob(
            name=name,
            spec_name=job.spec_name,
            machine_name=resident.machine_name,
            arrival_s=job.arrival_s,
            start_s=resident.start_s,
            end_s=now,
            solo_reference_s=self.core.solo_estimate(job.workload),
        )
        completed.append(record)
        stats.observe_slowdown(record.slowdown)
        with obs.span("online.departure", job=name, machine=resident.machine_name):
            # Survivors on the machine just got the departed job's
            # resources back: re-predict and move their departures up.
            self._retime_machine(resident.machine_name, fleet, loop, versions)

    def _drain(self, fleet, loop, versions, jobs, pending, decisions, stats) -> None:
        """Offer the whole pending queue to the policy."""
        if not pending:
            return
        now = fleet.now
        # Bring every resident's done fraction up to `now` so the core
        # scores candidates in consistent remaining-seconds units.
        for resident in fleet.residents():
            resident.advance_to(now)
        workloads = [jobs[name].workload for name in pending]
        latency_start = time.perf_counter()
        with obs.span("online.admit", pending=len(workloads), policy=self.policy.name):
            placed, still_pending = self.policy.admit(fleet, workloads)
        stats.observe_decision_us((time.perf_counter() - latency_start) * 1e6)
        pending[:] = [w.name for w in still_pending]
        if still_pending:
            stats.inc("deferrals", len(still_pending))
        stats.observe_queue_depth(len(pending))
        if not placed:
            return

        affected: List[str] = []
        for assignment in placed:
            resident = fleet.resident(assignment.workload.name)
            resident.start_s = now
            resident.last_update_s = now
            resident.done_fraction = 0.0
            if assignment.machine_name not in affected:
                affected.append(assignment.machine_name)
        # One joint re-prediction per touched machine times the
        # newcomers and re-times residents whose contention changed.
        for machine_name in affected:
            self._retime_machine(machine_name, fleet, loop, versions)

        for assignment in placed:
            resident = fleet.resident(assignment.workload.name)
            stats.inc("decisions")
            decisions.append(
                Decision(
                    job_name=resident.name,
                    kind="place",
                    time_s=now,
                    machine_name=resident.machine_name,
                    hw_thread_ids=tuple(resident.placement.hw_thread_ids),
                    predicted_total_s=resident.predicted_total_s,
                )
            )

    def _consider_migration(
        self, fleet, loop, versions, moved_off, decisions, stats
    ) -> None:
        """Re-auction the latest-finishing resident across the fleet.

        Candidates are keyed by (predicted fleet makespan, the job's
        own predicted end, threads), in absolute end times.  The other
        residents are read at ``now`` but not advanced to it: advancing
        one would change the rounding of its later progress.
        """
        residents = fleet.residents()
        if not residents:
            return
        now = fleet.now
        with obs.span("online.migrate"):
            target = max(residents, key=lambda r: (r.end_s, r.name))
            current_makespan = target.end_s
            detached = fleet.remove(target.name)
            detached.advance_to(now)
            old_machine = detached.machine_name

            # Hypothetical end times of the old machine's survivors
            # once the target leaves (used when it moves elsewhere).
            survivor_ends: Dict[str, float] = {}
            old_co = fleet.co_scheduled(old_machine)
            if old_co:
                joint = self.core.predict_machine(old_machine, old_co)
                for name, left in self.core.seconds_left(fleet, joint).items():
                    survivor_ends[name] = now + left
            base_ends = {r.name: r.end_s for r in fleet.residents()}

            best_key: Optional[Tuple[float, float, int]] = None
            best: Optional[Tuple[str, Placement]] = None
            for machine, n, placement, joint in self.core.ladders(
                fleet, detached.workload
            ):
                ends = dict(base_ends)
                if machine.name != old_machine:
                    ends.update(survivor_ends)
                left = self.core.seconds_left(fleet, joint, detached.done_fraction)
                for name, seconds in left.items():
                    ends[name] = now + seconds
                key = (max(ends.values()), ends[detached.name], n)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (machine.name, placement)

            unchanged = best is not None and (
                best[0] == old_machine
                and best[1].hw_thread_ids == detached.placement.hw_thread_ids
            )
            if (
                best_key is None
                or unchanged
                or best_key[0] >= current_makespan * (1.0 - self.hysteresis)
            ):
                fleet.restore(detached)  # not worth moving; nothing changed
                return

            machine_name, placement = best
            moved_off.setdefault(detached.name, []).append(
                (old_machine, detached.placement, now)
            )
            moved = fleet.place(
                detached.workload, machine_name, placement, start_s=detached.start_s
            )
            moved.done_fraction = detached.done_fraction
            moved.last_update_s = now
            for touched in dict.fromkeys((old_machine, machine_name)):
                self._retime_machine(touched, fleet, loop, versions)
            stats.inc("migrations")
            stats.inc("decisions")
            decisions.append(
                Decision(
                    job_name=moved.name,
                    kind="migrate",
                    time_s=now,
                    machine_name=machine_name,
                    hw_thread_ids=tuple(placement.hw_thread_ids),
                    predicted_total_s=moved.predicted_total_s,
                )
            )

    # -- internals -------------------------------------------------------

    def _retime_machine(self, machine_name, fleet, loop, versions) -> None:
        """Joint-predict one machine's co-schedule and refresh end times."""
        co_resident = fleet.co_scheduled(machine_name)
        if not co_resident:
            return
        joint = self.core.predict_machine(machine_name, co_resident)
        for outcome in joint.outcomes:
            resident = fleet.resident(outcome.workload_name)
            resident.retime(fleet.now, outcome.predicted_time_s)
            versions[resident.name] += 1
            loop.push(
                Event(
                    resident.end_s,
                    EventKind.DEPARTURE,
                    resident.name,
                    version=versions[resident.name],
                )
            )
