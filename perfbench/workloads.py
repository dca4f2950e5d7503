"""The benchmark's three workloads: set-up, one measured pass, checks.

Each workload builds its inputs from the seed alone, runs the program
through its public API, times what a user waits for, and checks every
output.  The program never sees the seed, only the inputs made from it.

* ``online-predicted`` and ``online-balance`` replay one seeded Poisson
  trace through :class:`repro.online.OnlineScheduler` on a four-node
  fleet.  Arrivals are open-loop in simulated time; the host replays
  them in a closed loop, so host speed never changes a decision.
* ``optimize-x5`` runs the default ``pandia optimize`` session on X5-2
  for each of the 22 catalog workloads.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core import machine_desc, optimizer
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.online import OnlineScheduler, poisson_trace
from repro.online.policies import LoadBalancePolicy, PredictedSlowdownPolicy
from repro.rack.model import Rack, RackMachine
from repro.search import ExhaustiveStrategy, SearchEngine
from repro.sim.noise import NO_NOISE
from repro.sim.run import run_workload
from repro.workloads import catalog

from perfbench import spans
from perfbench.stats import TooFewSamples, min_samples, percentile

#: Relative agreement required between a fresh scalar prediction of the
#: chosen placement and the time the search ranked it by.
SCALAR_REL_TOL = 1e-12


@dataclass
class PassResult:
    """What one measured pass produced."""

    wall_ns: int  # host time of the timed work
    decisions: int  # placements committed or sessions completed
    latencies_ns: List[int]  # one sample per decision
    attempted: int  # trace jobs or sessions
    failures: List[str] = field(default_factory=list)  # one per failed op
    outcome: object = None  # the decisions made; a run keeps only the first pass's


@dataclass(frozen=True)
class OnlineOutcome:
    """A replay's decisions and the service counters behind them."""

    jobs: tuple  # sorted (name, machine, threads, arrival, start, end)
    events: int
    stale: int
    departures: int
    deferrals: int

    @classmethod
    def of(cls, result) -> "OnlineOutcome":
        placed = {e.workload_name: e.placement.hw_thread_ids for e in result.timeline.entries}
        return cls(
            jobs=tuple(
                sorted(
                    (c.name, c.machine_name, tuple(placed.get(c.name, ())),
                     c.arrival_s, c.start_s, c.end_s)
                    for c in result.completed
                )
            ),
            events=len(result.event_log),
            stale=result.stats.stale_events,
            departures=result.stats.departures,
            deferrals=result.stats.deferrals,
        )


class OnlineWorkload:
    """One seeded Poisson trace replayed by the online service.

    Pool: the 22 catalog evaluation workloads profiled on X3-2, noise
    off.  Fleet: two X3-2 and two TESTBOX nodes, 96 contexts, the fleet
    of ``benchmarks/bench_rack_online.py`` (rebuilt here, because that
    module imports pytest).  At 0.3 jobs/s the fleet stays below
    saturation, so the backlog does not grow with the trace.
    """

    RATE_PER_S = 0.3
    #: A p99 needs 1,000 samples (one admission per arrival at least);
    #: twice that keeps the simulated means within a few percent from
    #: one seed to the next.
    N_JOBS = 2000
    tail_q = 0.99
    min_passes = 1

    def __init__(self, name: str, policy_cls, n_jobs: int = N_JOBS,
                 trace_passes: int = 1) -> None:
        self.name = name
        self.policy_cls = policy_cls
        self.n_jobs = n_jobs
        self.trace_passes = trace_passes

    def params(self) -> Dict[str, object]:
        return {
            "policy": self.policy_cls.name,
            "fleet": ["X3-2", "X3-2", "TESTBOX", "TESTBOX"],
            "pool": "22 catalog evaluation workloads profiled on X3-2",
            "noise": 0.0,
            "arrivals": "poisson",
            "rate_per_s": self.RATE_PER_S,
            "n_jobs": self.n_jobs,
            "migrate": False,
        }

    def setup(self, seed: int):
        big, small = machines.get("X3-2"), machines.get("TESTBOX")
        big_md = machine_desc.generate_machine_description(big, noise=NO_NOISE)
        small_md = machine_desc.generate_machine_description(small, noise=NO_NOISE)
        rack = Rack(
            machines=(
                RackMachine("big-0", big, big_md),
                RackMachine("big-1", big, big_md),
                RackMachine("small-0", small, small_md),
                RackMachine("small-1", small, small_md),
            )
        )
        generator = WorkloadDescriptionGenerator(big, big_md, noise=NO_NOISE)
        pool = [generator.generate(spec) for spec in catalog.evaluation_set()]
        trace = poisson_trace(
            pool, n_jobs=self.n_jobs, rate_per_s=self.RATE_PER_S, seed=seed
        )
        return {"rack": rack, "trace": trace}

    def run_pass(self, state, index: int, recorder=None) -> PassResult:
        rack, trace = state["rack"], state["trace"]
        # An untraced pass times its admit calls alone; a traced pass's
        # admit spans are in *recorder*, among every other layer's.
        timer = spans.Recorder()
        timing = (
            spans.Installed(timer, only=("policies.admit",))
            if recorder is None else contextlib.nullcontext()
        )
        t0 = time.perf_counter_ns()
        try:
            with timing:
                result = OnlineScheduler(rack, policy=self.policy_cls()).run(trace)
        except Exception:
            return PassResult(
                wall_ns=time.perf_counter_ns() - t0,
                decisions=0,
                latencies_ns=[],
                attempted=len(trace),
                failures=[f"replay {index} raised:\n{traceback.format_exc()}"]
                * len(trace),
            )
        wall = time.perf_counter_ns() - t0
        return PassResult(
            wall_ns=wall,
            decisions=len(result.decisions),
            latencies_ns=[end - start for start, end in zip(timer.starts, timer.ends)],
            attempted=len(trace),
            failures=check_online(trace, result),
            outcome=OnlineOutcome.of(result),
        )

    def quality(self, state, first: PassResult) -> Dict[str, object]:
        """Simulated outcome of the replay (identical in every pass)."""
        t1 = {job.name: job.workload.t1 for job in state["trace"].jobs}
        jobs = first.outcome.jobs
        turnarounds = [end - arrival for _, _, _, arrival, _, end in jobs]
        return {
            "mean_turnaround_s": statistics.fmean(turnarounds),
            "chosen_speedup": statistics.fmean(
                t1[name] / (end - start) for name, _, _, _, start, end in jobs
            ),
            "p99_turnaround_s": _tail(turnarounds, 0.99),
            "turnaround_samples": len(turnarounds),
        }

    def service_counts(self, first: PassResult) -> Dict[str, float]:
        outcome = first.outcome
        waits = [start - arrival for _, _, _, arrival, start, _ in outcome.jobs]
        return {
            "events": outcome.events,
            "stale": outcome.stale,
            "departures": outcome.departures,
            "deferrals": outcome.deferrals,
            "mean_wait_s": statistics.fmean(waits),
        }


def _tail(samples: Sequence[float], q: float) -> Optional[float]:
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return None


def check_online(trace, result) -> List[str]:
    """Every failed check of one replay, one message per failing job.

    * every trace job finishes exactly once;
    * no job starts before it arrives;
    * no hardware context is held by two co-running jobs at any
      simulated instant, checked from the timeline.
    """
    failures: Dict[str, str] = {}
    finished = Counter(c.name for c in result.completed)
    submitted = {job.name for job in trace.jobs}
    for name in submitted | set(finished):
        if finished[name] != 1 or name not in submitted:
            failures[name] = (
                f"{name} was submitted {int(name in submitted)} and finished "
                f"{finished[name]} times"
            )
    for c in result.completed:
        if not c.arrival_s <= c.start_s < c.end_s:
            failures.setdefault(
                c.name,
                f"{c.name} arrived {c.arrival_s!r}, started {c.start_s!r}, "
                f"ended {c.end_s!r}",
            )
    holds: Dict[tuple, list] = {}
    for entry in result.timeline.entries:
        for tid in entry.placement.hw_thread_ids:
            holds.setdefault((entry.machine_name, tid), []).append(
                (entry.start_s, entry.end_s, entry.workload_name)
            )
    for (machine, tid), intervals in holds.items():
        intervals.sort()
        held_until, holder = intervals[0][1], intervals[0][2]
        for start, end, name in intervals[1:]:
            if start < held_until:
                for job in (holder, name):
                    failures.setdefault(
                        job,
                        f"{holder} and {name} both hold {machine} context "
                        f"{tid} at {start!r}",
                    )
            if end > held_until:
                held_until, holder = end, name
    return list(failures.values())


class OptimizeWorkload:
    """The default ``pandia optimize`` session on X5-2, per catalog workload.

    Each session builds a fresh predictor and a fresh serial
    :class:`SearchEngine`, as one ``pandia optimize X5-2 <workload>``
    invocation does, searches ``ExhaustiveStrategy(sample=400,
    seed=<seed>)`` and right-sizes the ranked set within 5%.
    """

    MACHINE = "X5-2"
    SAMPLE = 400
    TOLERANCE = 0.05
    #: 22 sessions a pass: no p99 is reachable, p90 is after 5 passes.
    tail_q = 0.90
    trace_passes = 2

    def __init__(self, name: str, workloads: Optional[Sequence[str]] = None) -> None:
        self.name = name
        self.workload_names = list(workloads or catalog.names())
        self.min_passes = math.ceil(min_samples(self.tail_q) / len(self.workload_names))

    def params(self) -> Dict[str, object]:
        return {
            "machine": self.MACHINE,
            "workloads": len(self.workload_names),
            "noise": 0.0,
            "strategy": "ExhaustiveStrategy",
            "sample": self.SAMPLE,
            "tolerance": self.TOLERANCE,
            "engine": "serial, fresh per session",
        }

    def setup(self, seed: int):
        machine = machines.get(self.MACHINE)
        md = machine_desc.generate_machine_description(machine, noise=NO_NOISE)
        generator = WorkloadDescriptionGenerator(machine, md, noise=NO_NOISE)
        specs = [catalog.get(name) for name in self.workload_names]
        return {
            "machine": machine,
            "md": md,
            "specs": specs,
            "descriptions": [generator.generate(spec) for spec in specs],
            "seed": seed,
        }

    def run_pass(self, state, index: int, recorder=None) -> PassResult:
        md, seed, descriptions = state["md"], state["seed"], state["descriptions"]
        latencies: List[int] = []
        failures: List[str] = []
        chosen: List[Optional[tuple]] = []
        for i, wd in enumerate(descriptions):
            if recorder is not None:
                recorder.op = index * len(descriptions) + i
            t0 = time.perf_counter_ns()
            try:
                predictor = PandiaPredictor(md)
                with SearchEngine(predictor) as engine:
                    result = engine.search(
                        wd, ExhaustiveStrategy(sample=self.SAMPLE, seed=seed)
                    )
                    placements = [r.placement for r in result.ranked]
                    _, small_pred = optimizer.rightsize(
                        predictor, wd, placements, tolerance=self.TOLERANCE,
                        engine=engine,
                    )
            except Exception:
                latencies.append(time.perf_counter_ns() - t0)
                failures.append(f"session {wd.name} raised:\n{traceback.format_exc()}")
                chosen.append(None)
                continue
            latencies.append(time.perf_counter_ns() - t0)
            problem = check_session(md, wd, result, small_pred, self.TOLERANCE)
            if problem is not None:
                failures.append(problem)
            chosen.append(
                (result.best_placement.hw_thread_ids, result.best.predicted_time_s)
            )
        if recorder is not None:
            recorder.op = None
        return PassResult(
            wall_ns=sum(latencies),
            decisions=sum(c is not None for c in chosen),
            latencies_ns=latencies,
            attempted=len(descriptions),
            failures=failures,
            outcome=tuple(chosen),
        )

    def quality(self, state, first: PassResult) -> Dict[str, object]:
        """Each chosen placement run alone by ``repro.sim``, noise off."""
        times, speedups = [], []
        for spec, wd, chosen in zip(state["specs"], state["descriptions"], first.outcome):
            if chosen is None:
                continue
            run = run_workload(
                state["machine"], spec, chosen[0], noise=NO_NOISE,
                run_tag="evaluation",
            )
            times.append(run.elapsed_s)
            speedups.append(wd.t1 / run.elapsed_s)
        return {
            "mean_turnaround_s": statistics.fmean(times),
            "chosen_speedup": statistics.fmean(speedups),
            "turnaround_samples": len(times),
        }

    def service_counts(self, first: PassResult) -> Dict[str, float]:
        return {}


def check_session(md, wd, result, small_pred, tolerance: float) -> Optional[str]:
    """The first failed check of one optimize session, or ``None``.

    * a fresh scalar ``PandiaPredictor.predict`` of the chosen placement
      matches the time the search ranked it by, within 1e-12;
    * that time is the minimum of the ranking;
    * the right-sized placement lies within its tolerance budget.
    """
    best_time = result.best.predicted_time_s
    scalar = PandiaPredictor(md).predict(wd, result.best_placement).predicted_time_s
    if not math.isclose(scalar, best_time, rel_tol=SCALAR_REL_TOL, abs_tol=0.0):
        return (
            f"session {wd.name}: scalar predict gives {scalar!r} for the chosen "
            f"placement, the search ranked it at {best_time!r}"
        )
    fastest = min(r.predicted_time_s for r in result.ranked)
    if best_time != fastest:
        return f"session {wd.name}: chosen time {best_time!r} is not the minimum {fastest!r}"
    budget = best_time * (1.0 + tolerance)
    if small_pred.predicted_time_s > budget:
        return (
            f"session {wd.name}: right-sized time {small_pred.predicted_time_s!r} "
            f"exceeds the {tolerance:.0%} budget {budget!r}"
        )
    return None


def make(name: str):
    """The workload registered under *name*."""
    if name == "online-predicted":
        return OnlineWorkload(name, PredictedSlowdownPolicy)
    if name == "online-balance":
        return OnlineWorkload(name, LoadBalancePolicy, trace_passes=2)
    if name == "optimize-x5":
        return OptimizeWorkload(name)
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


NAMES = ("online-predicted", "online-balance", "optimize-x5")
