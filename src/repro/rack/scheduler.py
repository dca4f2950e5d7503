"""Greedy rack scheduler driven by joint Pandia predictions.

Workloads are placed longest-solo-first (classic LPT order).  For each
workload the scheduler enumerates candidate placements on every
machine's *free* hardware threads — one-thread-per-core first, SMT
contexts after, at a ladder of thread counts — and scores each
candidate by re-predicting the whole machine's co-schedule with the
candidate added.  The candidate minimising the predicted rack makespan
(tie-broken by the workload's own predicted time, then by footprint)
wins.

This uses exactly what the paper says makes Pandia suited to the job:
it predicts resource consumption, so the scheduler can see that a
second memory-bound workload on a socket will halve both, while a
compute-bound neighbour is free.

The decision core is deliberately reusable: ``admit_batch`` /
``best_candidate`` operate on a
:class:`~repro.rack.occupancy.FleetOccupancy` (empty for the offline
batch problem, partially occupied for the event-driven
:mod:`repro.online` service), so the online scheduler shares this exact
logic rather than reimplementing it — a cold-start arrival batch is
scheduled identically to an offline batch, which
``tests/online/test_batch_equivalence.py`` pins down.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.coscheduling import (
    CoSchedulePrediction,
    CoSchedulePredictor,
    CoScheduledWorkload,
)
from repro.core.description import WorkloadDescription
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor
from repro.errors import ReproError
from repro.rack.model import Assignment, Rack, RackMachine, RackSchedule
from repro.rack.occupancy import FleetOccupancy
from repro.search.canonical import workload_fingerprint


def free_context_placement(
    machine: RackMachine, occupied: Set[int], n_threads: int
) -> Optional[Placement]:
    """*n* threads on free contexts: cores first, SMT siblings after.

    Returns ``None`` when fewer than *n* contexts are free.  Asking for
    fewer than one thread is a caller bug and raises, naming the
    machine (use :func:`candidate_thread_counts` to enumerate feasible
    counts — it returns no candidates when nothing is free).
    """
    if n_threads < 1:
        raise ReproError(
            f"machine {machine.name}: a placement needs at least one thread, "
            f"got {n_threads}"
        )
    order = _free_contexts(machine, occupied)
    if len(order) < n_threads:
        return None
    return Placement(machine.spec.topology, tuple(order[:n_threads]))


def _free_contexts(machine: RackMachine, occupied: Set[int]) -> List[int]:
    """The machine's free contexts in placement order: one per core
    first, then each further SMT way."""
    topo = machine.spec.topology
    return [
        core.hw_thread_ids[way]
        for way in range(topo.threads_per_core)
        for core in topo.cores
        if core.hw_thread_ids[way] not in occupied
    ]


def candidate_thread_counts(free: int) -> List[int]:
    """The ladder of thread counts the scheduler tries: powers of two
    up to the free-context count, plus the full free set.

    Degenerate inputs degrade cleanly: zero free contexts yield no
    candidates (an empty list — the machine is simply skipped) and a
    single free context yields the ``[1]`` ladder.  A negative count is
    a caller accounting bug and raises.
    """
    if free < 0:
        raise ReproError(f"free-context count cannot be negative, got {free}")
    if free == 0:
        return []
    counts = []
    n = 1
    while n < free:
        counts.append(n)
        n *= 2
    counts.append(free)
    return counts


class RackScheduler:
    """Assigns a batch of profiled workloads to a rack.

    Besides the offline :meth:`schedule` entry point, the scheduler
    exposes its decision core — :meth:`solo_estimate`, :meth:`ladders`,
    :meth:`best_candidate`, :meth:`admit_batch`,
    :meth:`predict_machine` and :meth:`seconds_left` — over a caller-owned
    :class:`FleetOccupancy`, so the event-driven scheduler reuses the
    exact same admission logic (and its migrator the same candidate
    ladders) on a partially occupied fleet.
    """

    #: Relative tolerance under which two candidate fleet makespans are
    #: considered equal in :meth:`best_candidate`.  The predictor is an
    #: analytical model; differences this small are noise, and breaking
    #: the tie on the workload's own completion time avoids starving
    #: short jobs to protect an epsilon of makespan.
    MAKESPAN_SLACK = 1e-3

    def __init__(self, rack: Rack) -> None:
        self.rack = rack
        # A prediction reads only the machine description, and machines
        # of one type share one description object, so each distinct
        # description gets one joint predictor, one solo predictor and
        # one solo reference placement (the rack keeps the descriptions
        # alive, so their ids stay unique).
        joint: Dict[int, CoSchedulePredictor] = {}
        self._solo: Dict[int, Tuple[PandiaPredictor, Optional[Placement]]] = {}
        for m in rack.machines:
            key = id(m.description)
            if key not in joint:
                joint[key] = CoSchedulePredictor(m.description)
                self._solo[key] = (
                    PandiaPredictor(m.description),
                    free_context_placement(m, set(), m.n_hw_threads // 2 or 1),
                )
        self._joint = {m.name: joint[id(m.description)] for m in rack.machines}
        # Arrival streams rename one profiled description per job
        # (job names must be unique); predictions do not read the name,
        # so solo estimates are memoised on the name-free fingerprint.
        self._solo_estimates: Dict[Tuple, float] = {}

    # -- public API ------------------------------------------------------

    def schedule(self, workloads: Sequence[WorkloadDescription]) -> RackSchedule:
        """Place every workload; raises if one cannot fit anywhere.

        Two phases (:meth:`admit_batch`): a fair-share greedy pass (each
        workload's thread count capped at its share of the remaining
        rack, so early arrivals cannot starve later ones), then one
        pass in which each workload is removed and re-placed without a
        cap, letting it grow into space the fair shares left over.
        Raises naming the first workload, in LPT order, left without a
        free context.
        """
        if not workloads:
            raise ReproError(
                "no workloads to schedule on rack machines "
                + ", ".join(m.name for m in self.rack.machines)
            )
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate workload names: {names}")

        with obs.span(
            "rack.schedule",
            workloads=len(workloads),
            machines=len(self.rack.machines),
        ):
            fleet = FleetOccupancy(self.rack)
            predicted_times: Dict[str, float] = {}
            _, skipped = self.admit_batch(fleet, predicted_times, workloads)
            if skipped:
                raise ReproError(
                    f"workload {skipped[0].name} does not fit on any rack machine"
                )
        schedule = RackSchedule(
            rack=self.rack,
            assignments=[
                Assignment(r.workload, r.machine_name, r.placement)
                for r in fleet.residents()
            ],
            predicted_times=predicted_times,
        )
        return schedule

    # -- the shared decision core ----------------------------------------

    def admit_batch(
        self,
        fleet: FleetOccupancy,
        predicted_times: Dict[str, float],
        workloads: Sequence[WorkloadDescription],
        waits: Optional[Dict[str, float]] = None,
    ) -> Tuple[List[Assignment], List[WorkloadDescription]]:
        """Admit a batch of workloads onto a (possibly occupied) fleet.

        LPT order, fair-share caps against the fleet's *free* contexts,
        then, for a batch of two or more, one uncapped re-placement pass
        over the batch (never over pre-existing residents); a lone
        workload's pass would repeat its uncapped search bit for bit.
        A workload whose turn comes when no free context is left is
        skipped and the rest of the batch proceeds; every error
        propagates.

        With *waits*, a workload may also wait for a running job to
        leave.  *waits* maps each waiting job to the predicted departure
        time (``Resident.end_s``) of the running job it waits for; its
        entries on entry are jobs still waiting from an earlier call,
        which are not in *workloads* and are not scored.  Let
        r₁ ≤ r₂ ≤ … be the finite entries of *predicted_times* when the
        call starts, the remaining times of the jobs running then (an
        offline or cold-start batch has none, so it never waits).  In
        LPT order, let k count the jobs already waiting: the entries of
        *waits* so far.  A workload waits when its best candidate costs
        more than r_{k+1} plus its :meth:`solo_estimate`; it is then
        skipped and entered in *waits*.  A candidate's cost is the
        workload's own predicted time plus the time it adds to that
        machine's residents, both from the joint prediction that
        scored it.

        Returns ``(placed, skipped)`` where *placed* holds the final
        assignment of every admitted workload in batch order.
        """
        with obs.span("rack.greedy", batch=len(workloads)) as greedy_span:
            ordered = sorted(workloads, key=self.solo_estimate, reverse=True)
            remaining = fleet.total_free_contexts()
            departures = sorted(
                (t, name) for name, t in predicted_times.items() if math.isfinite(t)
            )
            skipped: List[WorkloadDescription] = []
            skipped_names: Set[str] = set()
            for i, workload in enumerate(ordered):
                if remaining < 1:
                    skipped.append(workload)
                    skipped_names.add(workload.name)
                    continue
                cap = max(1, remaining // (len(ordered) - i))
                assignment, predictions = self.best_candidate(
                    fleet, predicted_times, workload, max_threads=cap
                )
                if waits is not None and len(waits) < len(departures):
                    left_s, awaited = departures[len(waits)]
                    cost = self._cost(predicted_times, predictions, workload.name)
                    if cost > left_s + self.solo_estimate(workload):
                        waits[workload.name] = fleet.resident(awaited).end_s
                        skipped.append(workload)
                        skipped_names.add(workload.name)
                        continue
                fleet.place(workload, assignment.machine_name, assignment.placement)
                predicted_times.update(predictions)
                remaining -= assignment.placement.n_threads
            if greedy_span is not None:
                greedy_span.attrs["free_threads_left"] = remaining

        if len(ordered) > 1:
            with obs.span("rack.refine"):
                for workload in ordered:
                    if workload.name in skipped_names:
                        continue
                    self._replace(fleet, predicted_times, workload)

        assignments = [
            Assignment(
                w,
                fleet.resident(w.name).machine_name,
                fleet.resident(w.name).placement,
            )
            for w in workloads
            if w.name not in skipped_names
        ]
        return assignments, skipped

    def best_candidate(
        self,
        fleet: FleetOccupancy,
        predicted_times: Dict[str, float],
        workload: WorkloadDescription,
        max_threads: Optional[int] = None,
    ) -> Tuple[Assignment, Dict[str, float]]:
        """The makespan-minimising (machine, placement) for *workload*.

        Enumerates the thread-count ladder on every machine's free
        contexts and scores each candidate by re-predicting that
        machine's co-schedule with the candidate added — one kernel
        call per machine description (:meth:`ladders`).  Selection is
        two-phase: find the minimum predicted fleet makespan, then —
        among candidates within ``MAKESPAN_SLACK`` (0.1%) of it — pick
        the one minimising the workload's own predicted time, then
        footprint.  The slack keeps a short job from sacrificing
        itself onto a starved placement just to avoid delaying an
        already-long co-runner by an epsilon the predictor cannot
        resolve anyway.  Returns the winning assignment plus the joint
        predictions of every workload on its machine.  Raises when no
        machine can host the workload, naming it.
        """
        candidates: List[Tuple[float, float, int, Assignment, Dict[str, float]]] = []
        for machine, n, placement, joint in self.ladders(
            fleet, workload, max_threads
        ):
            predictions = self.seconds_left(fleet, joint)
            makespan = self._makespan_with(predicted_times, predictions)
            candidates.append(
                (
                    makespan,
                    predictions[workload.name],
                    n,
                    Assignment(workload, machine.name, placement),
                    predictions,
                )
            )

        if not candidates:
            raise ReproError(
                f"workload {workload.name} does not fit on any rack machine"
            )
        floor = min(c[0] for c in candidates)
        cutoff = floor * (1.0 + self.MAKESPAN_SLACK)
        _, _, _, best_assignment, best_predictions = min(
            (c for c in candidates if c[0] <= cutoff),
            key=lambda c: (c[1], c[2], c[0]),
        )
        return best_assignment, best_predictions

    def ladders(
        self,
        fleet: FleetOccupancy,
        workload: WorkloadDescription,
        max_threads: Optional[int] = None,
    ) -> List[Tuple[RackMachine, int, Placement, CoSchedulePrediction]]:
        """*workload*'s candidate rungs on every machine, jointly predicted.

        One rung per :func:`candidate_thread_counts` entry on each
        machine's free contexts (at most *max_threads* of them), each
        scored as that machine's residents plus the workload on that
        rung.  Machines that share a description share one joint
        predictor, and all their rungs go in one kernel call; rows are
        independent, so grouping changes no bit.  Returns ``(machine,
        threads, placement, joint prediction)`` in rack order, ladder
        order within a machine; machines with nothing free add none.
        """
        rungs: List[Tuple[RackMachine, int, Placement]] = []
        schedules: List[List[CoScheduledWorkload]] = []
        groups: Dict[CoSchedulePredictor, List[int]] = {}
        for machine in self.rack.machines:
            order = _free_contexts(machine, fleet.occupied(machine.name))
            free = len(order)
            if max_threads is not None:
                free = min(free, max_threads)
            counts = candidate_thread_counts(free)
            if not counts:
                continue
            resident = fleet.co_scheduled(machine.name)
            group = groups.setdefault(self._joint[machine.name], [])
            for n in counts:
                placement = Placement(machine.spec.topology, tuple(order[:n]))
                group.append(len(rungs))
                rungs.append((machine, n, placement))
                schedules.append(resident + [CoScheduledWorkload(workload, placement)])
        joints: List[Optional[CoSchedulePrediction]] = [None] * len(rungs)
        for predictor, rows in groups.items():
            predictions = predictor.predict_batch([schedules[i] for i in rows])
            for i, prediction in zip(rows, predictions):
                joints[i] = prediction
        return [rung + (joint,) for rung, joint in zip(rungs, joints)]

    def predict_machine(
        self, machine_name: str, jobs: Sequence[CoScheduledWorkload]
    ):
        """Joint prediction of an explicit co-schedule on one machine."""
        return self._joint[machine_name].predict(jobs)

    @staticmethod
    def seconds_left(
        fleet: FleetOccupancy, joint: CoSchedulePrediction, done: float = 0.0
    ) -> Dict[str, float]:
        """Each job's predicted seconds left at ``fleet.now``.

        A job predicted to take *t* seconds in *joint* has ``(1 - p) *
        t`` left, where *p* is its done fraction: a resident's
        :meth:`~repro.rack.occupancy.Resident.progress_at` ``fleet.now``,
        or *done* for the one job of *joint* not resident (0 for a job
        being admitted, the done fraction of a detached job being
        re-placed).  Candidates are scored by comparing times across
        jobs, which is only meaningful from one origin: a resident 90%
        through its run competes with its remaining tail, not its full
        duration.  Offline nothing has run, so every *p* is 0.
        """
        left: Dict[str, float] = {}
        for outcome in joint.outcomes:
            name = outcome.workload_name
            if name in fleet:
                p = fleet.resident(name).progress_at(fleet.now)
            else:
                p = done
            left[name] = (1.0 - p) * outcome.predicted_time_s
        return left

    def solo_estimate(self, workload: WorkloadDescription) -> float:
        """Predicted solo time on the workload's best single machine.

        One prediction per distinct machine description, memoised on the
        name-free workload fingerprint: an arrival stream of jobs cloned
        from one profiled description costs one evaluation per
        description, not one per job and machine.
        """
        memo_key = workload_fingerprint(workload)[1:]
        cached = self._solo_estimates.get(memo_key)
        if cached is not None:
            return cached
        times = [
            predictor.predict(workload, placement).predicted_time_s
            for predictor, placement in self._solo.values()
            if placement is not None
        ]
        if not times:
            raise ReproError(f"workload {workload.name} fits on no rack machine")
        best = min(times)
        self._solo_estimates[memo_key] = best
        return best

    # -- internals -------------------------------------------------------

    def _replace(
        self,
        fleet: FleetOccupancy,
        predicted_times: Dict[str, float],
        workload: WorkloadDescription,
    ) -> None:
        """Remove one workload and re-place it greedily (uncapped)."""
        old = fleet.remove(workload.name)
        del predicted_times[workload.name]
        self._repredict_machine(fleet, predicted_times, old.machine_name)
        assignment, predictions = self.best_candidate(
            fleet, predicted_times, workload
        )
        fleet.place(workload, assignment.machine_name, assignment.placement)
        predicted_times.update(predictions)

    def _repredict_machine(
        self,
        fleet: FleetOccupancy,
        predicted_times: Dict[str, float],
        machine_name: str,
    ) -> None:
        """Refresh predictions for one machine's resident workloads."""
        resident = fleet.co_scheduled(machine_name)
        if not resident:
            return
        joint = self._joint[machine_name].predict(resident)
        predicted_times.update(self.seconds_left(fleet, joint))

    @staticmethod
    def _cost(
        predicted_times: Dict[str, float],
        predictions: Dict[str, float],
        name: str,
    ) -> float:
        """What a candidate charges turnaround: the workload's own
        predicted time plus the time it adds to its co-runners."""
        return predictions[name] + sum(
            t - predicted_times[other]
            for other, t in predictions.items()
            if other != name
        )

    @staticmethod
    def _makespan_with(
        predicted_times: Dict[str, float],
        new_predictions: Dict[str, float],
    ) -> float:
        """Predicted fleet makespan with one machine's times refreshed."""
        times = dict(predicted_times)
        times.update(new_predictions)
        return max(times.values()) if times else 0.0
