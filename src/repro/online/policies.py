"""Admission/placement policies for the online scheduler.

A policy answers one question: given the fleet's current occupancy and
the pending jobs, which of them start now, where, and how wide?  The
policy *places* admitted jobs into the shared
:class:`~repro.rack.occupancy.FleetOccupancy` (so intermediate
decisions see intermediate occupancy) and returns what it placed and
what it left pending; all timing — durations, departure events,
re-timing of disturbed co-runners — is owned by the
:class:`~repro.online.service.OnlineScheduler`, identically for every
policy.  Policies therefore differ *only* in their choice of
(machine, thread-count, placement).

Three built-ins:

* :class:`FirstFitPolicy` — the naive packing baseline: FIFO with
  head-of-line blocking, first machine with any free context, takes
  every free context on it.  Contention-blind.
* :class:`LoadBalancePolicy` — FIFO, emptiest machine first, takes
  half its free contexts.  Spreads load but is still contention-blind.
* :class:`PredictedSlowdownPolicy` — the contention-sensitive policy:
  admits the pending set as a batch through the
  :meth:`~repro.rack.scheduler.RackScheduler.admit_batch` core (LPT
  order, fair-share caps, refinement), scoring every candidate with
  joint Pandia predictions.  A job waits instead when its best
  candidate costs more (its own predicted time plus the time it adds
  to its co-runners) than waiting for the next free predicted
  departure and then running at its solo estimate; it is scored again
  once the clock reaches that departure, or when nothing runs.  On an
  empty fleet nothing can be waited for, so this reproduces the
  offline batch scheduler exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.core.description import WorkloadDescription
from repro.errors import ReproError
from repro.rack.model import Assignment
from repro.rack.occupancy import FleetOccupancy
from repro.rack.scheduler import RackScheduler, free_context_placement

__all__ = [
    "FirstFitPolicy",
    "LoadBalancePolicy",
    "PlacementPolicy",
    "PredictedSlowdownPolicy",
    "get_policy",
    "policy_names",
]


class PlacementPolicy:
    """The pluggable decision interface.

    Subclasses implement :meth:`admit`; the service calls :meth:`bind`
    once with the shared decision core (a
    :class:`~repro.rack.scheduler.RackScheduler`) before the run.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    def __init__(self) -> None:
        self.core: Optional[RackScheduler] = None

    def bind(self, core: RackScheduler) -> None:
        self.core = core

    def admit(
        self,
        fleet: FleetOccupancy,
        workloads: Sequence[WorkloadDescription],
    ) -> Tuple[List[Assignment], List[WorkloadDescription]]:
        """Place what can start now; return ``(placed, still_pending)``.

        Implementations MUST place admitted jobs into *fleet* (via
        ``fleet.place``) and keep ``still_pending`` in its original
        relative order.
        """
        raise NotImplementedError

    def _core(self) -> RackScheduler:
        if self.core is None:
            raise ReproError(
                f"policy {self.name!r} is not bound to a scheduler core"
            )
        return self.core


class FirstFitPolicy(PlacementPolicy):
    """Naive packing: first machine with free contexts gets everything.

    FIFO with head-of-line blocking — if the queue head cannot start,
    nothing behind it is considered (classic batch-queue behaviour).
    """

    name = "first-fit"

    def admit(self, fleet, workloads):
        core = self._core()
        placed: List[Assignment] = []
        remaining = list(workloads)
        while remaining:
            workload = remaining[0]
            chosen = None
            for machine in core.rack.machines:
                free = fleet.free_contexts(machine.name)
                if free < 1:
                    continue
                placement = free_context_placement(
                    machine, fleet.occupied(machine.name), free
                )
                if placement is not None:
                    chosen = Assignment(workload, machine.name, placement)
                    break
            if chosen is None:
                break  # head-of-line blocking
            fleet.place(workload, chosen.machine_name, chosen.placement)
            placed.append(chosen)
            remaining.pop(0)
        return placed, remaining


class LoadBalancePolicy(PlacementPolicy):
    """Spread by free-context count: emptiest machine, half its space.

    FIFO with head-of-line blocking, like first-fit; the difference is
    purely *where* and *how wide* — still contention-blind.
    """

    name = "load-balance"

    def admit(self, fleet, workloads):
        core = self._core()
        placed: List[Assignment] = []
        remaining = list(workloads)
        while remaining:
            workload = remaining[0]
            frees = [
                (fleet.free_contexts(m.name), m) for m in core.rack.machines
            ]
            free, machine = max(frees, key=lambda pair: pair[0])
            if free < 1:
                break
            n = max(1, free // 2)
            placement = free_context_placement(
                machine, fleet.occupied(machine.name), n
            )
            if placement is None:
                break
            fleet.place(workload, machine.name, placement)
            placed.append(Assignment(workload, machine.name, placement))
            remaining.pop(0)
        return placed, remaining


class PredictedSlowdownPolicy(PlacementPolicy):
    """Joint-prediction admission through the shared batch core.

    The pending set is admitted as one batch: LPT order by cached
    solo estimates, fair-share caps against the fleet's free contexts,
    every (machine, thread-count) candidate scored by re-predicting the
    target machine's co-schedule, then, for two or more jobs, one
    uncapped re-placement pass over the batch.  Jobs that find no free
    context right now stay pending (no head-of-line blocking — a batch
    policy).

    A job also stays pending when waiting is predicted to finish it
    sooner.  With k jobs already waiting, it waits for the (k+1)-th
    earliest predicted departure of the running jobs when its best
    candidate's cost — its own predicted time plus the time it adds to
    that machine's residents — exceeds that departure's remaining time
    plus the job's solo estimate (see
    :meth:`~repro.rack.scheduler.RackScheduler.admit_batch`).  A
    waiting job is left out of the batch, unscored, until the
    simulated clock (``fleet.now``) reaches the departure it waits for
    or no job is running.  With nothing running there is nothing to
    wait for, so a cold start never waits.
    """

    name = "predicted-slowdown"

    def __init__(self) -> None:
        super().__init__()
        #: Each waiting job's awaited departure, in simulated seconds.
        self._waits: Dict[str, float] = {}

    def admit(self, fleet, workloads):
        core = self._core()
        residents = fleet.residents()
        scratch_times: Dict[str, float] = {
            r.name: max(0.0, r.end_s - fleet.now) for r in residents
        }
        # A waiting job is held, not scored, until the clock reaches its
        # awaited departure or nothing runs.
        waits: Dict[str, float] = {}
        if residents:
            waits = {
                name: due for name, due in self._waits.items() if due > fleet.now
            }
        scored = [w for w in workloads if w.name not in waits]
        placed, _ = core.admit_batch(fleet, scratch_times, scored, waits=waits)
        self._waits = waits
        admitted = {a.workload.name for a in placed}
        return placed, [w for w in workloads if w.name not in admitted]


_REGISTRY: Dict[str, Type[PlacementPolicy]] = {
    policy.name: policy
    for policy in (FirstFitPolicy, LoadBalancePolicy, PredictedSlowdownPolicy)
}


def policy_names() -> List[str]:
    """Registered policy names, alphabetical."""
    return sorted(_REGISTRY)


def get_policy(name: str) -> PlacementPolicy:
    """Instantiate a registered policy by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(policy_names())
        raise ReproError(
            f"unknown placement policy {name!r}; known policies: {known}"
        ) from None
