"""Shared occupancy/residency bookkeeping for rack schedulers.

Both the batch :class:`~repro.rack.scheduler.RackScheduler` and the
event-driven :class:`~repro.online.service.OnlineScheduler` answer the
same two questions while deciding where a workload goes: *which
hardware contexts are taken on each machine* and *which workloads are
resident there with which placements*.  :class:`FleetOccupancy` is the
one model both share, so their views cannot drift apart.

A :class:`Resident` is one workload pinned to one machine, optionally
carrying the execution-time fields (``start_s`` / ``end_s``) the
time-driven scheduler needs; the batch scheduler simply leaves them
(and the fleet's clock, ``FleetOccupancy.now``) at their defaults.
Placement conflicts are rejected at ``place()`` time with errors that
name the machine and the colliding hardware threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from repro.core.coscheduling import CoScheduledWorkload
from repro.core.description import WorkloadDescription
from repro.core.placement import Placement
from repro.errors import PlacementError, ReproError
from repro.rack.model import Rack

__all__ = ["Resident", "FleetOccupancy"]


@dataclass
class Resident:
    """One workload resident on one machine of the fleet.

    ``start_s`` / ``end_s`` are meaningful only to the time-driven
    scheduler; the batch scheduler leaves them at ``0.0`` / ``inf``.
    ``done_fraction`` and ``predicted_total_s`` support re-prediction:
    when contention changes, a scheduler can account how much of the
    job ran under the old prediction and re-time the remainder.
    """

    workload: WorkloadDescription
    machine_name: str
    placement: Placement
    start_s: float = 0.0
    end_s: float = math.inf
    done_fraction: float = 0.0
    predicted_total_s: float = math.inf
    last_update_s: float = 0.0

    @property
    def name(self) -> str:
        return self.workload.name

    def progress_at(self, now: float) -> float:
        """Done fraction at *now* under the current prediction (pure)."""
        if now < self.last_update_s:
            raise ReproError(
                f"resident {self.name!r}: time went backwards "
                f"({now} < {self.last_update_s})"
            )
        if math.isfinite(self.predicted_total_s) and self.predicted_total_s > 0:
            return min(
                1.0,
                self.done_fraction
                + (now - self.last_update_s) / self.predicted_total_s,
            )
        return self.done_fraction

    def advance_to(self, now: float) -> None:
        """Accrue progress up to *now* under the current prediction."""
        self.done_fraction = self.progress_at(now)
        self.last_update_s = now

    def retime(self, now: float, new_total_s: float) -> None:
        """Re-predict the remaining work at *now* with a new total time.

        Progress made so far is preserved as a fraction of the old
        prediction (uniform-rate accounting); the remaining fraction
        runs at the new predicted rate.
        """
        if new_total_s <= 0:
            raise ReproError(
                f"resident {self.name!r}: predicted total must be positive"
            )
        self.advance_to(now)
        self.predicted_total_s = new_total_s
        self.end_s = now + (1.0 - self.done_fraction) * new_total_s


class FleetOccupancy:
    """Which workloads occupy which hardware contexts, fleet-wide.

    Deterministic: residents are kept in insertion order per machine
    and fleet-wide, matching the list bookkeeping this class replaced.

    ``now`` is the decision instant in simulated seconds: 0 for the
    offline batch problem; the time-driven scheduler sets it once per
    event, and every decision it takes at that event reads it.
    """

    def __init__(self, rack: Rack) -> None:
        self.rack = rack
        self.now = 0.0
        self._residents: Dict[str, Resident] = {}
        self._occupied: Dict[str, Set[int]] = {m.name: set() for m in rack.machines}

    # -- mutation --------------------------------------------------------

    def place(
        self,
        workload: WorkloadDescription,
        machine_name: str,
        placement: Placement,
        start_s: float = 0.0,
        end_s: float = math.inf,
        predicted_total_s: float = math.inf,
    ) -> Resident:
        """Pin *workload* to *placement* on *machine_name*.

        Raises :class:`PlacementError` naming the machine when the
        placement collides with a resident or does not fit the
        machine's topology, and :class:`ReproError` on a duplicate
        workload name.
        """
        if workload.name in self._residents:
            raise ReproError(
                f"workload {workload.name!r} is already resident on "
                f"{self._residents[workload.name].machine_name}"
            )
        machine = self.rack.machine(machine_name)
        if placement.topology.shape() != machine.spec.topology.shape():
            raise PlacementError(
                f"machine {machine_name}: placement shaped for a different machine"
            )
        taken = self._occupied[machine_name]
        overlap = taken & set(placement.hw_thread_ids)
        if overlap:
            raise PlacementError(
                f"machine {machine_name}: hardware threads {sorted(overlap)} "
                f"assigned twice"
            )
        resident = Resident(
            workload=workload,
            machine_name=machine_name,
            placement=placement,
            start_s=start_s,
            end_s=end_s,
            predicted_total_s=predicted_total_s,
            last_update_s=start_s,
        )
        self._residents[workload.name] = resident
        taken.update(placement.hw_thread_ids)
        return resident

    def restore(self, resident: Resident) -> Resident:
        """Re-insert a previously :meth:`remove`-d resident unchanged.

        Used by schedulers that *hypothetically* detach a resident (to
        score alternative placements) and then put it back — all timing
        fields survive, unlike a fresh :meth:`place`.
        """
        if resident.name in self._residents:
            raise ReproError(
                f"workload {resident.name!r} is already resident on "
                f"{self._residents[resident.name].machine_name}"
            )
        taken = self._occupied[resident.machine_name]
        overlap = taken & set(resident.placement.hw_thread_ids)
        if overlap:
            raise PlacementError(
                f"machine {resident.machine_name}: hardware threads "
                f"{sorted(overlap)} assigned twice"
            )
        self._residents[resident.name] = resident
        taken.update(resident.placement.hw_thread_ids)
        return resident

    def remove(self, workload_name: str) -> Resident:
        """Free the contexts held by one resident and return it."""
        resident = self.resident(workload_name)
        del self._residents[workload_name]
        self._occupied[resident.machine_name].difference_update(
            resident.placement.hw_thread_ids
        )
        return resident

    # -- queries ---------------------------------------------------------

    def resident(self, workload_name: str) -> Resident:
        try:
            return self._residents[workload_name]
        except KeyError:
            raise ReproError(
                f"workload {workload_name!r} is not resident on the fleet"
            ) from None

    def residents(self) -> List[Resident]:
        """All residents, fleet-wide, in insertion order."""
        return list(self._residents.values())

    def residents_on(self, machine_name: str) -> List[Resident]:
        self.rack.machine(machine_name)  # validate the name
        return [
            r for r in self._residents.values() if r.machine_name == machine_name
        ]

    def co_scheduled(self, machine_name: str) -> List[CoScheduledWorkload]:
        """One machine's residents as joint-predictor inputs."""
        return [
            CoScheduledWorkload(r.workload, r.placement)
            for r in self.residents_on(machine_name)
        ]

    def occupied(self, machine_name: str) -> Set[int]:
        """Hardware threads taken on one machine (a defensive copy)."""
        self.rack.machine(machine_name)  # validate the name
        return set(self._occupied[machine_name])

    def free_contexts(self, machine_name: str) -> int:
        return self.rack.machine(machine_name).n_hw_threads - len(
            self._occupied[machine_name]
        )

    def total_free_contexts(self) -> int:
        return sum(self.free_contexts(m.name) for m in self.rack.machines)

    def occupied_total(self) -> int:
        return sum(len(s) for s in self._occupied.values())

    def utilisation(self) -> float:
        """Fraction of the fleet's hardware contexts currently taken."""
        return self.occupied_total() / self.rack.total_hw_threads

    def __contains__(self, workload_name: object) -> bool:
        return workload_name in self._residents

    def __len__(self) -> int:
        return len(self._residents)

    def __iter__(self) -> Iterator[Resident]:
        return iter(self._residents.values())
