"""The discrete-event core: a priority queue over simulated time.

Events are totally ordered by ``(time, kind, sequence)``: at one
timestamp departures free contexts before arrivals try to claim them,
and reschedule (migration) checks run last, once the instant's churn
has settled.  The sequence number makes the order deterministic for
equal ``(time, kind)`` pairs — ties pop in push order.

Departure events are *versioned*: when a scheduler re-predicts a
running job (contention changed), it bumps the job's version and
pushes a fresh departure at the new end time; the stale event still
sits in the heap and is skipped on pop.  This is the standard
lazy-invalidation pattern for mutable-deadline event queues — cheaper
and simpler than heap surgery.

The :class:`EventLog` records every event actually *processed* (stale
pops excluded) as plain tuples, so two runs of the same seeded trace
can be compared for bit-identical behaviour
(``tests/online/test_batch_equivalence.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["Event", "EventKind", "EventLog", "EventLoop"]


class EventKind(IntEnum):
    """Event types, in their processing order at equal timestamps."""

    DEPARTURE = 0
    ARRIVAL = 1
    RESCHEDULE = 2


@dataclass(frozen=True)
class Event:
    """One scheduled event: what happens to which job, and when."""

    time_s: float
    kind: EventKind
    job_name: str
    version: int = 0

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ReproError(
                f"event for {self.job_name!r} scheduled at negative time "
                f"{self.time_s}"
            )


@dataclass
class EventLog:
    """Replayable record of processed events (determinism witness)."""

    records: List[Tuple[float, str, str]] = field(default_factory=list)

    def append(self, event: Event) -> None:
        self.records.append((event.time_s, event.kind.name, event.job_name))

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.records == other.records


class EventLoop:
    """Priority queue of events with deterministic ordering.

    Time is monotonic: popping an event earlier than the latest popped
    time raises (it would mean a scheduler pushed into the past).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self.now = 0.0

    def push(self, event: Event) -> None:
        if event.time_s < self.now:
            raise ReproError(
                f"cannot schedule {event.kind.name} for {event.job_name!r} at "
                f"{event.time_s}: simulated time is already {self.now}"
            )
        heapq.heappush(self._heap, (event.time_s, int(event.kind), self._seq, event))
        self._seq += 1

    def pop(self) -> Event:
        if not self._heap:
            raise ReproError(
                f"event loop is empty at simulated time {self.now}"
            )
        _, _, _, event = heapq.heappop(self._heap)
        self.now = event.time_s
        return event

    def peek(self) -> Optional[Event]:
        return self._heap[0][3] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
