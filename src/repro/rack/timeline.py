"""Execution records of queued workloads: who ran where, and when.

The batch scheduler (:mod:`repro.rack.scheduler`) answers "how do I
place these workloads *now*"; a server sees workloads arrive over time
and finish at different moments, freeing space.  The event loop that
places them is :class:`repro.online.service.OnlineScheduler`; this
module holds what it records:

* :class:`TimelineEntry` — one placement a workload ran on: machine,
  placement, arrival, start and end.  A workload that migrated has one
  entry per placement, in time order;
* :class:`Timeline` — the complete record, with makespan, queueing
  delay and a text Gantt chart.

:func:`repro.rack.validate.validate_timeline` replays a timeline
through the churn-aware simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.placement import Placement
from repro.errors import ReproError


@dataclass
class TimelineEntry:
    """One placement a workload ran on, from its start to its end there."""

    workload_name: str
    machine_name: str
    placement: Placement
    arrival_s: float
    start_s: float
    end_s: float

    @property
    def queueing_delay_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class Timeline:
    """The complete execution record of a job stream."""

    entries: List[TimelineEntry] = field(default_factory=list)

    def entry_for(self, workload_name: str) -> TimelineEntry:
        """The workload's first entry (where it started)."""
        for entry in self.entries:
            if entry.workload_name == workload_name:
                return entry
        raise ReproError(f"workload {workload_name!r} never ran")

    @property
    def makespan_s(self) -> float:
        if not self.entries:
            raise ReproError("empty timeline")
        return max(e.end_s for e in self.entries)

    @property
    def mean_queueing_delay_s(self) -> float:
        """Mean wait from arrival to first start, one term per workload."""
        if not self.entries:
            raise ReproError("empty timeline")
        first: Dict[str, TimelineEntry] = {}
        for entry in self.entries:
            first.setdefault(entry.workload_name, entry)
        return sum(e.queueing_delay_s for e in first.values()) / len(first)

    def gantt(self, width: int = 64) -> str:
        """A text Gantt chart, one row per entry."""
        span = self.makespan_s
        lines = []
        for entry in sorted(self.entries, key=lambda e: (e.start_s, e.workload_name)):
            start = int(entry.start_s / span * width)
            end = max(start + 1, int(entry.end_s / span * width))
            bar = " " * start + "#" * (end - start)
            lines.append(
                f"{entry.workload_name:12s} |{bar:<{width}}| "
                f"{entry.machine_name} n={entry.placement.n_threads}"
            )
        lines.append(f"{'':12s} 0{'':{width - 2}}{span:.1f}s")
        return "\n".join(lines)
