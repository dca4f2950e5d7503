"""Rack-scale scheduling on top of Pandia predictions.

The paper's closing future-work item (Section 8): "we aim to extend
Pandia from scheduling a single workload on a single machine to the
scheduling of multiple workloads on a rack-scale system", using its
predictions of resource consumption as well as performance.

This package implements that extension: a rack is a set of machines
with measured descriptions; a scheduler assigns a batch of profiled
workloads to (machine, placement) slots, scoring every candidate with
the joint co-schedule predictor; and a validator co-runs the resulting
schedule through the ground-truth simulator.  Workloads that arrive
over time are placed by :class:`repro.online.OnlineScheduler`, which
uses the same decision core and records a :class:`Timeline`.
"""

from repro.rack.model import Assignment, Rack, RackMachine, RackSchedule
from repro.rack.occupancy import FleetOccupancy, Resident
from repro.rack.scheduler import RackScheduler
from repro.rack.timeline import Timeline
from repro.rack.validate import validate_schedule, validate_timeline

__all__ = [
    "Assignment",
    "FleetOccupancy",
    "Rack",
    "RackMachine",
    "RackSchedule",
    "RackScheduler",
    "Resident",
    "Timeline",
    "validate_schedule",
    "validate_timeline",
]
