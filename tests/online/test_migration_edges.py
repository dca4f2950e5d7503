"""Migration edge cases: zero hysteresis and simultaneous departures.

The contract under test: the event loop's migration decisions are a
pure function of fleet state — so a zero hysteresis bar is legal (any
predicted gain moves a job), and tied jobs finishing at the same
instant drain deterministically.
"""

from __future__ import annotations

import pytest

from repro.online import OnlineScheduler, replay_trace
from repro.online.policies import PlacementPolicy
from repro.rack.model import Assignment
from repro.rack.scheduler import free_context_placement

from tests.online.conftest import make_description


class _NarrowPacker(PlacementPolicy):
    """Everything on node-0, four threads each — manufactures a fleet
    state the migrator wants to fix (same trick as test_service)."""

    name = "narrow-packer-edges"

    def admit(self, fleet, workloads):
        placed = []
        machine = self.core.rack.machines[0]
        for workload in workloads:
            placement = free_context_placement(
                machine, fleet.occupied(machine.name), 4
            )
            if placement is None:
                return placed, list(workloads[len(placed):])
            fleet.place(workload, machine.name, placement)
            placed.append(Assignment(workload, machine.name, placement))
        return placed, []


def _mixed_trace(pool):
    records = [
        {"workload": "mem", "arrival_s": 0.0, "job": "hog"},
        {"workload": "cpu", "arrival_s": 0.0, "job": "short"},
    ]
    return replay_trace(records, {w.name: w for w in pool})


class TestZeroHysteresis:
    def test_zero_hysteresis_is_valid(self, rack):
        OnlineScheduler(rack, hysteresis=0.0)  # must not raise

    def test_zero_bar_migrates_at_least_as_much(self, rack, pool):
        lax = OnlineScheduler(
            rack, policy=_NarrowPacker(), migrate=True, hysteresis=0.0
        ).run(_mixed_trace(pool))
        strict = OnlineScheduler(
            rack, policy=_NarrowPacker(), migrate=True, hysteresis=0.1
        ).run(_mixed_trace(pool))
        assert lax.stats.migrations >= strict.stats.migrations
        assert lax.stats.migrations >= 1
        assert all(d.kind != "migrate" or d.job_name for d in lax.decisions)

    def test_zero_bar_run_is_deterministic(self, rack, pool):
        first = OnlineScheduler(
            rack, policy=_NarrowPacker(), migrate=True, hysteresis=0.0
        ).run(_mixed_trace(pool))
        second = OnlineScheduler(
            rack, policy=_NarrowPacker(), migrate=True, hysteresis=0.0
        ).run(_mixed_trace(pool))
        assert first.makespan_s == second.makespan_s
        assert [(d.kind, d.job_name) for d in first.decisions] == [
            (d.kind, d.job_name) for d in second.decisions
        ]


class TestEqualFinishTies:
    def _twin_trace(self):
        """Two identical jobs, same arrival, same placement width: they
        finish at exactly the same simulated instant."""
        twin = make_description("twin", t1=10.0)
        records = [
            {"workload": "twin", "arrival_s": 0.0, "job": "twin-a"},
            {"workload": "twin", "arrival_s": 0.0, "job": "twin-b"},
        ]
        return replay_trace(records, {"twin": twin})

    def test_simultaneous_departures_drain(self, rack):
        run = OnlineScheduler(rack, policy="predicted-slowdown").run(
            self._twin_trace()
        )
        assert len(run.completed) == 2
        finishes = sorted(j.end_s for j in run.completed)
        assert finishes[0] == pytest.approx(finishes[1])
        assert run.makespan_s == pytest.approx(finishes[1])

    def test_ties_with_migration_enabled(self, rack):
        # Equal-finish departures must not confuse the post-departure
        # reschedule check (each departure re-predicts survivors; at the
        # second tie event there are none left).
        run = OnlineScheduler(
            rack, policy="predicted-slowdown", migrate=True, hysteresis=0.0
        ).run(self._twin_trace())
        assert len(run.completed) == 2

    def test_tie_runs_are_deterministic(self, rack):
        first = OnlineScheduler(rack, policy="predicted-slowdown").run(
            self._twin_trace()
        )
        second = OnlineScheduler(rack, policy="predicted-slowdown").run(
            self._twin_trace()
        )
        assert [(j.name, j.end_s) for j in first.completed] == [
            (j.name, j.end_s) for j in second.completed
        ]
