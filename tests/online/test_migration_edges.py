"""Migration edge cases: zero hysteresis, simultaneous departures, and
the record a migration leaves.

The contract under test: the event loop's migration decisions are a
pure function of fleet state — so a zero hysteresis bar is legal (any
predicted gain moves a job), and tied jobs finishing at the same
instant drain deterministically.  A migrated job's timeline holds one
entry per placement it ran on, so no context is held twice.
"""

from __future__ import annotations

import pytest

from repro.online import OnlineScheduler, poisson_trace, replay_trace
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


#: The ``_churn_run`` replay's decisions, pinned bit for bit:
#: (job, kind, time, machine, contexts, predicted total time).
PINNED_DECISIONS = [
    ('mem-00000', 'place', 0.1442910641095092, 'node-0', (0, 1, 2, 3, 4, 5, 6, 7), 9.999990953831068),
    ('cpu-00001', 'place', 0.43875478100377213, 'node-1', (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15), 0.6500000000000001),
    ('cpu-00002', 'place', 1.869889386141687, 'node-1', (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15), 0.6500000000000001),
    ('mem-00003', 'place', 2.9242732502075675, 'node-1', (0, 1, 2, 3, 4, 5, 6, 7), 9.999990953831068),
    ('mem-00004', 'place', 3.022834253669723, 'node-0', (8, 9, 10, 11, 12, 13, 14, 15), 19.999981907662136),
    ('cpu-00005', 'place', 5.2607281111654585, 'node-1', (8, 9, 10, 11, 12, 13, 14, 15), 4.111107392130551),
    ('mem-00006', 'place', 9.371835503296008, 'node-1', (8, 9), 45.47365415076376),
    ('mem-00008', 'place', 9.371835503296008, 'node-1', (10, 11), 45.47365415076376),
    ('mem-00009', 'place', 9.371835503296008, 'node-1', (12, 13), 33.80699519618895),
    ('cpu-00007', 'place', 9.371835503296008, 'node-1', (14, 15), 13.522798078475578),
    ('mem-00010', 'place', 14.02668709388996, 'node-1', (0, 1), 37.33330865463938),
    ('mid-00011', 'place', 14.02668709388996, 'node-1', (2, 3), 37.33330865463938),
    ('cpu-00012', 'place', 14.02668709388996, 'node-1', (4, 5), 5.199996562610483),
    ('cpu-00013', 'place', 14.02668709388996, 'node-1', (6, 7), 5.199996562610483),
    ('mid-00014', 'place', 17.26572978221143, 'node-0', (0, 1, 2, 3), 12.49121981301844),
    ('cpu-00015', 'place', 17.26572978221143, 'node-0', (4, 5, 6, 7), 4.5964881896219545),
    ('mid-00011', 'migrate', 17.43672775165866, 'node-1', (2, 3, 14, 15), 19.372536213646903),
    ('mem-00017', 'place', 19.35744482806847, 'node-1', (4,), 40.03203667706858),
    ('mid-00016', 'place', 19.35744482806847, 'node-1', (5,), 40.03203667706858),
    ('cpu-00018', 'place', 19.35744482806847, 'node-1', (6,), 15.884710180345829),
    ('mid-00016', 'migrate', 20.144272971771642, 'node-0', (8, 9, 10, 11, 12, 13, 14, 15), 2.85),
    ('mem-00017', 'migrate', 20.936626449009758, 'node-0', (4, 5, 6, 7), 13.239757329903439),
    ('mem-00019', 'place', 22.250851598337064, 'node-1', (4, 5, 7), 21.144521723764168),
    ('mid-00020', 'place', 24.222912757714013, 'node-0', (0, 1, 2, 3), 5.300000000000001),
    ('mem-00021', 'place', 25.93570433386464, 'node-0', (8, 9, 10, 11), 13.333324519514065),
    ('mid-00022', 'place', 25.93570433386464, 'node-0', (12, 13, 14, 15), 13.333324519514065),
    ('mem-00023', 'place', 31.125293764729264, 'node-1', (12, 13), 31.10684445899921),
    ('mem-00023', 'migrate', 33.6951652581939, 'node-0', (4, 5, 6, 7), 13.333324519514065),
    ('mem-00010', 'migrate', 34.96012207618884, 'node-0', (0, 1, 2, 3), 23.999984135125313),
    ('mem-00023', 'migrate', 42.71615427513059, 'node-1', (0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15), 10.784306596665786),
]


def _churn_run(rack, pool, migrate=True):
    """24 Poisson jobs at 1/s (seed 1) with a zero hysteresis bar: six
    migrations, one job moved twice."""
    trace = poisson_trace(pool, n_jobs=24, rate_per_s=1.0, seed=1)
    return OnlineScheduler(
        rack, migrate=migrate, hysteresis=0.0
    ).run(trace)


def _double_holds(timeline):
    """(machine, context) pairs two entries hold at one instant."""
    holds = {}
    for entry in timeline.entries:
        for tid in entry.placement.hw_thread_ids:
            holds.setdefault((entry.machine_name, tid), []).append(
                (entry.start_s, entry.end_s)
            )
    clashes = []
    for key, spans in holds.items():
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if start < end:
                clashes.append(key)
    return clashes


class TestMigratedTimeline:
    def test_decisions_match_the_pinned_replay(self, rack, pool):
        run = _churn_run(rack, pool)
        assert [
            (d.job_name, d.kind, d.time_s, d.machine_name, d.hw_thread_ids,
             d.predicted_total_s)
            for d in run.decisions
        ] == PINNED_DECISIONS

    def test_one_entry_per_placement_in_time_order(self, rack, pool):
        run = _churn_run(rack, pool)
        moves = [d for d in run.decisions if d.kind == "migrate"]
        for job in run.completed:
            entries = [
                e for e in run.timeline.entries if e.workload_name == job.name
            ]
            placed = [d for d in run.decisions if d.job_name == job.name]
            assert len(entries) == len(placed)
            assert entries[0].start_s == job.start_s
            assert entries[-1].end_s == job.end_s
            for before, after, decision in zip(entries, entries[1:], placed[1:]):
                assert before.end_s == after.start_s == decision.time_s
                assert after.machine_name == decision.machine_name
                assert after.placement.hw_thread_ids == decision.hw_thread_ids
        assert len(run.timeline.entries) == len(run.completed) + len(moves)

    def test_no_context_is_held_twice(self, rack, pool):
        assert _double_holds(_churn_run(rack, pool).timeline) == []

    def test_without_migration_each_job_has_one_entry(self, rack, pool):
        run = _churn_run(rack, pool, migrate=False)
        assert sorted(e.workload_name for e in run.timeline.entries) == sorted(
            j.name for j in run.completed
        )
        for job in run.completed:
            entry = run.timeline.entry_for(job.name)
            assert (entry.start_s, entry.end_s) == (job.start_s, job.end_s)
