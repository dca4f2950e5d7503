"""Migration edge cases: zero hysteresis, simultaneous departures, and
the record a migration leaves.

The contract under test: the event loop's migration decisions are a
pure function of fleet state — so a zero hysteresis bar is legal (any
predicted gain moves a job), and tied jobs finishing at the same
instant drain deterministically.  A migrated job's timeline holds one
entry per placement it ran on, so no context is held twice.
"""

from __future__ import annotations

from collections import Counter

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
    ('cpu-00005', 'place', 5.2607281111654585, 'node-0', (8, 9, 10, 11, 12, 13, 14, 15), 4.111107392130551),
    ('cpu-00007', 'place', 7.017891304081755, 'node-1', (8, 9, 10, 11), 4.5964881896219545),
    ('mem-00004', 'place', 10.255393028538702, 'node-0', (0, 1, 2, 3, 4, 5, 6, 7), 9.999990953831068),
    ('mem-00010', 'place', 11.50775014766759, 'node-0', (8, 9, 10, 11, 12, 13, 14, 15), 19.999981907662136),
    ('mid-00011', 'place', 11.530325167737315, 'node-1', (12, 13, 14, 15), 12.49121981301844),
    ('mem-00008', 'place', 11.614379493703709, 'node-1', (8, 9, 10, 11), 23.15787942862969),
    ('cpu-00012', 'place', 13.245557077481752, 'node-1', (0, 1, 2, 3, 4, 5, 6, 7), 2.647796991846897),
    ('cpu-00013', 'place', 15.89335406932865, 'node-1', (0, 1, 2, 3), 4.933330072220205),
    ('cpu-00015', 'place', 15.89335406932865, 'node-1', (4, 5, 6, 7), 2.12),
    ('mid-00016', 'place', 17.817787551548737, 'node-1', (12, 13, 14, 15), 5.300000000000001),
    ('mem-00010', 'migrate', 18.01335406932865, 'node-1', (4, 5), 14.566028107167252),
    ('cpu-00018', 'place', 19.209191499096466, 'node-0', (8, 9, 10, 11, 12, 13, 14, 15), 4.111107392130551),
    ('mid-00020', 'place', 22.789014056513125, 'node-1', (0, 1, 2, 3, 6, 7), 8.968547530578798),
    ('mid-00020', 'migrate', 23.619296953798422, 'node-0', (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15), 1.6250000000000004),
    ('mem-00009', 'place', 24.66202053022651, 'node-1', (0, 1, 2, 3, 6, 7, 8, 9, 10, 11), 9.999990953831068),
    ('mem-00006', 'place', 25.34248090316094, 'node-0', (0, 1, 2, 3), 11.999992067562657),
    ('mem-00021', 'place', 25.34248090316094, 'node-0', (4, 5), 11.999992067562657),
    ('mid-00022', 'place', 25.54816067030658, 'node-0', (6, 7, 8, 9), 12.666658293538358),
    ('mem-00017', 'place', 34.66201148405758, 'node-1', (0, 1, 2, 3, 4, 5, 6, 7), 9.999990953831068),
    ('mem-00019', 'place', 38.5564131576088, 'node-0', (0, 1, 2, 3, 4, 5, 6, 7), 19.999981907662136),
    ('mem-00023', 'place', 38.5564131576088, 'node-0', (8, 9, 10, 11, 12, 13, 14, 15), 19.999981907662136),
    ('mid-00014', 'place', 44.662002437888646, 'node-1', (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15), 1.6250000000000004),
    ('mem-00023', 'migrate', 46.287002437888646, 'node-1', (0, 1, 2, 3, 4, 5, 6, 7), 9.999990953831068),
]


def _churn_run(rack, pool, migrate=True, seed=1):
    """24 Poisson jobs at 1/s with a zero hysteresis bar.  Seed 1
    migrates three times and moves no job twice; seed 4, the first
    seed that moves a job twice (three jobs, ten migrations), keeps
    that timeline path covered."""
    trace = poisson_trace(pool, n_jobs=24, rate_per_s=1.0, seed=seed)
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
        _assert_one_entry_per_placement(_churn_run(rack, pool))

    def test_double_moves_keep_one_entry_per_placement(self, rack, pool):
        run = _churn_run(rack, pool, seed=4)
        moves = Counter(d.job_name for d in run.decisions if d.kind == "migrate")
        assert max(moves.values()) == 2
        _assert_one_entry_per_placement(run)
        assert _double_holds(run.timeline) == []

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


def _assert_one_entry_per_placement(run):
    """Each job's timeline entries follow its decisions, in time order."""
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
