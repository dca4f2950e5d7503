"""Tests for the event-driven online scheduling service."""

import pytest

from repro.core.coscheduling import CoSchedulePredictor
from repro.errors import PredictionError, ReproError
from repro.online import OnlineScheduler, poisson_trace, replay_trace
from repro.online.policies import PlacementPolicy
from repro.rack.model import Assignment
from repro.rack.scheduler import free_context_placement

from tests.online.conftest import make_description


@pytest.fixture(scope="module")
def result(rack, pool):
    trace = poisson_trace(pool, n_jobs=20, rate_per_s=0.5, seed=7)
    return OnlineScheduler(rack, policy="predicted-slowdown").run(trace)


class TestRun:
    def test_every_job_completes(self, result):
        assert len(result.completed) == 20
        assert len(result.timeline.entries) == 20
        assert result.stats.arrivals == 20
        assert result.stats.departures == 20

    def test_decisions_are_recorded(self, result):
        assert result.stats.decisions == len(result.decisions) == 20
        for decision in result.decisions:
            assert decision.kind == "place"
            assert decision.predicted_total_s > 0
            assert decision.n_threads >= 1

    def test_slowdown_is_normalised_turnaround(self, result):
        job = result.completed[0]
        expected = (job.end_s - job.arrival_s) / job.solo_reference_s
        assert job.slowdown == pytest.approx(expected)
        assert result.mean_slowdown > 0
        assert result.p95_slowdown >= result.mean_slowdown * 0.5

    def test_utilisation_and_makespan(self, result):
        assert 0 < result.utilisation <= 1
        assert result.makespan_s >= max(e.end_s for e in result.timeline.entries)

    def test_queue_pressure_is_visible(self, rack, pool):
        """A burst wider than the fleet must defer some jobs."""
        records = [
            {"workload": "mem", "arrival_s": 0.0, "job": f"m{i}"} for i in range(3)
        ]
        trace = replay_trace(records, {w.name: w for w in pool})
        run = OnlineScheduler(rack, policy="first-fit").run(trace)
        assert run.stats.deferrals > 0
        assert len(run.completed) == 3

    def test_departure_repredicts_survivors(self, rack, pool):
        """When a co-runner leaves, survivors speed up: their recorded
        end time must not exceed the prediction made at admission."""
        pool_map = {w.name: w for w in pool}
        records = [
            {"workload": "mem", "arrival_s": 0.0, "job": "stay"},
            {"workload": "cpu", "arrival_s": 0.0, "job": "leave"},
        ]
        trace = replay_trace(records, pool_map)
        run = OnlineScheduler(rack, policy="predicted-slowdown").run(trace)
        stay = next(d for d in run.decisions if d.job_name == "stay")
        entry = run.timeline.entry_for("stay")
        assert entry.end_s <= stay.time_s + stay.predicted_total_s * (1 + 1e-9)

    def test_stats_registry_merges(self, result):
        data = result.stats.metrics.data()
        assert data["counters"]["online.arrivals"] == 20
        assert "online.decision_us" in data["histograms"]
        assert result.stats.summary().startswith("online scheduler stats:")
        assert "decisions" in result.summary()

    def test_hysteresis_validation(self, rack):
        with pytest.raises(ReproError, match="hysteresis"):
            OnlineScheduler(rack, hysteresis=-0.1)

    def test_negative_hysteresis_names_the_value(self, rack):
        with pytest.raises(ReproError, match="got -0.25"):
            OnlineScheduler(rack, hysteresis=-0.25)


class TestErrorsPropagate:
    def test_a_failed_joint_prediction_stops_the_replay(
        self, rack, pool, monkeypatch
    ):
        """A joint prediction that fails while a job is being scored
        raises out of the run; the job is not deferred to a later event
        as if it had found no room."""
        predict_batch = CoSchedulePredictor.predict_batch
        calls = []

        def fail_fifth_call(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise PredictionError("joint prediction 5 failed")
            return predict_batch(self, *args, **kwargs)

        monkeypatch.setattr(CoSchedulePredictor, "predict_batch", fail_fifth_call)
        trace = poisson_trace(pool, n_jobs=12, rate_per_s=0.5, seed=0)
        with pytest.raises(PredictionError, match="joint prediction 5 failed"):
            OnlineScheduler(rack, policy="predicted-slowdown").run(trace)
        assert len(calls) == 5


class TestSimulatedClockSampling:
    def test_recorder_samples_per_simulated_window(self, rack, pool):
        from repro.obs.metrics import Metrics
        from repro.obs.timeseries import TimeSeriesRecorder

        trace = poisson_trace(pool, n_jobs=20, rate_per_s=0.5, seed=7)
        recorder = TimeSeriesRecorder(Metrics(), interval_s=10.0)
        run = OnlineScheduler(rack, policy="predicted-slowdown").run(
            trace, recorder=recorder
        )
        names = {s.name for s in recorder.all_series()}
        # The tentpole quartet: queue depth, decision-latency
        # percentiles, admission rate, mean predicted slowdown.
        assert "online.queue_depth" in names
        assert "online.decision_us.p99" in names
        assert "online.arrivals" in names
        assert "online.slowdown.mean" in names
        arrivals = recorder.series("online.arrivals")
        # Samples land on simulated-window boundaries, one per window,
        # plus one final end-of-run sample closing the partial window.
        times = [t for t, _ in arrivals.points()]
        on_boundary = [t for t in times if t % 10.0 == 0.0]
        assert len(on_boundary) >= len(times) - 1
        assert times == sorted(times)
        assert times[-1] >= run.makespan_s
        # Cumulative counters are monotone and end at the run total.
        values = arrivals.values()
        assert values == sorted(values)
        assert values[-1] == 20

    def test_recorder_registry_is_the_run_registry(self, rack, pool):
        from repro.obs.metrics import Metrics
        from repro.obs.timeseries import TimeSeriesRecorder

        trace = poisson_trace(pool, n_jobs=5, rate_per_s=0.5, seed=3)
        recorder = TimeSeriesRecorder(Metrics(), interval_s=30.0)
        run = OnlineScheduler(rack).run(trace, recorder=recorder)
        assert recorder.registry.counter("online.arrivals").value == 5
        assert run.stats.arrivals == 5

    def test_sampling_does_not_change_the_schedule(self, rack, pool):
        from repro.obs.metrics import Metrics
        from repro.obs.timeseries import TimeSeriesRecorder

        trace = poisson_trace(pool, n_jobs=12, rate_per_s=0.5, seed=11)
        plain = OnlineScheduler(rack).run(trace)
        sampled = OnlineScheduler(rack).run(
            trace, recorder=TimeSeriesRecorder(Metrics(), interval_s=5.0)
        )
        assert [
            (d.job_name, d.machine_name, d.hw_thread_ids)
            for d in plain.decisions
        ] == [
            (d.job_name, d.machine_name, d.hw_thread_ids)
            for d in sampled.decisions
        ]
        assert plain.makespan_s == sampled.makespan_s


class _NarrowPacker(PlacementPolicy):
    """Deliberately bad: everything on node-0, four threads each.

    Used to manufacture a fleet state the migrator should fix.
    """

    name = "narrow-packer"

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


class TestMigration:
    def trace(self, pool):
        """One long DRAM job stuck on a 4-thread placement, plus a
        short compute job whose departure triggers the reschedule
        check.  Once alone, the long job is predicted ~17% faster on a
        full-width placement — above the 10% hysteresis bar."""
        records = [
            {"workload": "mem", "arrival_s": 0.0, "job": "hog"},
            {"workload": "cpu", "arrival_s": 0.0, "job": "short"},
        ]
        return replay_trace(records, {w.name: w for w in pool})

    def test_migration_relieves_bad_placement(self, rack, pool):
        stuck = OnlineScheduler(rack, policy=_NarrowPacker()).run(self.trace(pool))
        moved = OnlineScheduler(
            rack, policy=_NarrowPacker(), migrate=True, hysteresis=0.1
        ).run(self.trace(pool))
        assert stuck.stats.migrations == 0
        assert moved.stats.migrations >= 1
        migration = next(d for d in moved.decisions if d.kind == "migrate")
        assert migration.job_name == "hog"
        assert migration.n_threads > 4  # widened out of the bad placement
        assert moved.makespan_s < stuck.makespan_s

    def test_high_hysteresis_blocks_migration(self, rack, pool):
        run = OnlineScheduler(
            rack, policy=_NarrowPacker(), migrate=True, hysteresis=10.0
        ).run(self.trace(pool))
        assert run.stats.migrations == 0
