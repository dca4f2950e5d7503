"""Tests for arrival-trace generation and replay."""

import pytest

from repro.errors import ReproError
from repro.online.trace import (
    ArrivalTrace,
    Job,
    diurnal_trace,
    poisson_trace,
    replay_trace,
)

from tests.online.conftest import make_description


@pytest.fixture(scope="module")
def small_pool():
    return [make_description("alpha"), make_description("beta")]


class TestGenerators:
    def test_same_seed_same_trace(self, small_pool):
        a = poisson_trace(small_pool, n_jobs=20, rate_per_s=1.0, seed=42)
        b = poisson_trace(small_pool, n_jobs=20, rate_per_s=1.0, seed=42)
        assert a.to_records() == b.to_records()

    def test_different_seed_different_trace(self, small_pool):
        a = poisson_trace(small_pool, n_jobs=20, rate_per_s=1.0, seed=1)
        b = poisson_trace(small_pool, n_jobs=20, rate_per_s=1.0, seed=2)
        assert a.to_records() != b.to_records()

    def test_jobs_are_ordered_and_uniquely_named(self, small_pool):
        trace = poisson_trace(small_pool, n_jobs=50, rate_per_s=2.0, seed=0)
        arrivals = [j.arrival_s for j in trace.jobs]
        assert arrivals == sorted(arrivals)
        names = [j.name for j in trace.jobs]
        assert len(set(names)) == len(names)
        assert len(trace) == 50 and trace.duration_s > 0

    def test_clone_keeps_prediction_inputs(self, small_pool):
        trace = poisson_trace(small_pool, n_jobs=4, rate_per_s=1.0, seed=0)
        job = trace.jobs[0]
        original = {w.name: w for w in small_pool}[job.spec_name]
        assert job.workload.demands == original.demands
        assert job.workload.t1 == original.t1
        assert job.workload.name != original.name

    def test_diurnal_rate_modulation_is_deterministic(self, small_pool):
        a = diurnal_trace(small_pool, 30, mean_rate_per_s=1.0, period_s=60, seed=5)
        b = diurnal_trace(small_pool, 30, mean_rate_per_s=1.0, period_s=60, seed=5)
        assert a.to_records() == b.to_records()
        assert a.kind == "diurnal"

    def test_generator_validation(self, small_pool):
        with pytest.raises(ReproError, match="non-empty"):
            poisson_trace([], 5, 1.0)
        with pytest.raises(ReproError, match="at least one job"):
            poisson_trace(small_pool, 0, 1.0)
        with pytest.raises(ReproError, match="positive"):
            poisson_trace(small_pool, 5, 0.0)
        with pytest.raises(ReproError, match="amplitude"):
            diurnal_trace(small_pool, 5, 1.0, 60.0, amplitude=1.5)
        with pytest.raises(ReproError, match="period"):
            diurnal_trace(small_pool, 5, 1.0, 0.0)


class TestReplay:
    def test_roundtrip(self, small_pool):
        trace = poisson_trace(small_pool, n_jobs=10, rate_per_s=1.0, seed=3)
        pool_map = {w.name: w for w in small_pool}
        rebuilt = replay_trace(trace.to_records(), pool_map)
        assert rebuilt.to_records() == trace.to_records()
        assert rebuilt.kind == "replay"

    def test_unknown_pool_workload_named(self, small_pool):
        pool_map = {w.name: w for w in small_pool}
        with pytest.raises(ReproError, match="ghost"):
            replay_trace([{"workload": "ghost", "arrival_s": 0.0}], pool_map)

    def test_malformed_record_rejected(self, small_pool):
        pool_map = {w.name: w for w in small_pool}
        with pytest.raises(ReproError, match="record 0"):
            replay_trace([{"arrival_s": 1.0}], pool_map)


class TestValidation:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ReproError, match="negative"):
            Job(make_description("w"), arrival_s=-1.0, spec_name="w")

    def test_trace_rejects_unordered_jobs(self):
        jobs = (
            Job(make_description("a"), 5.0, "a"),
            Job(make_description("b"), 1.0, "b"),
        )
        with pytest.raises(ReproError, match="ordered"):
            ArrivalTrace(jobs=jobs)

    def test_trace_rejects_duplicate_names(self):
        jobs = (
            Job(make_description("a"), 0.0, "a"),
            Job(make_description("a"), 1.0, "a"),
        )
        with pytest.raises(ReproError, match="duplicate"):
            ArrivalTrace(jobs=jobs)

    def test_empty_trace_rejected(self):
        with pytest.raises(ReproError, match="at least one"):
            ArrivalTrace(jobs=())


class TestErrorsNameTheValue:
    """Each rejected generator argument or trace appears in its error."""

    def test_unordered_trace_names_the_first_out_of_order_job(self):
        jobs = (
            Job(make_description("a"), 5.0, "a"),
            Job(make_description("b"), 6.0, "b"),
            Job(make_description("c"), 1.0, "c"),
        )
        with pytest.raises(ReproError, match=r"job 'c' arrives at 1.0 s, before 'b'"):
            ArrivalTrace(jobs=jobs)

    def test_job_count_is_named(self, small_pool):
        with pytest.raises(ReproError, match="n_jobs=0"):
            poisson_trace(small_pool, 0, 1.0)
        with pytest.raises(ReproError, match="n_jobs=-3"):
            diurnal_trace(small_pool, -3, 1.0, 60.0)

    def test_rate_is_named(self, small_pool):
        with pytest.raises(ReproError, match="positive, got -0.5"):
            poisson_trace(small_pool, 5, -0.5)

    def test_mean_rate_is_named(self, small_pool):
        with pytest.raises(ReproError, match="mean arrival rate .* got 0.0"):
            diurnal_trace(small_pool, 5, 0.0, 60.0)

    def test_period_is_named(self, small_pool):
        with pytest.raises(ReproError, match="period must be positive, got -60.0"):
            diurnal_trace(small_pool, 5, 1.0, -60.0)

    def test_amplitude_is_named(self, small_pool):
        with pytest.raises(ReproError, match=r"\[0, 1\), got 1.5"):
            diurnal_trace(small_pool, 5, 1.0, 60.0, amplitude=1.5)
