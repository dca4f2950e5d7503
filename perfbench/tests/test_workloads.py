"""Tiny runs of each workload: checks pass, simulated metrics are seeded."""

import dataclasses

import pytest

from perfbench import workloads
from repro.online.policies import LoadBalancePolicy, PredictedSlowdownPolicy

TINY = {
    "online-predicted": lambda: workloads.OnlineWorkload(
        "online-predicted", PredictedSlowdownPolicy, n_jobs=40
    ),
    "online-balance": lambda: workloads.OnlineWorkload(
        "online-balance", LoadBalancePolicy, n_jobs=40
    ),
    "optimize-x5": lambda: workloads.OptimizeWorkload("optimize-x5", ["MD", "EP", "CG"]),
}


def simulated(name, seed, passes=1):
    workload = TINY[name]()
    state = workload.setup(seed)
    results = [workload.run_pass(state, i) for i in range(passes)]
    for result in results:
        assert result.failures == []
        assert len(result.latencies_ns) >= 1 and result.wall_ns > 0
    assert all(r.outcome == results[0].outcome for r in results)
    quality = workload.quality(state, results[0])
    return quality["mean_turnaround_s"], quality["chosen_speedup"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_simulated_metrics_repeat_under_one_seed_and_move_under_another(name):
    first = simulated(name, seed=0, passes=2)
    assert simulated(name, seed=0) == first
    assert simulated(name, seed=1) != first
    assert all(value > 0 for value in first)


def test_registered_workloads_are_full_size():
    online = workloads.make("online-predicted")
    assert online.n_jobs == 2000 and online.tail_q == 0.99
    optimize = workloads.make("optimize-x5")
    assert len(optimize.workload_names) == 22 and optimize.min_passes == 5


class TestOnlineChecks:
    @pytest.fixture(scope="class")
    def replay(self):
        workload = TINY["online-balance"]()
        state = workload.setup(3)
        from repro.online import OnlineScheduler

        result = OnlineScheduler(state["rack"], policy="load-balance").run(state["trace"])
        assert workloads.check_online(state["trace"], result) == []
        return state["trace"], result

    def test_early_start_is_caught(self, replay):
        trace, result = replay
        job = result.completed[5]
        result = dataclasses.replace(
            result,
            completed=result.completed[:5]
            + [dataclasses.replace(job, start_s=job.arrival_s - 1.0)]
            + result.completed[6:],
        )
        failures = workloads.check_online(trace, result)
        assert len(failures) == 1 and job.name in failures[0]

    def test_missing_and_repeated_jobs_are_caught(self, replay):
        trace, result = replay
        completed = result.completed[1:] + [result.completed[2]]
        failures = workloads.check_online(trace, dataclasses.replace(result, completed=completed))
        assert len(failures) == 2

    def test_shared_context_is_caught(self, replay):
        trace, result = replay
        entries = sorted(result.timeline.entries, key=lambda e: e.start_s)
        a, b = entries[0], entries[-1]
        moved = dataclasses.replace(
            b, machine_name=a.machine_name, placement=a.placement,
            start_s=a.start_s, end_s=a.end_s + 1.0,
        )
        timeline = dataclasses.replace(
            result.timeline,
            entries=[e for e in result.timeline.entries if e is not b] + [moved],
        )
        failures = workloads.check_online(trace, dataclasses.replace(result, timeline=timeline))
        assert any(a.workload_name in f and b.workload_name in f for f in failures)


def test_session_check_catches_a_wrong_chosen_time():
    workload = TINY["optimize-x5"]()
    state = workload.setup(0)
    from repro.core.optimizer import rightsize
    from repro.core.predictor import PandiaPredictor
    from repro.search import ExhaustiveStrategy, SearchEngine

    md, wd = state["md"], state["descriptions"][0]
    predictor = PandiaPredictor(md)
    result = SearchEngine(predictor).search(wd, ExhaustiveStrategy(sample=50, seed=0))
    _, small = rightsize(predictor, wd, [r.placement for r in result.ranked])
    assert workloads.check_session(md, wd, result, small, 0.05) is None
    bad = dataclasses.replace(result, best=result.ranked[-1])
    assert "not the minimum" in workloads.check_session(md, wd, bad, small, 0.05)
    mislabelled = dataclasses.replace(
        result.best, prediction=dataclasses.replace(
            result.best.prediction,
            predicted_time_s=result.best.predicted_time_s * (1 + 1e-9),
        ),
    )
    wrong = dataclasses.replace(result, best=mislabelled)
    assert "scalar predict" in workloads.check_session(md, wd, wrong, small, 0.05)
    slow = dataclasses.replace(small, predicted_time_s=result.best.predicted_time_s * 1.2)
    assert "budget" in workloads.check_session(md, wd, result, slow, 0.05)


def test_one_decision_sample_per_admit_call():
    from perfbench import spans

    workload = TINY["online-predicted"]()
    state = workload.setup(2)
    admit = PredictedSlowdownPolicy.admit
    timed = workload.run_pass(state, 0)
    assert PredictedSlowdownPolicy.admit is admit
    recorder = spans.Recorder()
    with spans.Installed(recorder):
        traced = workload.run_pass(state, 1, recorder)
    assert traced.outcome == timed.outcome
    assert len(timed.latencies_ns) == recorder.names.count("policies.admit") >= 40
    assert all(ns > 0 for ns in timed.latencies_ns)
