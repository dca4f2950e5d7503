"""Tests for the execution timeline the online service records."""

import pytest

from repro.core.placement import Placement
from repro.errors import ReproError
from repro.online import ArrivalTrace, Job, OnlineScheduler, replay_trace
from repro.rack.model import Rack, RackMachine
from repro.rack.timeline import Timeline, TimelineEntry
from repro.rack.validate import validate_timeline

from tests.online.conftest import make_description


@pytest.fixture(scope="module")
def rack(request):
    testbox = request.getfixturevalue("testbox")
    testbox_md = request.getfixturevalue("testbox_md")
    return Rack(
        machines=(
            RackMachine("node-0", testbox, testbox_md),
            RackMachine("node-1", testbox, testbox_md),
        )
    )


def run(rack, *arrivals, policy="predicted-slowdown") -> Timeline:
    """Replay ``(description, arrival_s)`` pairs; return the timeline."""
    trace = ArrivalTrace(
        jobs=tuple(Job(d, arrival, d.name) for d, arrival in arrivals)
    )
    return OnlineScheduler(rack, policy=policy).run(trace).timeline


def _one_thread(rack):
    return Placement(rack.machines[0].spec.topology, (0,))


class TestBasicExecution:
    def test_single_request_runs_immediately(self, rack):
        timeline = run(rack, (make_description("solo"), 0.0))
        entry = timeline.entry_for("solo")
        assert entry.start_s == 0.0
        assert entry.queueing_delay_s == 0.0
        assert entry.duration_s > 0
        assert timeline.makespan_s == entry.end_s

    def test_all_requests_complete(self, rack):
        timeline = run(rack, *[(make_description(f"w{i}"), 0.0) for i in range(5)])
        assert {e.workload_name for e in timeline.entries} == {
            f"w{i}" for i in range(5)
        }

    def test_arrival_times_respected(self, rack):
        timeline = run(
            rack,
            (make_description("early"), 0.0),
            (make_description("late"), 100.0),
        )
        assert timeline.entry_for("late").start_s >= 100.0
        assert timeline.entry_for("early").start_s == 0.0

    # ``pandia timeline`` builds its trace from records, one per named
    # workload; these check that path rejects a bad batch before any run.
    def test_negative_arrival_rejected(self):
        pool = {"w": make_description("w")}
        with pytest.raises(ReproError, match="'w'.*negative"):
            replay_trace([{"workload": "w", "arrival_s": -1.0, "job": "w"}], pool)

    def test_duplicate_names_rejected(self):
        pool = {"w": make_description("w")}
        records = [
            {"workload": "w", "arrival_s": 0.0, "job": "w"},
            {"workload": "w", "arrival_s": 1.0, "job": "w"},
        ]
        with pytest.raises(ReproError, match="duplicate"):
            replay_trace(records, pool)

    def test_empty_rejected(self):
        with pytest.raises(ReproError, match="at least one job"):
            replay_trace([], {"w": make_description("w")})


class TestQueueing:
    """First-fit takes every free context of a machine, so two jobs fill
    the two-node rack and the rest wait for a machine to free."""

    def test_oversubscribed_rack_queues_requests(self, rack):
        timeline = run(
            rack,
            *[(make_description(f"w{i}"), 0.0) for i in range(4)],
            policy="first-fit",
        )
        starts = sorted(e.start_s for e in timeline.entries)
        assert starts[0] == 0.0 and starts[1] == 0.0
        assert starts[2] > 0.0 and starts[3] > 0.0
        # The third request starts exactly when the first machine frees.
        first_end = min(e.end_s for e in timeline.entries if e.start_s == 0.0)
        assert starts[2] == first_end

    def test_queueing_delay_accounting(self, rack):
        timeline = run(
            rack,
            *[(make_description(f"w{i}"), 0.0) for i in range(3)],
            policy="first-fit",
        )
        delays = [e.queueing_delay_s for e in timeline.entries]
        assert sum(1 for d in delays if d > 0) == 1
        assert timeline.mean_queueing_delay_s == pytest.approx(sum(delays) / 3)

    def test_queueing_delay_counts_each_workload_once(self, rack):
        """A migrated workload's later entries start at the move, not
        at its first start; its wait is counted from the first entry."""
        first = TimelineEntry("w", "node-0", _one_thread(rack), 1.0, 3.0, 5.0)
        moved = TimelineEntry("w", "node-1", _one_thread(rack), 1.0, 5.0, 9.0)
        other = TimelineEntry("v", "node-0", _one_thread(rack), 0.0, 0.0, 2.0)
        timeline = Timeline([first, moved, other])
        assert timeline.mean_queueing_delay_s == (2.0 + 0.0) / 2
        assert timeline.entry_for("w") is first


class TestPlacementQuality:
    def test_parallel_workload_gets_many_threads_on_idle_rack(self, rack):
        timeline = run(rack, (make_description("wide", p=0.999), 0.0))
        assert timeline.entry_for("wide").placement.n_threads >= 8

    def test_serial_workload_gets_one_thread(self, rack):
        timeline = run(rack, (make_description("narrow", p=0.0), 0.0))
        assert timeline.entry_for("narrow").placement.n_threads == 1

    def test_concurrent_memory_hogs_separate(self, rack):
        timeline = run(
            rack,
            (make_description("hog-a", inst=2.0, dram=25.0), 0.0),
            (make_description("hog-b", inst=2.0, dram=25.0), 0.0),
        )
        a = timeline.entry_for("hog-a")
        b = timeline.entry_for("hog-b")
        overlap = a.start_s < b.end_s and b.start_s < a.end_s
        if overlap:
            assert a.machine_name != b.machine_name


class TestTimelineValidation:
    def test_predictions_track_churn_aware_execution(self, rack, request):
        """Profile real specs, run the online service, replay the
        timeline through the churn-aware simulator, compare makespans."""
        from repro.sim.noise import NoiseModel
        from repro.workloads.spec import WorkloadSpec

        testbox_gen = request.getfixturevalue("testbox_gen")
        specs = {
            "tl-mem": WorkloadSpec(
                name="tl-mem", work_ginstr=60.0, cpi=0.9, l1_bpi=8.0,
                dram_bpi=4.0, working_set_mib=32.0, parallel_fraction=0.99,
            ),
            "tl-cpu": WorkloadSpec(
                name="tl-cpu", work_ginstr=120.0, cpi=0.3, l1_bpi=3.0,
                working_set_mib=0.5, parallel_fraction=0.99,
            ),
            "tl-mid": WorkloadSpec(
                name="tl-mid", work_ginstr=80.0, cpi=0.5, l1_bpi=6.0,
                dram_bpi=2.0, working_set_mib=8.0, parallel_fraction=0.98,
            ),
        }
        timeline = run(
            rack, *[(testbox_gen.generate(spec), 0.0) for spec in specs.values()]
        )
        validation = validate_timeline(
            timeline, rack, specs, noise=NoiseModel(sigma=0.01)
        )
        assert validation.makespan_error_percent < 40.0
        assert set(validation.measured_ends) == set(specs)

    def test_missing_spec_rejected(self, rack):
        timeline = run(rack, (make_description("ghost"), 0.0))
        with pytest.raises(ReproError, match="no ground-truth spec"):
            validate_timeline(timeline, rack, specs={})

    def test_migrated_workload_is_rejected_by_name(self, rack):
        """The simulator cannot move a running job, so a workload with
        two entries must raise, naming it, not replay one of them."""
        timeline = Timeline(
            [
                TimelineEntry("mover", "node-0", _one_thread(rack), 0.0, 0.0, 1.0),
                TimelineEntry("mover", "node-1", _one_thread(rack), 0.0, 1.0, 2.0),
            ]
        )
        with pytest.raises(ReproError, match="'mover'.*more than one placement"):
            validate_timeline(timeline, rack, specs={})


class TestGantt:
    def test_gantt_renders_all_rows(self, rack):
        timeline = run(rack, *[(make_description(f"w{i}"), 0.0) for i in range(3)])
        chart = timeline.gantt()
        for i in range(3):
            assert f"w{i}" in chart
        assert "#" in chart
