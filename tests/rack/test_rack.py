"""Tests for the rack-scale scheduler (paper Section 8 future work)."""

import pytest

from repro.core.description import DemandVector, WorkloadDescription
from repro.errors import PlacementError, ReproError
from repro.rack.model import Assignment, Rack, RackMachine, RackSchedule
from repro.rack.scheduler import (
    RackScheduler,
    candidate_thread_counts,
    free_context_placement,
)
from repro.rack.validate import validate_schedule
from repro.sim.noise import NoiseModel
from repro.workloads.spec import WorkloadSpec


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


def make_description(name, inst=4.0, dram=2.0, p=0.98, t1=20.0):
    return WorkloadDescription(
        name=name,
        machine_name="TESTBOX",
        t1=t1,
        demands=DemandVector(inst_rate=inst, cache_bw={"L1": 20.0}, dram_bw=dram),
        parallel_fraction=p,
        load_balance=0.8,
    )


class TestModel:
    def test_rack_rejects_duplicate_names(self, testbox, testbox_md):
        with pytest.raises(ReproError, match="duplicate"):
            Rack(
                machines=(
                    RackMachine("n", testbox, testbox_md),
                    RackMachine("n", testbox, testbox_md),
                )
            )

    def test_machine_lookup(self, rack):
        assert rack.machine("node-1").name == "node-1"
        with pytest.raises(ReproError, match="no rack machine"):
            rack.machine("node-9")

    def test_schedule_rejects_overlapping_assignments(self, rack, testbox):
        from repro.core.placement import Placement

        wd = make_description("w")
        pl = Placement(testbox.topology, (0, 1))
        with pytest.raises(PlacementError, match="assigned twice"):
            RackSchedule(
                rack=rack,
                assignments=[
                    Assignment(wd, "node-0", pl),
                    Assignment(make_description("x"), "node-0", pl),
                ],
            )

    def test_total_threads(self, rack):
        assert rack.total_hw_threads == 32


class TestFreeContextPlacement:
    def test_prefers_empty_cores(self, rack):
        machine = rack.machines[0]
        placement = free_context_placement(machine, occupied=set(), n_threads=4)
        assert all(c == 1 for c in placement.threads_per_core().values())

    def test_skips_occupied_contexts(self, rack):
        machine = rack.machines[0]
        placement = free_context_placement(machine, occupied={0, 1}, n_threads=2)
        assert not set(placement.hw_thread_ids) & {0, 1}

    def test_returns_none_when_full(self, rack):
        machine = rack.machines[0]
        assert free_context_placement(machine, set(range(16)), 1) is None

    def test_candidate_ladder(self):
        assert candidate_thread_counts(16) == [1, 2, 4, 8, 16]
        assert candidate_thread_counts(5) == [1, 2, 4, 5]
        assert candidate_thread_counts(1) == [1]

    def test_zero_free_contexts_yield_no_candidates(self):
        """A full machine degrades to an empty ladder, not a crash."""
        assert candidate_thread_counts(0) == []

    def test_negative_free_count_is_a_caller_bug(self):
        with pytest.raises(ReproError, match="negative"):
            candidate_thread_counts(-1)

    def test_placement_of_zero_threads_names_the_machine(self, rack):
        machine = rack.machines[0]
        with pytest.raises(ReproError, match="node-0.*at least one thread"):
            free_context_placement(machine, occupied=set(), n_threads=0)
        with pytest.raises(ReproError, match="node-0"):
            free_context_placement(machine, occupied=set(), n_threads=-3)


class TestScheduler:
    def test_two_workloads_spread_over_machines(self, rack):
        scheduler = RackScheduler(rack)
        schedule = scheduler.schedule(
            [make_description("a"), make_description("b")]
        )
        machines_used = {a.machine_name for a in schedule.assignments}
        assert machines_used == {"node-0", "node-1"}

    def test_memory_hogs_do_not_share_a_machine(self, rack):
        """Resource-aware packing: two DRAM-saturating workloads go to
        different machines even though either machine could hold both."""
        scheduler = RackScheduler(rack)
        hogs = [
            make_description("hog-a", inst=2.0, dram=25.0),
            make_description("hog-b", inst=2.0, dram=25.0),
        ]
        schedule = scheduler.schedule(hogs)
        a = schedule.assignment_for("hog-a").machine_name
        b = schedule.assignment_for("hog-b").machine_name
        assert a != b

    def test_every_workload_gets_predictions(self, rack):
        scheduler = RackScheduler(rack)
        names = [f"w{i}" for i in range(4)]
        schedule = scheduler.schedule([make_description(n) for n in names])
        assert set(schedule.predicted_times) == set(names)
        assert schedule.predicted_makespan_s > 0

    def test_rejects_duplicate_workloads(self, rack):
        scheduler = RackScheduler(rack)
        with pytest.raises(ReproError, match="duplicate"):
            scheduler.schedule([make_description("w"), make_description("w")])

    def test_rejects_empty_batch(self, rack):
        with pytest.raises(ReproError):
            RackScheduler(rack).schedule([])

    def test_empty_batch_error_names_the_rack_machines(self, rack):
        with pytest.raises(ReproError, match="node-0, node-1"):
            RackScheduler(rack).schedule([])

    def test_store_backed_candidates_reproduce_the_schedule(self, rack, tmp_path):
        """Candidate ladders are looked up per schedule and only the
        misses are batched; a second pass is all store hits and changes
        nothing."""
        from repro.io.prediction_store import PredictionStore

        batch = [
            make_description(f"w{i}", inst=2.0 + i, dram=3.0 * i) for i in range(4)
        ]
        plain = RackScheduler(rack).schedule(batch)
        store = PredictionStore(tmp_path / "preds")
        puts = []
        put_joint = store.put_joint
        store.put_joint = lambda *args: puts.append(args) or put_joint(*args)
        stored_per_pass = []
        for _ in range(2):
            puts.clear()
            stored = RackScheduler(rack, store=store).schedule(batch)
            stored_per_pass.append(len(puts))
            assert stored.predicted_times == plain.predicted_times
            for a in plain.assignments:
                b = stored.assignment_for(a.workload.name)
                assert (b.machine_name, b.placement) == (a.machine_name, a.placement)
        first, second = stored_per_pass
        assert first > 0 and second == 0, stored_per_pass

    def test_overflow_detected(self, rack):
        """More workloads than hardware threads cannot all fit."""
        scheduler = RackScheduler(rack)
        batch = [make_description(f"w{i}") for i in range(33)]
        with pytest.raises(ReproError, match="does not fit"):
            scheduler.schedule(batch)

    def test_summary_renders(self, rack):
        schedule = RackScheduler(rack).schedule([make_description("a")])
        text = schedule.summary()
        assert "node-0" in text and "makespan" in text


class TestSchedulerInternals:
    def test_refinement_can_grow_into_leftover_space(self, rack):
        """After the fair-share pass, refinement lets a workload expand
        if space remains; total predicted times never get worse."""
        scheduler = RackScheduler(rack)
        wide = make_description("wide", p=0.999)
        unrefined = scheduler.schedule([wide], refinement_rounds=0)
        refined = scheduler.schedule([wide], refinement_rounds=1)
        assert (
            refined.predicted_makespan_s
            <= unrefined.predicted_makespan_s * (1 + 1e-9)
        )

    def test_repredict_after_removal_updates_residents(self, rack):
        from repro.rack.occupancy import FleetOccupancy

        scheduler = RackScheduler(rack)
        a = make_description("ra", inst=2.0, dram=20.0)
        b = make_description("rb", inst=2.0, dram=20.0)
        fleet = FleetOccupancy(rack)
        predicted_times = {}
        scheduler.admit_batch(fleet, predicted_times, [a, b])
        before = dict(predicted_times)
        # Remove one workload: its machine's residents must be
        # re-predicted (less contention -> not slower).
        scheduler._replace(fleet, predicted_times, a)
        assert predicted_times["rb"] <= before["rb"] * 1.05


class TestValidation:
    def test_schedule_predictions_track_measured_times(self, rack, testbox_gen):
        """End to end: profile real specs, schedule, co-run, compare."""
        specs = {
            "rack-mem": WorkloadSpec(
                name="rack-mem", work_ginstr=60.0, cpi=0.9, l1_bpi=8.0,
                dram_bpi=4.0, working_set_mib=32.0, parallel_fraction=0.99,
            ),
            "rack-cpu": WorkloadSpec(
                name="rack-cpu", work_ginstr=120.0, cpi=0.3, l1_bpi=3.0,
                working_set_mib=0.5, parallel_fraction=0.99,
            ),
        }
        descriptions = [testbox_gen.generate(s) for s in specs.values()]
        schedule = RackScheduler(rack).schedule(descriptions)
        validation = validate_schedule(schedule, specs, noise=NoiseModel(sigma=0.01))
        for name in specs:
            assert validation.error_percent(name) < 40.0
        assert validation.makespan_error_percent < 40.0

    def test_missing_spec_rejected(self, rack):
        schedule = RackScheduler(rack).schedule([make_description("ghost")])
        with pytest.raises(ReproError, match="no ground-truth spec"):
            validate_schedule(schedule, specs={})
