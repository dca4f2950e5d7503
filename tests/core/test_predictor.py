"""Behavioural tests for the performance predictor."""

import pytest

from repro.core.description import DemandVector, WorkloadDescription
from repro.core.placement import Placement, from_shapes
from repro.core.predictor import PandiaPredictor
from repro.errors import PredictionError


@pytest.fixture
def predictor(fig3_description):
    return PandiaPredictor(fig3_description)


def make_workload(**overrides):
    base = dict(
        name="w",
        machine_name="FIG3",
        t1=100.0,
        demands=DemandVector(inst_rate=5.0, dram_bw=10.0),
        parallel_fraction=0.95,
        inter_socket_overhead=0.0,
        load_balance=1.0,
        burstiness=0.0,
    )
    base.update(overrides)
    return WorkloadDescription(**base)


class TestSingleThread:
    def test_uncontended_single_thread_runs_at_t1(self, predictor, fig3_description):
        wd = make_workload()
        pl = Placement(fig3_description.topology, (0,))
        pred = predictor.predict(wd, pl)
        assert pred.speedup == pytest.approx(1.0)
        assert pred.predicted_time_s == pytest.approx(wd.t1)
        assert pred.slowdowns == (1.0,)

    def test_utilisation_is_one_for_perfect_run(self, predictor, fig3_description):
        wd = make_workload(parallel_fraction=1.0)
        pred = predictor.predict(wd, Placement(fig3_description.topology, (0,)))
        assert pred.utilisations == (pytest.approx(1.0),)


class TestScalingBehaviour:
    def test_uncontended_scaling_follows_amdahl(self, predictor, fig3_description):
        wd = make_workload(parallel_fraction=0.9, demands=DemandVector(inst_rate=2.0, dram_bw=4.0))
        topo = fig3_description.topology
        pred = predictor.predict(wd, Placement(topo, (0, 1)))
        assert pred.speedup == pytest.approx(pred.amdahl, rel=1e-3)

    def test_core_contention_halves_shared_threads(self, predictor, fig3_description):
        # Two threads of 7 instr demand on one 10-capacity core.
        wd = make_workload(
            parallel_fraction=1.0, demands=DemandVector(inst_rate=7.0, dram_bw=1.0)
        )
        topo = fig3_description.topology
        pred = predictor.predict(wd, Placement(topo, (0, 4)))  # SMT pair on core 0
        assert pred.slowdowns[0] == pytest.approx(1.4, rel=1e-3)  # 14/10

    def test_more_contention_never_speeds_up(self, predictor, fig3_description):
        wd = make_workload(parallel_fraction=1.0, demands=DemandVector(inst_rate=2.0, dram_bw=80.0))
        topo = fig3_description.topology
        t2 = predictor.predict(wd, Placement(topo, (0, 1))).predicted_time_s
        t1 = predictor.predict(wd, Placement(topo, (0,))).predicted_time_s
        # DRAM saturates at 1.6x oversubscription: speedup only 1.25.
        assert t2 == pytest.approx(t1 / 1.25, rel=1e-3)


class TestBurstiness:
    def test_burstiness_applies_only_to_shared_cores(self, predictor, fig3_description):
        wd = make_workload(burstiness=0.5, parallel_fraction=1.0)
        topo = fig3_description.topology
        shared = predictor.predict(wd, Placement(topo, (0, 4)))
        separate = predictor.predict(wd, Placement(topo, (0, 1)))
        assert max(shared.slowdowns) > max(separate.slowdowns)

    def test_zero_burstiness_is_neutral(self, fig3_description):
        wd_b0 = make_workload(burstiness=0.0, parallel_fraction=1.0,
                              demands=DemandVector(inst_rate=4.0, dram_bw=1.0))
        pred = PandiaPredictor(fig3_description).predict(
            wd_b0, Placement(fig3_description.topology, (0, 4))
        )
        # 2 x 4 = 8 < 10 capacity: no contention, no burstiness.
        assert pred.slowdowns == (pytest.approx(1.0), pytest.approx(1.0))


class TestCommunication:
    def test_cross_socket_penalty_applies(self, predictor, fig3_description):
        wd = make_workload(inter_socket_overhead=0.05, parallel_fraction=1.0,
                           demands=DemandVector(inst_rate=2.0, dram_bw=2.0))
        topo = fig3_description.topology
        same = predictor.predict(wd, Placement(topo, (0, 1)))
        split = predictor.predict(wd, Placement(topo, (0, 2)))
        assert split.predicted_time_s > same.predicted_time_s

    def test_more_remote_peers_cost_more(self, predictor, fig3_description):
        wd = make_workload(inter_socket_overhead=0.05, parallel_fraction=1.0,
                           demands=DemandVector(inst_rate=2.0, dram_bw=2.0))
        topo = fig3_description.topology
        one_remote = predictor.predict(wd, Placement(topo, (0, 1, 2)))
        two_remote = predictor.predict(wd, Placement(topo, (0, 2, 3)))
        # thread 0 faces two remote peers in the second placement
        assert two_remote.slowdowns[0] > one_remote.slowdowns[0]


class TestLoadBalancePenalty:
    def test_lockstep_drags_everyone_to_the_slowest(self, predictor, fig3_description):
        wd = make_workload(
            load_balance=0.0, parallel_fraction=1.0, burstiness=0.0,
            demands=DemandVector(inst_rate=7.0, dram_bw=1.0),
        )
        topo = fig3_description.topology
        # U, V share core 0 (slowdown 1.4); W alone on core 1.
        pred = predictor.predict(wd, Placement(topo, (0, 4, 1)))
        assert pred.slowdowns[2] == pytest.approx(max(pred.slowdowns), rel=1e-6)

    def test_work_stealing_leaves_fast_threads_fast(self, predictor, fig3_description):
        wd = make_workload(
            load_balance=1.0, parallel_fraction=1.0, burstiness=0.0,
            demands=DemandVector(inst_rate=7.0, dram_bw=1.0),
        )
        topo = fig3_description.topology
        pred = predictor.predict(wd, Placement(topo, (0, 4, 1)))
        assert pred.slowdowns[2] < max(pred.slowdowns)


class TestIterationMechanics:
    def test_slowdowns_bounded_by_first_iteration(self, predictor, example_workload, fig3_description):
        pred = predictor.predict(
            example_workload, Placement(fig3_description.topology, (0, 4, 2)),
            keep_trace=True,
        )
        cap = max(pred.trace[0].overall_slowdown)
        for it in pred.trace:
            assert max(it.overall_slowdown) <= cap + 1e-9
            assert min(it.overall_slowdown) >= 1.0 - 1e-9

    def test_trace_disabled_by_default(self, predictor, example_workload, fig3_description):
        pred = predictor.predict(
            example_workload, Placement(fig3_description.topology, (0, 4, 2))
        )
        assert pred.trace == []

    def test_zero_iterations_rejected(self, fig3_description):
        with pytest.raises(PredictionError):
            PandiaPredictor(fig3_description, max_iterations=0)

    def test_zero_iterations_error_names_the_machine(self, fig3_description):
        with pytest.raises(PredictionError, match="FIG3"):
            PandiaPredictor(fig3_description, max_iterations=0)

    def test_prediction_is_deterministic(self, predictor, example_workload, fig3_description):
        pl = Placement(fig3_description.topology, (0, 4, 2))
        a = predictor.predict(example_workload, pl)
        b = predictor.predict(example_workload, pl)
        assert a.speedup == b.speedup
        assert a.slowdowns == b.slowdowns


class TestCacheLevels:
    """Predictions on a machine description with a cache hierarchy."""

    def test_cache_link_contention(self, testbox_md):
        wd = WorkloadDescription(
            name="cachey",
            machine_name="TESTBOX",
            t1=50.0,
            demands=DemandVector(
                inst_rate=2.0,
                cache_bw={"L3": testbox_md.cache_link_bw["L3"] * 0.8},
                dram_bw=0.5,
            ),
            parallel_fraction=1.0,
        )
        topo = testbox_md.topology
        predictor = PandiaPredictor(testbox_md)
        shared = predictor.predict(wd, from_shapes(topo, [(0, 1), (0, 0)]))
        split = predictor.predict(wd, from_shapes(topo, [(2, 0), (0, 0)]))
        # Two threads on one core oversubscribe its L3 link 1.6x.
        assert max(shared.slowdowns) > max(split.slowdowns)

    def test_llc_aggregate_contention(self, testbox_md):
        per_core = testbox_md.cache_agg_bw["L3"] / 4  # socket has 4 cores
        wd = WorkloadDescription(
            name="aggy",
            machine_name="TESTBOX",
            t1=50.0,
            demands=DemandVector(
                inst_rate=1.0, cache_bw={"L3": per_core * 1.5}, dram_bw=0.0
            ),
            parallel_fraction=1.0,
        )
        topo = testbox_md.topology
        predictor = PandiaPredictor(testbox_md)
        one_socket = predictor.predict(wd, from_shapes(topo, [(4, 0), (0, 0)]))
        two_socket = predictor.predict(wd, from_shapes(topo, [(2, 0), (2, 0)]))
        assert one_socket.predicted_time_s > two_socket.predicted_time_s
