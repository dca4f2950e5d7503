"""Tests for placement ranking, selection and right-sizing."""

import pytest

from repro.core.description import DemandVector, WorkloadDescription
from repro.core.optimizer import (
    best_placement,
    peak_thread_count,
    rank_placements,
    rank_placements_serial,
    rightsize,
)
from repro.core.placement import enumerate_canonical
from repro.core.predictor import PandiaPredictor
from repro.errors import PredictionError


@pytest.fixture(scope="module")
def fig3_predictor(request):
    return PandiaPredictor(request.getfixturevalue("fig3_description"))


@pytest.fixture(scope="module")
def all_placements(request):
    topo = request.getfixturevalue("fig3_description").topology
    return enumerate_canonical(topo)


def make_workload(**overrides):
    base = dict(
        name="w",
        machine_name="FIG3",
        t1=100.0,
        demands=DemandVector(inst_rate=5.0, dram_bw=10.0),
        parallel_fraction=0.95,
    )
    base.update(overrides)
    return WorkloadDescription(**base)


class TestRanking:
    def test_ranked_fastest_first(self, fig3_predictor, all_placements):
        ranked = rank_placements(fig3_predictor, make_workload(), all_placements)
        times = [r.predicted_time_s for r in ranked]
        assert times == sorted(times)
        assert len(ranked) == len(all_placements)

    def test_empty_placements_rejected(self, fig3_predictor):
        with pytest.raises(PredictionError):
            rank_placements(fig3_predictor, make_workload(), [])

    def test_empty_placements_error_names_workload_and_machine(
        self, fig3_predictor
    ):
        wd = make_workload(name="lonely")
        with pytest.raises(PredictionError, match=r"'lonely'.*FIG3"):
            rank_placements(fig3_predictor, wd, [])
        with pytest.raises(PredictionError, match=r"'lonely'.*FIG3"):
            rank_placements_serial(fig3_predictor, wd, [])


class TestBestPlacement:
    def test_scalable_workload_wants_the_whole_machine(
        self, fig3_predictor, all_placements
    ):
        wd = make_workload(
            parallel_fraction=1.0, demands=DemandVector(inst_rate=5.0, dram_bw=1.0)
        )
        placement, prediction = best_placement(fig3_predictor, wd, all_placements)
        assert placement.n_threads == 8  # 2 sockets x 2 cores x 2 threads
        assert prediction.speedup > 4

    def test_interconnect_bound_workload_stays_on_one_socket(
        self, fig3_predictor, all_placements
    ):
        # The worked-example workload: DRAM demand 80 spread over sockets
        # saturates the link; one socket avoids it entirely.
        wd = make_workload(
            parallel_fraction=0.9,
            demands=DemandVector(inst_rate=7.0, dram_bw=80.0),
            inter_socket_overhead=0.1,
            load_balance=0.5,
            burstiness=0.5,
        )
        placement, _ = best_placement(fig3_predictor, wd, all_placements)
        assert len(placement.active_sockets()) == 1

    def test_serial_workload_wants_one_thread(self, fig3_predictor, all_placements):
        wd = make_workload(parallel_fraction=0.0)
        assert peak_thread_count(fig3_predictor, wd, all_placements) == 1


class TestRightsize:
    def test_rightsizing_prefers_fewer_resources(self, fig3_predictor, all_placements):
        # Near-serial workload: extra threads buy almost nothing.
        wd = make_workload(parallel_fraction=0.2)
        placement, prediction = rightsize(
            fig3_predictor, wd, all_placements, tolerance=0.10
        )
        best, best_pred = best_placement(fig3_predictor, wd, all_placements)
        assert placement.n_threads <= best.n_threads
        assert prediction.predicted_time_s <= best_pred.predicted_time_s * 1.10 + 1e-9

    def test_zero_tolerance_returns_smallest_of_the_best(
        self, fig3_predictor, all_placements
    ):
        wd = make_workload(parallel_fraction=0.0)
        placement, _ = rightsize(fig3_predictor, wd, all_placements, tolerance=0.0)
        assert placement.n_threads == 1

    def test_negative_tolerance_rejected(self, fig3_predictor, all_placements):
        with pytest.raises(PredictionError):
            rightsize(fig3_predictor, make_workload(), all_placements, tolerance=-0.1)

    def test_negative_tolerance_error_names_workload_machine_and_value(
        self, fig3_predictor, all_placements
    ):
        with pytest.raises(PredictionError, match=r"'w' on FIG3.*got -0\.1"):
            rightsize(fig3_predictor, make_workload(), all_placements, tolerance=-0.1)


class TiedPredictor:
    """Stub predictor: every placement gets exactly the same time."""

    def predict(self, workload, placement):
        from repro.core.predictor import Prediction

        return Prediction(
            workload_name=workload.name,
            machine_name="TIED",
            placement=placement,
            amdahl=1.0,
            speedup=1.0,
            predicted_time_s=5.0,
            slowdowns=(1.0,),
            utilisations=(1.0,),
            iterations=1,
            converged=True,
        )


class TestRightsizeTieBreaking:
    """With deliberately tied predictions, the footprint order decides:
    fewest threads first, then fewest occupied cores, then fewest
    active sockets."""

    @pytest.fixture(scope="class")
    def topo(self):
        from repro.hardware.topology import MachineTopology

        return MachineTopology(n_sockets=2, cores_per_socket=4, threads_per_core=2)

    def _shapes(self, topo, shapes):
        from repro.core.placement import from_shapes

        return from_shapes(topo, shapes)

    def test_fewest_threads_wins(self, topo):
        eight = self._shapes(topo, [(0, 2), (0, 2)])  # 8 threads
        four = self._shapes(topo, [(0, 2), (0, 0)])  # 4 threads
        one = self._shapes(topo, [(1, 0), (0, 0)])  # 1 thread
        winner, _ = rightsize(TiedPredictor(), make_workload(), [eight, four, one])
        assert winner == one

    def test_fewest_cores_breaks_thread_ties(self, topo):
        on_three_cores = self._shapes(topo, [(2, 1), (0, 0)])  # 4 threads, 3 cores
        on_two_cores = self._shapes(topo, [(0, 1), (0, 1)])  # 4 threads, 2 cores
        winner, _ = rightsize(
            TiedPredictor(), make_workload(), [on_three_cores, on_two_cores]
        )
        assert winner == on_two_cores

    def test_fewest_sockets_breaks_core_ties(self, topo):
        two_sockets = self._shapes(topo, [(0, 1), (0, 1)])  # 4t, 2 cores, 2 sockets
        one_socket = self._shapes(topo, [(0, 2), (0, 0)])  # 4t, 2 cores, 1 socket
        winner, _ = rightsize(
            TiedPredictor(), make_workload(), [two_sockets, one_socket]
        )
        assert winner == one_socket

    def test_full_ordering(self, topo):
        placements = [
            self._shapes(topo, [(0, 2), (0, 2)]),  # (8, 4, 2)
            self._shapes(topo, [(2, 1), (0, 0)]),  # (4, 3, 1)
            self._shapes(topo, [(0, 1), (0, 1)]),  # (4, 2, 2)
            self._shapes(topo, [(0, 2), (0, 0)]),  # (4, 2, 1)  <- winner
        ]
        winner, prediction = rightsize(TiedPredictor(), make_workload(), placements)
        assert winner == placements[-1]
        assert prediction.predicted_time_s == 5.0
