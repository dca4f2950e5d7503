"""Tests for the pluggable placement policies."""

import pytest

from repro.errors import ReproError
from repro.online.policies import (
    FirstFitPolicy,
    LoadBalancePolicy,
    PlacementPolicy,
    PredictedSlowdownPolicy,
    get_policy,
    policy_names,
)
from repro.rack.occupancy import FleetOccupancy
from repro.rack.scheduler import RackScheduler

from tests.online.conftest import make_description


@pytest.fixture
def bound(rack):
    """A fresh (core, fleet) pair plus a binder for any policy."""
    core = RackScheduler(rack)

    def bind(policy):
        policy.bind(core)
        return policy, FleetOccupancy(rack)

    return bind


class TestRegistry:
    def test_names(self):
        assert policy_names() == ["first-fit", "load-balance", "predicted-slowdown"]

    def test_get_policy_builds_instances(self):
        assert isinstance(get_policy("first-fit"), FirstFitPolicy)
        assert isinstance(get_policy("load-balance"), LoadBalancePolicy)
        assert isinstance(get_policy("predicted-slowdown"), PredictedSlowdownPolicy)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ReproError, match="first-fit"):
            get_policy("random")

    def test_unbound_policy_raises(self, rack):
        with pytest.raises(ReproError, match="not bound"):
            FirstFitPolicy().admit(FleetOccupancy(rack), [make_description("w")])


class TestFirstFit:
    def test_takes_all_free_contexts_of_first_machine(self, bound):
        policy, fleet = bound(FirstFitPolicy())
        placed, remaining = policy.admit(fleet, [make_description("w")])
        assert not remaining
        (assignment,) = placed
        assert assignment.machine_name == "node-0"
        assert assignment.placement.n_threads == 16

    def test_head_of_line_blocking(self, bound):
        policy, fleet = bound(FirstFitPolicy())
        batch = [make_description(f"w{i}") for i in range(3)]
        placed, remaining = policy.admit(fleet, batch)
        # Two jobs fill both machines; the third blocks behind them.
        assert [a.workload.name for a in placed] == ["w0", "w1"]
        assert [w.name for w in remaining] == ["w2"]
        assert {a.machine_name for a in placed} == {"node-0", "node-1"}


class TestLoadBalance:
    def test_prefers_emptiest_machine_at_half_width(self, bound):
        policy, fleet = bound(LoadBalancePolicy())
        placed, _ = policy.admit(fleet, [make_description("a")])
        assert placed[0].placement.n_threads == 8
        placed2, _ = policy.admit(fleet, [make_description("b")])
        # node-0 has 8 free, node-1 has 16: the emptier machine wins.
        assert placed2[0].machine_name == "node-1"


class TestPredictedSlowdown:
    def test_memory_hogs_do_not_share_a_machine(self, bound):
        policy, fleet = bound(PredictedSlowdownPolicy())
        hogs = [
            make_description("hog-a", inst=2.0, dram=25.0),
            make_description("hog-b", inst=2.0, dram=25.0),
        ]
        placed, remaining = policy.admit(fleet, hogs)
        assert not remaining
        machines = {a.machine_name for a in placed}
        assert machines == {"node-0", "node-1"}

    def test_no_head_of_line_blocking(self, bound):
        """A batch too wide for the fleet skips the overflow, not the tail."""
        policy, fleet = bound(PredictedSlowdownPolicy())
        batch = [make_description(f"w{i}") for i in range(33)]
        placed, remaining = policy.admit(fleet, batch)
        assert len(placed) == 32 and len(remaining) == 1

    def test_custom_policy_subclass(self, bound):
        """The interface is open: a subclass slots into the same harness."""

        class Narrow(PlacementPolicy):
            name = "narrow"

            def admit(self, fleet, workloads):
                from repro.rack.scheduler import free_context_placement

                core = self._core()
                placed = []
                for workload in workloads:
                    machine = core.rack.machines[0]
                    placement = free_context_placement(
                        machine, fleet.occupied(machine.name), 1
                    )
                    if placement is None:
                        return placed, list(workloads[len(placed):])
                    from repro.rack.model import Assignment

                    fleet.place(workload, machine.name, placement)
                    placed.append(Assignment(workload, machine.name, placement))
                return placed, []

        policy, fleet = bound(Narrow())
        placed, _ = policy.admit(fleet, [make_description("x")])
        assert placed[0].placement.n_threads == 1
