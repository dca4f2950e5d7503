"""The simulator's errors name the machine, and the job or thread.

One test per message in ``repro.sim`` (the engine, the demand model,
the event simulation, grouped workloads and the simulated OS) that used
to be a constant string.
"""

import pytest

from repro.errors import PlacementError, SimulationError
from repro.hardware import machines
from repro.hardware.topology import MachineTopology
from repro.sim.demand import DemandModel, JobSpecOnMachine, llc_spill_fraction
from repro.sim.engine import Job, SimOptions, simulate
from repro.sim.events import ScheduledJob, TimelineSimResult, simulate_timeline
from repro.sim.grouped import master_worker
from repro.sim.noise import NO_NOISE
from repro.sim.os_iface import SimulatedOS
from repro.sim.stressors import cpu_stressor
from repro.workloads.spec import WorkloadSpec

QUIET = SimOptions(noise=NO_NOISE)
SPEC = WorkloadSpec(name="probe-wl", work_ginstr=1.0, cpi=0.5, l1_bpi=1.0)


@pytest.fixture(scope="module")
def testbox():
    return machines.get("TESTBOX")


def test_simulate_without_jobs_names_the_machine(testbox):
    with pytest.raises(SimulationError, match="TESTBOX"):
        simulate(testbox, [], QUIET)


def test_foreign_job_names_the_job_and_machine(testbox):
    result = simulate(testbox, [Job(SPEC, (0,))], QUIET)
    stranger = Job(SPEC.with_(name="stranger"), (3, 5))
    with pytest.raises(SimulationError) as info:
        result.result_for(stranger)
    message = str(info.value)
    assert "stranger" in message and "[3, 5]" in message and "TESTBOX" in message


def test_non_positive_limit_names_job_thread_and_machine(testbox, monkeypatch):
    monkeypatch.setattr(DemandModel, "_solo_limit", lambda *args: 0.0)
    with pytest.raises(SimulationError) as info:
        DemandModel(testbox, [JobSpecOnMachine(SPEC, (0, 4))])
    message = str(info.value)
    assert "job 0 (probe-wl) thread 0 on hw thread 0" in message
    assert "TESTBOX" in message


def test_non_positive_llc_capacity_names_the_machine():
    with pytest.raises(SimulationError, match="LLC capacity of X5-2"):
        llc_spill_fraction(1.0, 0.0, adaptive=True, machine="X5-2")


def test_negative_cache_traffic_names_workload_level_and_machine(testbox):
    model = DemandModel(testbox, [JobSpecOnMachine(SPEC, (0,))])
    with pytest.raises(SimulationError) as info:
        model._solo_limit(SPEC, 2.0, {"L1": 1.0, "L2": -0.5}, {})
    message = str(info.value)
    assert "probe-wl" in message and "L2" in message and "TESTBOX" in message


def test_negative_arrival_names_the_job():
    with pytest.raises(SimulationError) as info:
        ScheduledJob(SPEC, (0,), arrival_s=-2.5)
    message = str(info.value)
    assert "probe-wl" in message and "-2.5" in message


def test_background_scheduled_job_names_the_job():
    with pytest.raises(SimulationError, match="stress-cpu is a background job"):
        ScheduledJob(cpu_stressor(), (0,))


def test_empty_timeline_makespan_names_the_machine():
    with pytest.raises(SimulationError, match="on TESTBOX ran no jobs"):
        TimelineSimResult(machine_name="TESTBOX").makespan_s


def test_timeline_without_jobs_names_the_machine(testbox):
    with pytest.raises(SimulationError, match="on TESTBOX needs at least one job"):
        simulate_timeline(testbox, [], QUIET)


def test_master_fraction_names_the_workload_and_value():
    with pytest.raises(SimulationError) as info:
        master_worker("hash-join", SPEC, master_fraction=1.5)
    message = str(info.value)
    assert "hash-join" in message and "1.5" in message


def test_odd_split_names_the_machine_and_count(testbox):
    with pytest.raises(PlacementError) as info:
        SimulatedOS(testbox).split_across_sockets(3)
    message = str(info.value)
    assert "TESTBOX" in message and "got 3" in message


def test_one_socket_split_names_the_machine_and_count():
    single = machines.get("FIG3").with_topology(MachineTopology(1, 2, 2), "single")
    with pytest.raises(PlacementError) as info:
        SimulatedOS(single).split_across_sockets(2)
    message = str(info.value)
    assert "single has 1" in message and "of 2 threads" in message
