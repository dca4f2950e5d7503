"""The joint fixed-point kernel against the golden oracle, and row
independence.

A co-schedule is one row of the kernel; ``tests/reference_kernel.py``
holds the plain-Python oracle it must match within 1e-12, with
identical iteration counts, convergence flags and resource key sets.
The kernel's row-independence contract is pinned here too: a row's
prediction is bit-identical whatever else shares its call — wider
rows, multi-job rows, one-job rows.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coscheduling import CoSchedulePredictor, CoScheduledWorkload
from repro.core.description import DemandVector, WorkloadDescription
from repro.core.machine_desc import MachineDescription
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor
from repro.errors import PredictionError
from repro.hardware.topology import MachineTopology

from tests.reference_kernel import (
    TOLERANCE,
    ReferenceCoSchedulePredictor,
    assert_same_resources,
)

#: Two sockets of three SMT-2 cores: twelve contexts, so 2-4 jobs can
#: share cores, sockets, DRAM nodes and the interconnect link.
TOPO = MachineTopology(2, 3, 2)
MD = MachineDescription(
    machine_name="joint-prop",
    topology=TOPO,
    core_rate=10.0,
    core_rate_smt=13.0,
    cache_link_bw={"L1": 40.0, "L3": 30.0},
    cache_agg_bw={"L3": 60.0},
    dram_bw_per_node=50.0,
    interconnect_bw=25.0,
    nic_bw=20.0,
)


def _workload(name, inst, l1, l3, dram, local, io, p, os_, l, b):
    return WorkloadDescription(
        name=name,
        machine_name="joint-prop",
        t1=50.0,
        demands=DemandVector(
            inst_rate=inst,
            cache_bw={"L1": l1, "L3": l3},
            dram_bw=dram,
            numa_local_fraction=local,
            io_bw=io,
        ),
        parallel_fraction=p,
        inter_socket_overhead=os_,
        load_balance=l,
        burstiness=b,
    )


#: Workload parameters.  ``numa_local_fraction`` stays below 1: at
#: exactly 1 the oracle counts zero-traffic remote nodes as touched
#: (see ``test_local_traffic_only_touches_its_own_node``).
params = st.tuples(
    st.floats(0.5, 9.0),  # inst_rate
    st.floats(0.0, 30.0),  # L1
    st.floats(0.0, 20.0),  # L3
    st.floats(0.0, 40.0),  # DRAM
    st.floats(0.0, 0.95),  # NUMA local fraction
    st.sampled_from([0.0, 0.0, 2.0, 9.0]),  # NIC
    st.floats(0.5, 1.0),  # parallel fraction
    st.floats(0.0, 0.2),  # inter-socket overhead
    st.floats(0.0, 1.0),  # load balance
    st.floats(0.0, 1.0),  # burstiness
)


@st.composite
def co_schedules(draw, min_jobs=2, max_jobs=4):
    """2-4 jobs on disjoint hardware threads, each with >= 1 thread."""
    n_jobs = draw(st.integers(min_jobs, max_jobs))
    order = draw(st.permutations(range(TOPO.n_hw_threads)))
    sizes = [draw(st.integers(1, 3)) for _ in range(n_jobs)]
    jobs, start = [], 0
    for i, size in enumerate(sizes):
        tids = tuple(sorted(order[start : start + size]))
        start += size
        wd = _workload(f"job{i}", *draw(params))
        jobs.append(CoScheduledWorkload(wd, Placement(TOPO, tids)))
    return jobs


def assert_matches_oracle(ours, ref, ctx):
    assert ours.iterations == ref.iterations, ctx
    assert ours.converged is ref.converged, ctx
    assert [o.workload_name for o in ours.outcomes] == [
        o.workload_name for o in ref.outcomes
    ], ctx
    for a, b in zip(ours.outcomes, ref.outcomes):
        assert abs(a.predicted_time_s - b.predicted_time_s) <= TOLERANCE, ctx
        assert abs(a.speedup - b.speedup) <= TOLERANCE, ctx
        assert abs(a.amdahl - b.amdahl) <= TOLERANCE, ctx
        assert len(a.slowdowns) == len(b.slowdowns), ctx
        for x, y in zip(a.slowdowns, b.slowdowns):
            assert abs(x - y) <= TOLERANCE, ctx
    assert_same_resources(ours.resource_loads, ours.resource_capacities, ref, ctx)


def fields(prediction):
    """Every numeric field of a joint prediction, for bit-identity."""
    return (
        [
            (o.workload_name, o.amdahl, o.speedup, o.predicted_time_s, o.slowdowns)
            for o in prediction.outcomes
        ],
        prediction.iterations,
        prediction.converged,
        sorted(prediction.resource_loads.items()),
        sorted(prediction.resource_capacities.items()),
    )


class TestJointKernelMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(jobs=co_schedules())
    def test_co_schedule_matches_oracle(self, jobs):
        ours = CoSchedulePredictor(MD).predict(jobs)
        ref = ReferenceCoSchedulePredictor(MD).predict(jobs)
        assert_matches_oracle(ours, ref, [j.placement.hw_thread_ids for j in jobs])

    @settings(max_examples=20, deadline=None)
    @given(jobs=co_schedules(), max_iterations=st.integers(1, 5))
    def test_pinned_iterations_match_oracle(self, jobs, max_iterations):
        """tolerance=0 never converges: both run to max_iterations."""
        ours = CoSchedulePredictor(MD, max_iterations, 0.0).predict(jobs)
        ref = ReferenceCoSchedulePredictor(MD, max_iterations, 0.0).predict(jobs)
        assert ours.converged is False and ours.iterations == max_iterations
        assert_matches_oracle(ours, ref, max_iterations)

    def test_local_traffic_only_touches_its_own_node(self):
        """With all traffic node-local, a thread is not slowed by a
        remote DRAM node it sends nothing to.  The oracle's rows list
        every node of the job's sockets, so it charges socket 0's thread
        for node 1's oversubscription; the kernel (like the paper's
        "resources it touches") does not."""
        local = _workload("local", 1.0, 0.0, 0.0, 30.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0)
        jobs = [CoScheduledWorkload(local, Placement(TOPO, (0, 3, 4, 5)))]
        ours = CoSchedulePredictor(MD).predict(jobs)
        ref = ReferenceCoSchedulePredictor(MD).predict(jobs)
        # Node 0 carries one thread (30 < 50); node 1 carries three
        # (90 > 50) and slows only the threads it serves.
        assert ours.outcomes[0].slowdowns[0] == pytest.approx(1.0)
        assert ref.outcomes[0].slowdowns[0] > 1.0
        assert ours.resource_loads.keys() == ref.resource_loads.keys()


class TestRowIndependence:
    """A row's prediction does not depend on the rest of its call."""

    @settings(max_examples=40, deadline=None)
    @given(
        target=co_schedules(min_jobs=1, max_jobs=4),
        others=st.lists(co_schedules(min_jobs=1, max_jobs=4), min_size=1, max_size=4),
        position=st.integers(0, 4),
    )
    def test_joint_row_alone_equals_row_in_population(self, target, others, position):
        predictor = CoSchedulePredictor(MD)
        alone = predictor.predict(target)
        population = list(others)
        position = min(position, len(population))
        population.insert(position, target)
        together = predictor.predict_batch(population)
        assert fields(together[position]) == fields(alone)
        for jobs, prediction in zip(population, together):
            assert fields(prediction) == fields(predictor.predict(jobs))

    @settings(max_examples=40, deadline=None)
    @given(
        solo=co_schedules(min_jobs=1, max_jobs=1),
        others=st.lists(co_schedules(min_jobs=2, max_jobs=4), min_size=1, max_size=3),
    )
    def test_solo_row_equals_solo_prediction_among_joint_rows(self, solo, others):
        """The one-job fold of ``predict`` and the multi-job class path
        agree bit for bit on a solo row."""
        (job,) = solo
        ref = PandiaPredictor(MD).predict(job.description, job.placement)
        joint = CoSchedulePredictor(MD).predict_batch(others + [solo])[-1]
        (outcome,) = joint.outcomes
        assert outcome.speedup == ref.speedup
        assert outcome.predicted_time_s == ref.predicted_time_s
        assert outcome.slowdowns == ref.slowdowns
        assert joint.iterations == ref.iterations
        assert joint.converged is ref.converged
        assert joint.resource_loads == ref.resource_loads
        assert joint.resource_capacities == ref.resource_capacities

    @settings(max_examples=30, deadline=None)
    @given(jobs=co_schedules(min_jobs=1, max_jobs=1), count=st.integers(2, 6))
    def test_solo_batch_rows_equal_predict(self, jobs, count):
        (job,) = jobs
        predictor = PandiaPredictor(MD)
        wider = Placement(TOPO, tuple(range(TOPO.n_hw_threads)))
        placements = [wider] * (count - 1) + [job.placement]
        batched = predictor.predict_batch(job.description, placements)[-1]
        alone = predictor.predict(job.description, job.placement)
        for name in ("speedup", "predicted_time_s", "slowdowns", "utilisations",
                     "iterations", "converged", "resource_loads",
                     "resource_capacities"):
            assert getattr(batched, name) == getattr(alone, name), name


class TestPredictBatch:
    def test_empty_population(self):
        assert CoSchedulePredictor(MD).predict_batch([]) == []

    def test_empty_schedule_names_the_machine(self):
        jobs = [
            CoScheduledWorkload(
                _workload("w", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0),
                Placement(TOPO, (0,)),
            )
        ]
        with pytest.raises(PredictionError, match="joint-prop"):
            CoSchedulePredictor(MD).predict_batch([jobs, []])


class TestTinyDemands:
    def test_denormal_dram_demand_still_uses_its_links(self):
        """A thread sends traffic over a link whenever its job's shares
        reach it, even when demand times share underflows to zero: the
        job spanning both sockets is slowed by the oversubscribed link
        like the oracle says."""
        hog = _workload("hog", 1.0, 0.0, 0.0, 17.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        tiny = _workload("tiny", 1.0, 0.0, 0.0, 5e-324, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        jobs = [
            CoScheduledWorkload(hog, Placement(TOPO, (0, 1, 3))),
            CoScheduledWorkload(tiny, Placement(TOPO, (5, 6))),
        ]
        ours = CoSchedulePredictor(MD).predict(jobs)
        ref = ReferenceCoSchedulePredictor(MD).predict(jobs)
        assert ours.outcome_for("tiny").slowdowns == pytest.approx((1.02, 1.02))
        assert_matches_oracle(ours, ref, "denormal DRAM demand")
