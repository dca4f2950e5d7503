"""Kernel results built on demand: laziness, memory and the contract.

The callers that decide placements read only times, so a kernel-built
prediction stores its scalars and builds ``slowdowns``,
``utilisations`` and the resource dictionaries on first read
(``tests/properties/test_on_demand_fields.py`` pins the values).  These tests pin what that buys and what it must not break:

* a default optimize session and an online replay build no resource
  dictionary, and reading one result's bottleneck builds exactly one;
* 400 X5-2 predictions retain at most 4 KiB each (16.8 KiB when every
  field was built eagerly);
* a kernel-built prediction pickles self-contained, no larger than an
  eagerly built one, and no lazy field keeps the kernel's population
  alive;
* predictions built from explicit values behave as before.
"""

import copy
import gc
import pickle
import tracemalloc
import weakref

import pytest

from repro.core import optimizer
from repro.core.coscheduling import (
    CoSchedulePrediction,
    CoSchedulePredictor,
    CoScheduledWorkload,
    WorkloadOutcome,
)
from repro.core.description import DemandVector, WorkloadDescription
from repro.core.machine_desc import generate_machine_description
from repro.core.placement import Placement, sample_canonical
from repro.core.predictor import PandiaPredictor, Prediction, _Population
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.online import OnlineScheduler, poisson_trace
from repro.online.policies import LoadBalancePolicy, PredictedSlowdownPolicy
from repro.rack.model import Rack, RackMachine
from repro.search import ExhaustiveStrategy, SearchEngine
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog

from tests.reference_packaging import assert_same_result, eager_joint, eager_oracle

#: Retained bytes allowed per X5-2 prediction.
RETAINED_BUDGET = 4 * 1024


@pytest.fixture(scope="module")
def x5_setup(x5):
    md = generate_machine_description(x5, noise=NO_NOISE)
    workload = WorkloadDescriptionGenerator(x5, md, noise=NO_NOISE).generate(
        catalog.get("CG")
    )
    return md, workload, sample_canonical(x5.topology, 400, seed=0)


@pytest.fixture
def dict_builds(monkeypatch):
    """Counts calls of ``_Population.resource_dicts``, the one builder
    of per-resource dictionaries."""
    calls = []
    build = _Population.resource_dicts

    def counted(self, futil):
        calls.append(self.pop)
        return build(self, futil)

    monkeypatch.setattr(_Population, "resource_dicts", counted)
    return calls


def _testbox_job(name, inst, dram, t1=20.0):
    return WorkloadDescription(
        name=name,
        machine_name="TESTBOX",
        t1=t1,
        demands=DemandVector(inst_rate=inst, cache_bw={"L1": 20.0}, dram_bw=dram),
        parallel_fraction=0.98,
        load_balance=0.8,
    )


class TestHotPathsBuildNoDictionaries:
    def test_optimize_session_then_one_bottleneck(self, x5_setup, dict_builds):
        md, workload, _ = x5_setup
        predictor = PandiaPredictor(md)
        with SearchEngine(predictor) as engine:
            result = engine.search(workload, ExhaustiveStrategy(sample=400, seed=0))
            placements = [r.placement for r in result.ranked]
            _, small = optimizer.rightsize(
                predictor, workload, placements, tolerance=0.05, engine=engine
            )
        assert dict_builds == []
        small.bottleneck()
        assert dict_builds == [1]
        small.resource_utilisation()
        result.best.prediction.slowdowns
        assert dict_builds == [1]

    @pytest.mark.parametrize("policy", [PredictedSlowdownPolicy, LoadBalancePolicy])
    def test_online_replay(self, testbox, testbox_md, dict_builds, policy):
        rack = Rack(
            machines=(
                RackMachine("node-0", testbox, testbox_md),
                RackMachine("node-1", testbox, testbox_md),
            )
        )
        pool = [
            _testbox_job("mem", inst=2.0, dram=18.0),
            _testbox_job("cpu", inst=6.0, dram=0.5, t1=8.0),
            _testbox_job("mid", inst=4.0, dram=2.0),
        ]
        trace = poisson_trace(pool, n_jobs=24, rate_per_s=0.5, seed=3)
        result = OnlineScheduler(rack, policy=policy()).run(trace)
        assert len(result.completed) == 24
        assert dict_builds == []

    def test_joint_prediction_builds_its_row_once(self, testbox_md, dict_builds):
        jobs = [
            CoScheduledWorkload(_testbox_job("a", 4.0, 9.0), Placement(
                testbox_md.topology, (0, 1))),
            CoScheduledWorkload(_testbox_job("b", 2.0, 3.0), Placement(
                testbox_md.topology, (2, 3, 4))),
        ]
        joint = CoSchedulePredictor(testbox_md).predict_batch([jobs, jobs[:1]])[0]
        [o.slowdowns for o in joint.outcomes]
        assert dict_builds == []
        joint.resource_loads, joint.resource_capacities
        assert dict_builds == [1]


class TestMemory:
    def test_predictions_retain_at_most_4_kib_each(self, x5_setup):
        md, workload, placements = x5_setup
        predictor = PandiaPredictor(md)
        predictor.predict_batch(workload, placements[:3])  # warm the caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            predictions = predictor.predict_batch(workload, placements)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert len(predictions) == 400
        assert retained / len(predictions) <= RETAINED_BUDGET, (
            f"{retained / len(predictions) / 1024:.2f} KiB per prediction"
        )

    def test_no_field_keeps_the_population_alive(self, x5_setup, monkeypatch):
        md, workload, placements = x5_setup
        populations = []
        init = _Population.__init__

        def tracked(self, predictor, rows):
            init(self, predictor, rows)
            populations.append(weakref.ref(self))

        monkeypatch.setattr(_Population, "__init__", tracked)
        predictions = PandiaPredictor(md).predict_batch(workload, placements[:50])
        predictions[7].bottleneck()
        gc.collect()
        assert len(populations) == 2  # the kernel call, then one row's dictionaries
        assert all(ref() is None for ref in populations)
        assert predictions[7].resource_loads


class TestPickling:
    def test_kernel_prediction_pickles_self_contained(self, x5_setup):
        md, workload, placements = x5_setup
        with eager_oracle() as calls:
            predictions = PandiaPredictor(md).predict_batch(workload, placements)
        # The batch runs in several kernel chunks, in order.
        eager = [row[0] for chunk in calls for row in chunk]
        for i in (0, 123, 399):
            data = pickle.dumps(predictions[i])
            assert b"PandiaPredictor" not in data
            assert b"numpy" not in data
            assert len(data) <= len(pickle.dumps(eager[i]))
            restored = pickle.loads(data)
            assert "_source" not in vars(restored)
            assert_same_result(restored, eager[i])
            assert_same_result(predictions[i], eager[i])

    def test_joint_prediction_pickles_self_contained(self, testbox_md):
        jobs = [
            CoScheduledWorkload(_testbox_job("a", 4.0, 9.0), Placement(
                testbox_md.topology, (0, 5))),
            CoScheduledWorkload(_testbox_job("b", 2.0, 3.0), Placement(
                testbox_md.topology, (1, 2))),
        ]
        with eager_oracle() as calls:
            joint = CoSchedulePredictor(testbox_md).predict(jobs)
        want = eager_joint(calls[0][0])
        data = pickle.dumps(joint)
        assert b"numpy" not in data
        assert len(data) <= len(pickle.dumps(want))
        assert_same_result(pickle.loads(data), want)
        assert_same_result(copy.deepcopy(joint), want)


class TestExplicitValues:
    def test_prediction_from_values(self, testbox_md):
        placement = Placement(testbox_md.topology, (0, 1))
        p = Prediction(
            workload_name="w",
            machine_name="TESTBOX",
            placement=placement,
            amdahl=1.9,
            speedup=1.5,
            predicted_time_s=2.0,
            slowdowns=(1.2, 1.3),
            utilisations=(0.8, 0.7),
            iterations=3,
            converged=True,
        )
        assert p.resource_loads == {} and p.bottleneck() is None
        assert pickle.loads(pickle.dumps(p)) == p
        assert vars(pickle.loads(pickle.dumps(p))) == vars(p)
        assert not hasattr(p, "no_such_field")

    def test_outcome_and_joint_from_values(self):
        outcome = WorkloadOutcome("w", 2.0, 1.5, 4.0, (1.1, 1.2))
        joint = CoSchedulePrediction([outcome], 4, True, {("nic", 0): 1.0},
                                     {("nic", 0): 2.0})
        assert joint.outcome_for("w").slowdowns == (1.1, 1.2)
        assert pickle.loads(pickle.dumps(joint)) == joint
        assert not hasattr(joint, "no_such_field")

    def test_kernel_result_reprs_like_eager(self, testbox_md):
        wd = _testbox_job("w", 4.0, 9.0)
        placement = Placement(testbox_md.topology, (0, 1, 2))
        with eager_oracle() as calls:
            lazy = PandiaPredictor(testbox_md).predict(wd, placement)
        assert repr(lazy) == repr(calls[0][0][0])
        with pytest.raises(AttributeError, match="no_such_field"):
            lazy.no_such_field
