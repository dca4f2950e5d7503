"""The batched prediction kernel against the golden oracle.

``predict_batch`` stacks a whole placement population into padded
arrays and runs the fixed point as masked NumPy operations; the plain
Python oracle in ``tests/reference_kernel.py`` is the golden reference
it must match to 1e-12.  These tests drive the kernel over arbitrary
mixed-thread-count populations (hypothesis), the non-convergence path,
degenerate inputs, the demand-template cache, and the zero-capacity
guard.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.description import DemandVector, WorkloadDescription
from repro.core.machine_desc import MachineDescription
from repro.core.placement import enumerate_canonical
from repro.core.predictor import PandiaPredictor, Prediction
from repro.errors import PredictionError
from repro.hardware.topology import MachineTopology

from tests.reference_kernel import assert_matches_reference, reference_predict

TOPO = MachineTopology(2, 2, 2)
ALL_PLACEMENTS = enumerate_canonical(TOPO)


def make_md():
    return MachineDescription(
        machine_name="batch-prop",
        topology=TOPO,
        core_rate=10.0,
        core_rate_smt=12.0,
        cache_link_bw={"L1": 40.0},
        dram_bw_per_node=100.0,
        interconnect_bw=50.0,
    )


workloads = st.builds(
    lambda inst, l1, dram, p, os_, l, b: WorkloadDescription(
        name="batch-prop",
        machine_name="batch-prop",
        t1=100.0,
        demands=DemandVector(inst_rate=inst, cache_bw={"L1": l1}, dram_bw=dram),
        parallel_fraction=p,
        inter_socket_overhead=os_,
        load_balance=l,
        burstiness=b,
    ),
    inst=st.floats(0.5, 10.0),
    l1=st.floats(0.0, 50.0),
    dram=st.floats(0.0, 120.0),
    p=st.floats(0.5, 1.0),
    os_=st.floats(0.0, 0.2),
    l=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
)

#: A population: any non-empty multiset of canonical placements, so
#: thread counts are mixed and duplicates exercise identical rows.
populations = st.lists(
    st.integers(min_value=0, max_value=len(ALL_PLACEMENTS) - 1),
    min_size=1,
    max_size=12,
)


def reference(predictor, workload, placement):
    return reference_predict(
        predictor.md,
        workload,
        placement,
        predictor.max_iterations,
        predictor.tolerance,
    )


class TestBatchEqualsScalar:
    @settings(max_examples=60, deadline=None)
    @given(workload=workloads, indices=populations)
    def test_arbitrary_population_matches_scalar(self, workload, indices):
        predictor = PandiaPredictor(make_md())
        placements = [ALL_PLACEMENTS[i] for i in indices]
        batched = predictor.predict_batch(workload, placements)
        assert len(batched) == len(placements)
        for placement, ours in zip(placements, batched):
            ref = reference(predictor, workload, placement)
            assert_matches_reference(ours, ref, str(placement.hw_thread_ids))

    @settings(max_examples=30, deadline=None)
    @given(workload=workloads, index=st.integers(0, len(ALL_PLACEMENTS) - 1))
    def test_singleton_population(self, workload, index):
        predictor = PandiaPredictor(make_md())
        placement = ALL_PLACEMENTS[index]
        (ours,) = predictor.predict_batch(workload, [placement])
        ref = reference(predictor, workload, placement)
        assert_matches_reference(ours, ref, str(placement.hw_thread_ids))

    def test_empty_population(self):
        predictor = PandiaPredictor(make_md())
        assert predictor.predict_batch(_fixed_workload(), []) == []

    def test_population_larger_than_chunk(self):
        """Populations above BATCH_CHUNK split into multiple kernels."""
        from repro.core.predictor import BATCH_CHUNK

        predictor = PandiaPredictor(make_md())
        workload = _fixed_workload()
        placements = [
            ALL_PLACEMENTS[i % len(ALL_PLACEMENTS)] for i in range(BATCH_CHUNK + 3)
        ]
        batched = predictor.predict_batch(workload, placements)
        assert len(batched) == len(placements)
        # Duplicate placements must produce identical predictions.
        ref = reference(predictor, workload, placements[0])
        assert_matches_reference(batched[0], ref, "chunk head")
        assert_matches_reference(
            batched[len(ALL_PLACEMENTS)], ref, "same placement, later chunk"
        )


def _fixed_workload(**overrides):
    fields = dict(
        name="batch-fixed",
        machine_name="batch-prop",
        t1=100.0,
        demands=DemandVector(
            inst_rate=8.0, cache_bw={"L1": 30.0}, dram_bw=90.0
        ),
        parallel_fraction=0.95,
        inter_socket_overhead=0.05,
        load_balance=0.5,
        burstiness=0.5,
    )
    fields.update(overrides)
    return WorkloadDescription(**fields)


class TestNonConvergence:
    """A fixed point pinned to exhaust ``max_iterations``."""

    @pytest.mark.parametrize("max_iterations", [1, 3, 7])
    def test_pinned_iterations_agree(self, max_iterations):
        # tolerance=0.0 means |delta| < 0 never holds: the loop must
        # run to max_iterations and report non-convergence.
        predictor = PandiaPredictor(
            make_md(), max_iterations=max_iterations, tolerance=0.0
        )
        workload = _fixed_workload()
        placements = [p for p in ALL_PLACEMENTS if p.n_threads >= 2][:6]
        batched = predictor.predict_batch(workload, placements)
        for placement, ours in zip(placements, batched):
            ref = reference(predictor, workload, placement)
            assert ref.converged is False
            assert ref.iterations == max_iterations
            assert ours.converged is False
            assert ours.iterations == max_iterations
            assert_matches_reference(ours, ref, str(placement.hw_thread_ids))

    def test_mixed_convergence_population(self):
        """Rows that converge drop out while stragglers iterate on."""
        predictor = PandiaPredictor(make_md())
        # A single thread converges in few iterations; contended
        # many-thread placements take more — the active-set path.
        easy = _fixed_workload(demands=DemandVector(inst_rate=1.0))
        placements = sorted(ALL_PLACEMENTS, key=lambda p: p.n_threads)
        batched = predictor.predict_batch(easy, placements)
        iteration_counts = {b.iterations for b in batched}
        assert len(iteration_counts) > 1, "population should converge unevenly"
        for placement, ours in zip(placements, batched):
            ref = reference(predictor, easy, placement)
            assert_matches_reference(ours, ref, str(placement.hw_thread_ids))


class TestDemandTemplateCache:
    def test_templates_reused_across_calls(self):
        predictor = PandiaPredictor(make_md())
        workload = _fixed_workload()
        predictor.predict(workload, ALL_PLACEMENTS[0])
        assert len(predictor._templates) == 1
        predictor.predict(workload, ALL_PLACEMENTS[1])
        predictor.predict_batch(workload, ALL_PLACEMENTS[:4])
        assert len(predictor._templates) == 1, "same demands => one template"
        other = _fixed_workload(
            demands=DemandVector(inst_rate=2.0, cache_bw={"L1": 1.0}, dram_bw=1.0)
        )
        predictor.predict(other, ALL_PLACEMENTS[0])
        assert len(predictor._templates) == 2, "new demands => new template"


class TestZeroCapacityGuard:
    def _prediction(self, loads, capacities):
        return Prediction(
            workload_name="w",
            machine_name="m",
            placement=ALL_PLACEMENTS[0],
            amdahl=1.0,
            speedup=1.0,
            predicted_time_s=1.0,
            slowdowns=(1.0,),
            utilisations=(1.0,),
            iterations=1,
            converged=True,
            resource_loads=loads,
            resource_capacities=capacities,
        )

    def test_zero_capacity_raises_named_error(self):
        key = ("dram", 0)
        prediction = self._prediction({key: 5.0}, {key: 0.0})
        with pytest.raises(PredictionError, match=r"\('dram', 0\).*zero capacity"):
            prediction.resource_utilisation()
        with pytest.raises(PredictionError, match="zero capacity"):
            prediction.bottleneck()

    def test_missing_capacity_raises_named_error(self):
        key = ("core", 3)
        prediction = self._prediction({key: 5.0}, {})
        with pytest.raises(PredictionError, match="zero capacity"):
            prediction.resource_utilisation()

    def test_nonzero_capacities_pass(self):
        key = ("core", 0)
        prediction = self._prediction({key: 5.0}, {key: 10.0})
        assert prediction.resource_utilisation() == {key: 0.5}
        assert prediction.bottleneck() == key
