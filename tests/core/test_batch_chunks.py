"""Cell-bounded kernel chunks: independence and the memory bound.

``PandiaPredictor.predict_batch`` and ``CoSchedulePredictor.predict_batch``
cut a population, in its given order, into contiguous chunks whose row
count times widest row stays within ``BATCH_CELLS`` padded cells, and
run one kernel call per chunk.  Rows are independent bit for bit, so:

* over shuffled, mixed-width populations spanning three or more
  chunks, every batch result equals the one-row call on its row under
  ``==``, field by field;
* one 400-placement X5-2 batch peaks at no more than 3 MiB of traced
  allocations (8.4 MiB as one call).
"""

import gc
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import predictor as predictor_module
from repro.core.coscheduling import CoSchedulePredictor, CoScheduledWorkload
from repro.core.machine_desc import generate_machine_description
from repro.core.placement import Placement, sample_canonical
from repro.core.predictor import BATCH_CELLS, PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog

from tests.properties.test_joint_kernel import (
    MD,
    TOPO,
    _workload,
    co_schedules,
    params,
)
from tests.reference_packaging import assert_same_result

#: Traced allocation peak allowed for one 400-placement X5-2 batch.
PEAK_BUDGET = 3 * 2**20


@pytest.fixture(scope="module")
def x5_cg(x5):
    md = generate_machine_description(x5, noise=NO_NOISE)
    workload = WorkloadDescriptionGenerator(x5, md, noise=NO_NOISE).generate(
        catalog.get("CG")
    )
    return md, workload, sample_canonical(x5.topology, 400, seed=0)


def _width(row):
    return sum(p.n_threads for _, p in row)


def _kernel_calls(kernel):
    """Patches *kernel*'s ``_solve`` to record each call's rows."""
    calls = []
    solve = kernel._solve

    def recorded(rows, *args, **kwargs):
        calls.append(list(rows))
        return solve(rows, *args, **kwargs)

    return calls, mock.patch.object(kernel, "_solve", recorded)


def _assert_contiguous_chunks(calls, rows, budget):
    assert len(calls) >= 3
    assert [row for chunk in calls for row in chunk] == list(rows)
    for chunk in calls:
        assert len(chunk) == 1 or len(chunk) * max(map(_width, chunk)) <= budget


@st.composite
def placements(draw):
    """A placement on the joint-kernel machine with 1-12 threads."""
    order = draw(st.permutations(range(TOPO.n_hw_threads)))
    return Placement(TOPO, tuple(sorted(order[: draw(st.integers(1, 12))])))


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(placements(), min_size=30, max_size=45),
    parameters=params,
)
def test_batch_rows_equal_one_row_calls(rows, parameters):
    workload = _workload("chunked", *parameters)
    kernel = PandiaPredictor(MD)
    budget = max(12, sum(p.n_threads for p in rows) // 4)
    calls, patch = _kernel_calls(kernel)
    with mock.patch.object(predictor_module, "BATCH_CELLS", budget), patch:
        batch = kernel.predict_batch(workload, rows)
    _assert_contiguous_chunks(calls, [[(workload, p)] for p in rows], budget)
    for placement, got in zip(rows, batch):
        assert_same_result(got, kernel.predict(workload, placement))


@settings(max_examples=20, deadline=None)
@given(
    schedules=st.lists(co_schedules(min_jobs=1, max_jobs=3), min_size=30, max_size=45)
)
def test_joint_batch_rows_equal_one_row_calls(schedules):
    predictor = CoSchedulePredictor(MD)
    rows = [[(j.description, j.placement) for j in jobs] for jobs in schedules]
    budget = max(12, sum(map(_width, rows)) // 4)
    calls, patch = _kernel_calls(predictor._kernel)
    with mock.patch.object(predictor_module, "BATCH_CELLS", budget), patch:
        batch = predictor.predict_batch(schedules)
    _assert_contiguous_chunks(calls, rows, budget)
    for jobs, got in zip(schedules, batch):
        assert_same_result(got, predictor.predict(jobs))


def test_shuffled_x5_population_at_the_budget(x5_cg):
    """At the real budget: 400 X5-2 placements in shuffled order."""
    md, workload, sample = x5_cg
    rows = random.Random(5).sample(sample, len(sample))
    kernel = PandiaPredictor(md)
    calls, patch = _kernel_calls(kernel)
    with patch:
        batch = kernel.predict_batch(workload, rows)
    _assert_contiguous_chunks(calls, [[(workload, p)] for p in rows], BATCH_CELLS)
    for placement, got in zip(rows, batch):
        assert_same_result(got, kernel.predict(workload, placement))


def test_joint_rows_at_the_budget():
    """1,200 shuffled 1-3-job rows of 3-12 threads at the real budget."""
    rng = random.Random(3)
    pool = [
        _workload(f"w{i}", *row)
        for i, row in enumerate(
            [
                (4.0, 20.0, 5.0, 9.0, 0.8, 0.0, 0.95, 0.05, 0.6, 0.2),
                (2.0, 8.0, 2.0, 2.0, 0.5, 2.0, 0.9, 0.0, 1.0, 0.0),
                (6.0, 12.0, 9.0, 18.0, 0.3, 0.0, 0.99, 0.1, 0.3, 0.7),
            ]
        )
    ]
    schedules = []
    for _ in range(1200):
        tids = rng.sample(range(TOPO.n_hw_threads), rng.randint(3, 12))
        cuts = sorted(rng.sample(range(1, len(tids)), rng.randint(0, 2)))
        parts = [tids[a:b] for a, b in zip([0] + cuts, cuts + [len(tids)])]
        schedules.append(
            [
                CoScheduledWorkload(wd, Placement(TOPO, tuple(sorted(part))))
                for wd, part in zip(rng.sample(pool, len(parts)), parts)
            ]
        )
    predictor = CoSchedulePredictor(MD)
    calls, patch = _kernel_calls(predictor._kernel)
    with patch:
        batch = predictor.predict_batch(schedules)
    rows = [[(j.description, j.placement) for j in jobs] for jobs in schedules]
    _assert_contiguous_chunks(calls, rows, BATCH_CELLS)
    for jobs, got in zip(schedules, batch):
        assert_same_result(got, predictor.predict(jobs))


def test_x5_batch_peak_within_budget(x5_cg):
    md, workload, sample = x5_cg
    predictor = PandiaPredictor(md)
    predictor.predict_batch(workload, sample[:3])  # warm the caches
    gc.collect()
    tracemalloc.start()
    try:
        predictions = predictor.predict_batch(workload, sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(predictions) == 400
    assert peak <= PEAK_BUDGET, f"{peak / 2**20:.2f} MiB"
