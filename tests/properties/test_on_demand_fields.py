"""Kernel results built on demand equal the eager packaging, bit for bit.

The kernel returns columns; a kernel-built :class:`Prediction` or
:class:`CoSchedulePrediction` builds its per-thread tuples and resource
dictionaries on first read, the dictionaries by running its row alone
through ``_Population.resource_dicts``.  Row independence makes that
exact: here every field of every result equals the eager oracle of
``tests/reference_packaging.py`` under ``==``, with the same types and
key order, over the populations of ``test_joint_kernel.py`` — one-job
rows and 2-4-job rows, alone and mixed.
"""

from hypothesis import given, settings, strategies as st

from repro.core.coscheduling import CoSchedulePredictor
from repro.core.predictor import PandiaPredictor

from tests.properties.test_joint_kernel import MD, co_schedules
from tests.reference_packaging import assert_same_result, eager_joint, eager_oracle


@settings(max_examples=60, deadline=None)
@given(
    population=st.lists(co_schedules(min_jobs=1, max_jobs=4), min_size=1, max_size=6),
    max_iterations=st.sampled_from([500, 2]),
)
def test_joint_results_equal_eager_packaging(population, max_iterations):
    predictor = CoSchedulePredictor(MD, max_iterations=max_iterations)
    with eager_oracle() as calls:
        lazy = predictor.predict_batch(population)
    (rows,) = calls
    assert len(lazy) == len(rows) == len(population)
    for got, row in zip(lazy, rows):
        assert_same_result(got, eager_joint(row))


@settings(max_examples=40, deadline=None)
@given(jobs=st.lists(co_schedules(min_jobs=1, max_jobs=1), min_size=1, max_size=6))
def test_batch_predictions_equal_eager_packaging(jobs):
    workload = jobs[0][0].description
    placements = [job.placement for (job,) in jobs]
    with eager_oracle() as calls:
        lazy = PandiaPredictor(MD).predict_batch(workload, placements)
    (rows,) = calls
    assert len(lazy) == len(rows) == len(placements)
    for got, (want,) in zip(lazy, rows):
        assert_same_result(got, want)


@settings(max_examples=30, deadline=None)
@given(jobs=co_schedules(min_jobs=1, max_jobs=1), keep_trace=st.booleans())
def test_scalar_prediction_equals_eager_packaging(jobs, keep_trace):
    (job,) = jobs
    with eager_oracle() as calls:
        lazy = PandiaPredictor(MD).predict(job.description, job.placement, keep_trace)
    (((want,),),) = calls
    assert_same_result(lazy, want)
    assert lazy.trace is want.trace


@settings(max_examples=30, deadline=None)
@given(jobs=co_schedules(min_jobs=1, max_jobs=4), reads=st.permutations(range(3)))
def test_read_order_does_not_matter(jobs, reads):
    """Fields read in any order, before or after ``==``, give the same
    values; the row's dictionaries are shared by all its reads."""
    predictor = CoSchedulePredictor(MD)
    with eager_oracle() as calls:
        lazy = predictor.predict(jobs)
    want = eager_joint(calls[0][0])
    readers = [
        lambda p: p.resource_capacities,
        lambda p: [o.slowdowns for o in p.outcomes],
        lambda p: p.resource_loads,
    ]
    for i in reads:
        assert readers[i](lazy) == readers[i](want)
    assert_same_result(lazy, want)
