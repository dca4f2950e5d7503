"""The kernel's spans cover the whole call.

A kernel call builds its population, runs the fixed point and packages
the results; its span (``predictor.predict``, ``predictor.predict_batch``,
``coscheduling.predict`` or ``coscheduling.predict_batch``) must start
before the population set-up and end after the packaging, so a traced
run charges none of that work to the caller.
"""

import time

import pytest

from repro import obs
from repro.core import coscheduling
from repro.core.coscheduling import CoSchedulePredictor, CoScheduledWorkload
from repro.core.description import DemandVector, WorkloadDescription
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor, _Population
from repro.errors import PlacementError

WORKLOAD = WorkloadDescription(
    name="w",
    machine_name="TESTBOX",
    t1=20.0,
    demands=DemandVector(inst_rate=4.0, cache_bw={"L1": 20.0}, dram_bw=6.0),
    parallel_fraction=0.98,
    load_balance=0.8,
)


@pytest.fixture
def phases(monkeypatch):
    """Host times at which population set-ups start and packagings end."""
    marks = {"setup": [], "packaged": []}
    init = _Population.__init__

    def timed_init(self, predictor, rows):
        marks["setup"].append(time.perf_counter_ns())
        init(self, predictor, rows)

    def timed(package):
        def wrapper(*args):
            out = package(*args)
            marks["packaged"].append(time.perf_counter_ns())
            return out

        return wrapper

    monkeypatch.setattr(_Population, "__init__", timed_init)
    monkeypatch.setattr(
        PandiaPredictor, "_predictions", timed(PandiaPredictor._predictions)
    )
    monkeypatch.setattr(coscheduling, "_joint", timed(coscheduling._joint))
    return marks


def _calls(testbox_md):
    topo = testbox_md.topology
    one, two = Placement(topo, (0, 1)), Placement(topo, (2, 3, 4))
    predictor = PandiaPredictor(testbox_md)
    joint = CoSchedulePredictor(testbox_md)
    jobs = [CoScheduledWorkload(WORKLOAD, one), CoScheduledWorkload(WORKLOAD, two)]
    return {
        "predictor.predict": lambda: predictor.predict(WORKLOAD, one, keep_trace=True),
        "predictor.predict_batch": lambda: predictor.predict_batch(
            WORKLOAD, [one, two]
        ),
        "coscheduling.predict": lambda: joint.predict(jobs),
        "coscheduling.predict_batch": lambda: joint.predict_batch([jobs, jobs[:1]]),
    }


@pytest.mark.parametrize(
    "name",
    [
        "predictor.predict",
        "predictor.predict_batch",
        "coscheduling.predict",
        "coscheduling.predict_batch",
    ],
)
def test_span_covers_setup_and_packaging(testbox_md, phases, name):
    call = _calls(testbox_md)[name]
    obs.enable()
    call()
    (span,) = [s for s in obs.tracer().spans() if s.name == name]
    (setup,), (packaged,) = phases["setup"], phases["packaged"]
    assert span.start_ns <= setup
    assert span.end_ns >= packaged
    assert span.attrs["machine"] == testbox_md.machine_name
    assert {"workload", "population", "jobs", "threads",
            "iterations_max", "converged_rows", "convergence"} <= set(span.attrs)


def test_span_attributes_describe_the_population(testbox_md):
    obs.enable()
    _calls(testbox_md)["coscheduling.predict_batch"]()
    (span,) = obs.tracer().spans()[-1:]
    assert span.name == "coscheduling.predict_batch"
    assert span.attrs["workload"] == "w+w"
    assert span.attrs["population"] == 2
    assert span.attrs["jobs"] == 3
    assert span.attrs["threads"] == 5


def test_failed_setup_closes_its_span(testbox_md):
    topo = testbox_md.topology
    clash = [
        CoScheduledWorkload(WORKLOAD, Placement(topo, (0, 1))),
        CoScheduledWorkload(WORKLOAD, Placement(topo, (1, 2))),
    ]
    obs.enable()
    with obs.span("caller") as caller:
        with pytest.raises(PlacementError):
            CoSchedulePredictor(testbox_md).predict(clash)
        failed = obs.tracer().spans()[-1]
        with obs.span("probe") as probe:
            pass
    assert failed.parent_id == probe.parent_id == caller.span_id
    names = [s.name for s in obs.tracer().spans()]
    assert names == ["coscheduling.predict", "probe", "caller"]
