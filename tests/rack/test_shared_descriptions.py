"""One predictor per distinct machine description in a rack.

Machines of one type share one description object, and a prediction
reads only the description, so the scheduler predicts a workload's solo
reference once per distinct description, not once per machine.  The
schedule must not notice: a rack whose machines share one description
schedules exactly like a rack whose machines carry separate, equal
descriptions.
"""

import copy

import pytest

from repro.core.predictor import PandiaPredictor
from repro.rack.model import Rack, RackMachine
from repro.rack.scheduler import RackScheduler
from repro.workloads import catalog

WORKLOADS = ("MD", "CG", "EP", "IS")


@pytest.fixture
def solo_calls(monkeypatch):
    """Every ``PandiaPredictor.predict`` call, as ``(predictor, workload)``.

    The rack's candidate ladders and re-times go through
    ``CoSchedulePredictor``, so these are the solo estimates.
    """
    calls = []
    predict = PandiaPredictor.predict

    def counted(self, workload, placement, *args, **kwargs):
        calls.append((id(self), workload.name))
        return predict(self, workload, placement, *args, **kwargs)

    monkeypatch.setattr(PandiaPredictor, "predict", counted)
    return calls


@pytest.fixture(scope="module")
def workloads(testbox_gen):
    return [testbox_gen.generate(catalog.get(name)) for name in WORKLOADS]


def _rack(testbox, first, second):
    return Rack(
        machines=(
            RackMachine("node-0", testbox, first),
            RackMachine("node-1", testbox, second),
        )
    )


def _decisions(schedule):
    return (
        sorted(
            (a.workload.name, a.machine_name, a.placement.hw_thread_ids)
            for a in schedule.assignments
        ),
        schedule.predicted_times,
    )


def test_shared_description_predicts_each_workload_once(
    testbox, testbox_md, workloads, solo_calls
):
    RackScheduler(_rack(testbox, testbox_md, testbox_md)).schedule(workloads)
    assert sorted(name for _, name in solo_calls) == sorted(WORKLOADS)
    assert len({predictor for predictor, _ in solo_calls}) == 1


def test_separate_equal_descriptions_predict_per_description(
    testbox, testbox_md, workloads, solo_calls
):
    twin = copy.deepcopy(testbox_md)
    assert twin == testbox_md and twin is not testbox_md
    RackScheduler(_rack(testbox, testbox_md, twin)).schedule(workloads)
    assert sorted(name for _, name in solo_calls) == sorted(WORKLOADS * 2)
    assert len({predictor for predictor, _ in solo_calls}) == 2


def test_sharing_a_description_does_not_change_the_schedule(
    testbox, testbox_md, workloads
):
    shared = RackScheduler(_rack(testbox, testbox_md, testbox_md))
    separate = RackScheduler(_rack(testbox, testbox_md, copy.deepcopy(testbox_md)))
    assert _decisions(shared.schedule(workloads)) == _decisions(
        separate.schedule(workloads)
    )
    for workload in workloads:
        assert shared.solo_estimate(workload) == separate.solo_estimate(workload)
