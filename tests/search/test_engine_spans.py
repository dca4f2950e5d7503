"""The engine's span tree under tracing.

A traced ``evaluate`` opens ``search.evaluate`` with its cache probe
(``search.cache``) and its one predictor call (``search.predict``)
nested inside.
"""

import pytest

from repro import obs
from repro.core.machine_desc import generate_machine_description
from repro.core.placement import sample_canonical
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.search import SearchEngine
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.reset()
    yield
    obs.reset()
    obs.disable()


@pytest.fixture(scope="module")
def setup():
    spec = machines.get("TESTBOX")
    md = generate_machine_description(spec, noise=NO_NOISE)
    generator = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
    workload = generator.generate(catalog.get("MD"))
    placements = sample_canonical(spec.topology, 20, seed=3)
    return PandiaPredictor(md), workload, placements


def test_serial_engine_traces_without_chunk_spans(setup):
    predictor, workload, placements = setup
    obs.enable()
    with SearchEngine(predictor) as engine:
        engine.evaluate(workload, placements)
    names = {s.name for s in obs.tracer().spans()}
    assert {"search.evaluate", "search.cache", "search.predict"} <= names
