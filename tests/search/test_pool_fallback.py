"""A pool that cannot start falls back to serial, and the fallback is counted.

``SearchEngine`` evaluates serially when its executor cannot be created
(no semaphores, no fork).  The answer must not change, and
``stats.pool_fallbacks`` records that it happened -- once per engine,
since a broken engine never retries the pool.
"""

import concurrent.futures

import pytest

from repro.core.machine_desc import generate_machine_description
from repro.core.placement import sample_canonical
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.search import SearchEngine
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog


@pytest.fixture(scope="module")
def setup():
    spec = machines.get("TESTBOX")
    md = generate_machine_description(spec, noise=NO_NOISE)
    workload = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE).generate(
        catalog.get("MD")
    )
    placements = sample_canonical(spec.topology, 20, seed=3)
    return PandiaPredictor(md), workload, placements


def _no_pool(*args, **kwargs):
    raise OSError("no semaphores in this sandbox")


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_pool_failure_runs_serially_and_is_counted(monkeypatch, setup, executor):
    predictor, workload, placements = setup
    serial = SearchEngine(predictor)
    expected = serial.evaluate(workload, placements)
    assert serial.stats.pool_fallbacks == 0

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_pool)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    with SearchEngine(
        predictor, max_workers=2, executor=executor, chunk_size=4
    ) as engine:
        assert engine.evaluate(workload, placements) == expected
        # A second batch stays serial without trying the pool again.
        engine.cache.clear()
        assert engine.evaluate(workload, placements) == expected
        assert engine.stats.pool_fallbacks == 1
        assert ("pool fallbacks", "1") in engine.stats.report()
