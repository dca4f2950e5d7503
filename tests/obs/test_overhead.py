"""Satellite guard: observability must be free when disabled.

Three complementary checks:

* a *deterministic* guard — the batch kernel consults ``obs.enabled()``
  once per chunk, never per iteration or per row, proving the
  per-iteration telemetry is hoisted behind one branch;
* a *correctness* guard — enabling tracing never changes predictions
  (bit-identical results, because telemetry only reads kernel state);
* a *wall-clock* guard — the disabled instrumented kernel runs within
  5% of a no-obs baseline (``enabled`` stubbed to a bare ``False``
  return) on an X2-4 population, best-of-N to shed scheduler noise.
"""

import time

import pytest

from repro import obs
from repro.core.machine_desc import generate_machine_description
from repro.core.placement import sample_canonical
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog


@pytest.fixture(scope="module")
def setup():
    spec = machines.get("X2-4")
    md = generate_machine_description(spec, noise=NO_NOISE)
    generator = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
    workload = generator.generate(catalog.get("MD"))
    placements = sample_canonical(spec.topology, 48, seed=11)
    return PandiaPredictor(md), workload, placements


def _fingerprint(predictions):
    """Every numeric field, exactly — for bit-identity comparison."""
    return [
        (
            p.speedup,
            p.predicted_time_s,
            p.slowdowns,
            p.utilisations,
            p.iterations,
            p.converged,
            tuple(sorted(p.resource_loads.items())),
        )
        for p in predictions
    ]


class TestDisabledPathIsHoisted:
    def test_batch_kernel_checks_enabled_once_per_chunk(self, setup, monkeypatch):
        predictor, workload, placements = setup
        calls = []
        monkeypatch.setattr(obs, "enabled", lambda: calls.append(1) is None and False)
        predictor.predict_batch(workload, placements)
        # One check per chunk (48 X2-4 placements of at most 80 threads
        # fit one BATCH_CELLS chunk):
        # anything growing with iterations or rows means the hoisting
        # regressed.
        assert len(calls) == 1

    def test_scalar_predict_checks_enabled_once(self, setup, monkeypatch):
        predictor, workload, placements = setup
        calls = []
        monkeypatch.setattr(obs, "enabled", lambda: calls.append(1) is None and False)
        predictor.predict(workload, placements[0], keep_trace=True)
        assert len(calls) == 1


class TestTracingNeverChangesResults:
    def test_batch_predictions_bit_identical(self, setup):
        predictor, workload, placements = setup
        baseline = _fingerprint(predictor.predict_batch(workload, placements))
        obs.enable()
        try:
            traced = _fingerprint(predictor.predict_batch(workload, placements))
        finally:
            obs.disable()
        assert traced == baseline

    def test_scalar_prediction_bit_identical(self, setup):
        predictor, workload, placements = setup
        baseline = predictor.predict(workload, placements[3], keep_trace=True)
        obs.enable()
        try:
            traced = predictor.predict(workload, placements[3], keep_trace=True)
        finally:
            obs.disable()
        assert traced.speedup == baseline.speedup
        assert traced.slowdowns == baseline.slowdowns
        assert traced.iterations == baseline.iterations
        assert [t.vectors for t in traced.trace] == [
            t.vectors for t in baseline.trace
        ]
        assert [t.max_residual for t in traced.trace] == [
            t.max_residual for t in baseline.trace
        ]


class TestDisabledOverheadBudget:
    def test_batch_throughput_within_5_percent_of_no_obs_baseline(
        self, setup, monkeypatch
    ):
        predictor, workload, placements = setup

        def best_of(n, fn):
            best = float("inf")
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        run = lambda: predictor.predict_batch(workload, placements)
        run()  # warm template/share caches out of the measurement

        obs.disable()
        disabled = best_of(5, run)
        with monkeypatch.context() as m:
            m.setattr(obs, "enabled", lambda: False)  # the no-obs stand-in
            baseline = best_of(5, run)
        # 5% relative budget plus 2ms absolute slack for timer noise on
        # very fast runs.
        assert disabled <= baseline * 1.05 + 2e-3, (
            f"disabled-obs batch path {disabled * 1e3:.1f} ms vs "
            f"no-obs baseline {baseline * 1e3:.1f} ms"
        )
