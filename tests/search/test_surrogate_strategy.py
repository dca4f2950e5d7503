"""Surrogate-guided search: regret guard, fallback, telemetry.

The defining guarantee: the surrogate only *orders* candidates — every
returned placement went through the exact predictor, and the search
result must match the exact-exhaustive best over the same space (zero
regret within float tolerance) on every catalog machine.  Machines the
model has never seen (or cannot score confidently) must fall back to
exact search, not degrade silently.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.machine_desc import generate_machine_description
from repro.core.placement import enumerate_canonical, sample_canonical
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.search import SearchEngine, SurrogateStrategy
from repro.search.stats import SearchStats
from repro.sim.noise import NO_NOISE
from repro.surrogate import (
    DEFAULT_TRAIN_MACHINES,
    DEFAULT_TRAIN_WORKLOADS,
    train_surrogate,
)
from repro.workloads import catalog

MACHINES = machines.names()
WORKLOADS = ("MD", "CG", "EP")
#: Machines too big to search exhaustively here get a deterministic
#: (sample, seed); the regret guard is space-relative either way.  The
#: seeds pin today's measured zero-regret behaviour as a regression
#: guard — the top-k containing the exact best is a property of the
#: trained model on these spaces, not a structural invariant of *every*
#: sub-sample (a sample can strip the near-tied optima the full space
#: has early in surrogate order; full-space regret is capped at 1% by
#: the ``X5-2-full`` case below).
SPACE_SAMPLE = {"X5-2": (600, 1), "X2-4": (600, 1)}
RELATIVE_TOL = 1e-9
#: Regret-guard cases beyond one space per catalog machine, by case id:
#: (machine, sample or ``None`` for the full canonical space, seed,
#: regret cap).  Exact search over either space dwarfs the surrogate's
#: fixed ~224 verifications, so the surrogate must exact-verify at most
#: a tenth of it: the host-independent form of a >= 10x speedup over
#: exact search.  The full 18,144-placement X5-2 space has near-tied
#: optima (measured regret 1.7e-9 on CG), so its cap is 1%.
LARGE_SPACES = {
    "X2-4-6000": ("X2-4", 6000, 1, RELATIVE_TOL),
    "X5-2-full": ("X5-2", None, 0, 0.01),
}

_CACHE = {}


def _setup(machine_name):
    """(spec, md, predictor, {workload: description}) — cached."""
    if machine_name not in _CACHE:
        spec = machines.get(machine_name)
        md = generate_machine_description(spec, noise=NO_NOISE)
        gen = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
        descriptions = {w: gen.generate(catalog.get(w)) for w in WORKLOADS}
        _CACHE[machine_name] = (spec, md, PandiaPredictor(md), descriptions)
    return _CACHE[machine_name]


@pytest.fixture(scope="module")
def model():
    """One ridge surrogate trained from the cached description setups."""
    descriptions = {}
    for name in DEFAULT_TRAIN_MACHINES:
        _, md, _, wds = _setup(name)
        descriptions[name] = (md, wds)
    return train_surrogate(
        DEFAULT_TRAIN_MACHINES,
        DEFAULT_TRAIN_WORKLOADS,
        kind="ridge",
        sample=300,
        seed=0,
        descriptions=descriptions,
    )


@functools.lru_cache(maxsize=None)
def _case(case):
    """(machine name, search space, regret cap) of one regret-guard case
    (a catalog machine name or a ``LARGE_SPACES`` id), built once."""
    sample, seed = SPACE_SAMPLE.get(case, (None, 0))
    machine_name, sample, seed, cap = LARGE_SPACES.get(
        case, (case, sample, seed, RELATIVE_TOL)
    )
    topology = machines.get(machine_name).topology
    if sample is None:
        space = enumerate_canonical(topology)
    else:
        space = sample_canonical(topology, sample, seed=seed)
    return machine_name, tuple(space), cap


def _space(spec):
    return _case(spec.name)[1]


@pytest.mark.parametrize("case", MACHINES + list(LARGE_SPACES))
@pytest.mark.parametrize("workload_name", WORKLOADS)
class TestRegretGuard:
    def test_surrogate_matches_exact_best(self, model, case, workload_name):
        machine_name, space, cap = _case(case)
        spec, md, predictor, descriptions = _setup(machine_name)
        workload = descriptions[workload_name]

        exact_best = min(
            p.predicted_time_s
            for p in predictor.predict_batch(workload, space)
        )
        strategy = SurrogateStrategy(model=model, space=space)
        with SearchEngine(predictor) as engine:
            result = engine.search(workload, strategy)
            stats = engine.stats.snapshot()

        regret = result.best_prediction.predicted_time_s / exact_best - 1.0
        assert abs(regret) <= cap, (
            f"{case}/{workload_name}: regret {regret:.3%} "
            f"(fallback: {strategy.fallback_reason})"
        )
        if machine_name in DEFAULT_TRAIN_MACHINES:
            # Trained machines must take the surrogate path for real —
            # otherwise this guard only ever tests the fallback.
            assert strategy.fallback_reason is None
            assert stats.surrogate_verified < stats.surrogate_scored
        if case in LARGE_SPACES:
            assert stats.surrogate_verified * 10 <= stats.surrogate_scored, (
                f"{case}/{workload_name}: verified "
                f"{stats.surrogate_verified} of {stats.surrogate_scored}"
            )


class TestModel:
    def test_default_model_fits_its_training_data(self, model):
        # Measured 0.97239; the floor is 0.92.
        assert model.train_r2 >= 0.92


class TestFallback:
    def test_no_model_falls_back_to_exact(self):
        spec, md, predictor, descriptions = _setup("TESTBOX")
        space = _space(spec)
        strategy = SurrogateStrategy(space=space)
        with SearchEngine(predictor) as engine:
            result = engine.search(descriptions["MD"], strategy)
            stats = engine.stats.snapshot()
        assert strategy.fallback_reason == "no surrogate model"
        assert stats.surrogate_fallbacks == 1
        assert stats.surrogate_scored == 0
        exact_best = min(
            p.predicted_time_s
            for p in predictor.predict_batch(descriptions["MD"], space)
        )
        assert result.best_prediction.predicted_time_s == pytest.approx(
            exact_best, rel=RELATIVE_TOL
        )

    def test_unseen_toy_machine_triggers_low_confidence(self, model):
        """FIG3 is far outside the training envelope: the confidence
        gate must refuse to rank and fall back to exact search."""
        spec, md, predictor, descriptions = _setup("FIG3")
        strategy = SurrogateStrategy(model=model, space=_space(spec))
        with SearchEngine(predictor) as engine:
            engine.search(descriptions["MD"], strategy)
            assert engine.stats.surrogate_fallbacks == 1
        assert strategy.fallback_reason is not None
        assert "confidence" in strategy.fallback_reason


class TestTelemetry:
    def test_counters_and_summary(self, model):
        spec, md, predictor, descriptions = _setup("X3-2")
        space = _space(spec)
        strategy = SurrogateStrategy(model=model, space=space)
        with SearchEngine(predictor) as engine:
            engine.search(descriptions["MD"], strategy)
            stats = engine.stats
            assert stats.surrogate_scored == len(space)
            assert strategy.initial_k <= stats.surrogate_verified < len(space)
            assert stats.surrogate_fallbacks == 0
            assert stats.surrogate_verify_rate == pytest.approx(
                stats.surrogate_verified / stats.surrogate_scored
            )
            text = stats.summary()
        assert "surrogate:" in text
        assert "nan" not in text

    def test_zero_evaluation_stats_render_clean(self):
        """A fresh (or all-fallback) stats object must render finite
        values, not NaN, for every derived rate."""
        stats = SearchStats()
        assert stats.mean_iterations == 0.0
        assert stats.surrogate_verify_rate == 0.0
        text = stats.summary()
        assert "nan" not in text.lower()
        rows = stats.report()
        assert all(isinstance(label, str) and isinstance(value, str)
                   for label, value in rows)
        assert any("surrogate" in label for label, _ in rows)

    def test_spans_and_histogram_emitted(self, model):
        from repro import obs

        spec, md, predictor, descriptions = _setup("X4-2")
        obs.enable()
        try:
            obs.tracer().clear()
            obs.metrics().clear()
            strategy = SurrogateStrategy(model=model, space=_space(spec))
            with SearchEngine(predictor) as engine:
                engine.search(descriptions["EP"], strategy)
            names = {span.name for span in obs.tracer().spans()}
            assert "search.surrogate" in names
            assert "search.surrogate.score_us" in obs.metrics().data()["histograms"]
        finally:
            obs.disable()
