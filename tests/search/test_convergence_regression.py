"""Convergence regression guard: warm starts must keep saving iterations.

Replays one greedy hill-climb session (X2-4 × Art, the contended
workload where settling is slow) twice — cold, and warm-started with
each round's incumbent seeding its neighbours — and compares
iteration counts taken from the per-prediction
:class:`~repro.obs.records.ConvergenceRecord` trace rows.

The committed guard: the warm session spends at most
``WARM_BUDGET_RATIO`` of the cold session's total fixed-point
iterations, and its median per-prediction count is strictly lower.
If a predictor change erodes the warm path's advantage (e.g. breaks
the Aitken settle or the seed mapping), this fails.

The same guard runs through the search engine: greedy hill-climb
searches over X2-4 × (MD, Art) with ``SearchEngine(warm_start=True)``
must find the cold searches' best placements while spending at most
``ENGINE_WARM_RATIO`` of their fixed-point iterations.

Runs at fixed-point tolerance 1e-13 — the regime the warm machinery
targets (at loose tolerances cold converges in a handful of
iterations and there is nothing to save; see docs/model.md).
"""

from __future__ import annotations

import statistics

import pytest

from repro.core.machine_desc import generate_machine_description
from repro.core.predictor import (
    WARM_MIN_SEED_ITERATIONS,
    PandiaPredictor,
)
from repro.core.sweep import sweep_placements
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.obs.records import ConvergenceRecord
from repro.search import SearchEngine
from repro.search.strategies import GreedyHillClimbStrategy, neighbour_placements
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog

#: Warm session total-iteration budget, as a fraction of the cold total.
#: Measured headroom: the session below runs at ~0.35; 0.75 guards the
#: ISSUE's >= 30% saving with a wide margin against numerical drift.
WARM_BUDGET_RATIO = 0.75
#: Engine warm-search budget, as a fraction of the cold searches'
#: total.  Measured: 231 warm vs 664 cold iterations (0.35); 0.70 is
#: the >= 30% saving warm starts are kept for.
ENGINE_WARM_RATIO = 0.70

MAX_ROUNDS = 12
TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def x2_4():
    spec = machines.get("X2-4")
    md = generate_machine_description(spec, noise=NO_NOISE)
    gen = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
    return spec, md, gen


@pytest.fixture(scope="module")
def session_env(x2_4):
    spec, md, gen = x2_4
    workload = gen.generate(catalog.get("Art"))
    predictor = PandiaPredictor(md, tolerance=1e-13)
    return spec, predictor, workload


def _hill_climb(spec, predictor, workload, warm):
    """One greedy session; returns (per-prediction iteration counts, best)."""
    sweeps = sweep_placements(spec.topology)
    best = predictor.predict(workload, sweeps[len(sweeps) // 2], keep_trace=True)
    iteration_counts = [best.iterations]
    seed = None
    for _ in range(MAX_ROUNDS):
        if warm:
            candidate_seed = best.seed_state()
            seed = (
                candidate_seed
                if candidate_seed is not None
                and candidate_seed.iterations >= WARM_MIN_SEED_ITERATIONS
                else None
            )
        improved = None
        for cand in neighbour_placements(spec.topology, best.placement):
            p = predictor.predict(workload, cand, keep_trace=True, seed=seed)
            # The trace rows ARE the convergence telemetry: one
            # ConvergenceRecord per fixed-point iteration.
            assert len(p.trace) == p.iterations
            assert all(isinstance(row, ConvergenceRecord) for row in p.trace)
            iteration_counts.append(p.iterations)
            if p.predicted_time_s < (improved or best).predicted_time_s:
                improved = p
        if improved is None:
            break
        best = improved
    return iteration_counts, best


def test_warm_session_cuts_iterations(session_env):
    spec, predictor, workload = session_env
    cold_counts, cold_best = _hill_climb(spec, predictor, workload, warm=False)
    warm_counts, warm_best = _hill_climb(spec, predictor, workload, warm=True)

    # Both sessions walk the same path to the same answer.
    assert warm_best.placement == cold_best.placement
    assert warm_best.predicted_time_s == pytest.approx(
        cold_best.predicted_time_s, abs=TOLERANCE
    )
    assert len(warm_counts) == len(cold_counts)

    cold_total = sum(cold_counts)
    warm_total = sum(warm_counts)
    assert warm_total <= WARM_BUDGET_RATIO * cold_total, (
        f"warm session regressed: {warm_total} iterations vs cold "
        f"{cold_total} (budget {WARM_BUDGET_RATIO:.0%})"
    )
    assert statistics.median(warm_counts) < statistics.median(cold_counts)


def test_warm_engine_search_cuts_iterations(x2_4):
    _, md, gen = x2_4
    totals = {False: 0, True: 0}
    for name in ("MD", "Art"):
        workload = gen.generate(catalog.get(name))
        best = {}
        for warm in (False, True):
            predictor = PandiaPredictor(md, tolerance=1e-13)
            with SearchEngine(predictor, warm_start=warm) as engine:
                best[warm] = engine.search(workload, GreedyHillClimbStrategy()).best
                totals[warm] += engine.stats.fixed_point_iterations
        assert (
            best[True].placement.canonical_key()
            == best[False].placement.canonical_key()
        ), name
        assert best[True].predicted_time_s == pytest.approx(
            best[False].predicted_time_s, abs=TOLERANCE
        ), name
    assert totals[True] <= ENGINE_WARM_RATIO * totals[False], (
        f"warm searches regressed: {totals[True]} iterations vs cold "
        f"{totals[False]} (budget {ENGINE_WARM_RATIO:.0%})"
    )
