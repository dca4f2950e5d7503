"""Placement optimisation on top of the predictor.

The paper's two headline uses of Pandia (Section 1):

* pick the best-performing placement for a workload — including
  whether to span sockets and whether SMT helps (:func:`best_placement`);
* find where extra resources stop buying performance, so a poorly
  scaling workload can be confined to fewer cores (:func:`rightsize`).

All helpers route through :class:`repro.search.engine.SearchEngine`:
symmetric placements are predicted once and predictions are memoised
per predictor, so chaining ``best_placement`` → ``rightsize`` →
``peak_thread_count`` over one placement set costs a single evaluation
pass — and that pass runs the misses through the predictor's batched
``predict_batch`` kernel (one vectorised fixed point over the whole
miss set).  Pass ``engine=`` to control caching explicitly;
:func:`rank_placements_serial` keeps the naive scalar loop
as the golden reference (``tests/search/test_golden_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.description import WorkloadDescription
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor, Prediction
from repro.errors import PredictionError

# repro.search imports repro.core, so the functions below import the
# search engine when they run: at module level, a first import of
# repro.search would come back here and find repro.search half built.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.engine import RankedPlacement, SearchEngine

__all__ = [
    "rank_placements",
    "rank_placements_serial",
    "best_placement",
    "rightsize",
    "peak_thread_count",
]


def _machine_name(predictor) -> str:
    return getattr(getattr(predictor, "md", None), "machine_name", "<unknown machine>")


def _require_placements(
    predictor, workload: WorkloadDescription, placements: Sequence[Placement]
) -> None:
    if not placements:
        raise PredictionError(
            f"no placements to rank for workload {workload.name!r} "
            f"on {_machine_name(predictor)}"
        )


def rank_placements(
    predictor: PandiaPredictor,
    workload: WorkloadDescription,
    placements: Sequence[Placement],
    engine: Optional[SearchEngine] = None,
) -> List[RankedPlacement]:
    """Predict every placement and sort fastest-first.

    Uses the per-predictor shared search engine unless *engine* is
    given, so repeated rankings hit the prediction cache.
    """
    _require_placements(predictor, workload, placements)
    if engine is None:
        from repro.search.engine import SearchEngine

        engine = SearchEngine.shared(predictor)
    return engine.rank(workload, placements)


def rank_placements_serial(
    predictor: PandiaPredictor,
    workload: WorkloadDescription,
    placements: Sequence[Placement],
) -> List[RankedPlacement]:
    """The naive serial loop: no dedup, no cache, no batch kernel.

    Reference implementation for the golden-equivalence tests; prefer
    :func:`rank_placements`.
    """
    from repro.search.engine import RankedPlacement

    _require_placements(predictor, workload, placements)
    ranked = [
        RankedPlacement(pl, predictor.predict(workload, pl)) for pl in placements
    ]
    ranked.sort(key=lambda r: r.predicted_time_s)
    return ranked


def best_placement(
    predictor: PandiaPredictor,
    workload: WorkloadDescription,
    placements: Sequence[Placement],
    engine: Optional[SearchEngine] = None,
) -> Tuple[Placement, Prediction]:
    """The placement Pandia predicts to be fastest."""
    top = rank_placements(predictor, workload, placements, engine=engine)[0]
    return top.placement, top.prediction


def _footprint(placement: Placement) -> Tuple[int, int, int]:
    """(threads, occupied cores, active sockets) — the resource cost."""
    return (
        placement.n_threads,
        len(placement.threads_per_core()),
        len(placement.active_sockets()),
    )


def rightsize(
    predictor: PandiaPredictor,
    workload: WorkloadDescription,
    placements: Sequence[Placement],
    tolerance: float = 0.05,
    engine: Optional[SearchEngine] = None,
) -> Tuple[Placement, Prediction]:
    """Smallest-footprint placement within *tolerance* of the best.

    Identifies "opportunities for reducing resource consumption where
    additional resources are not matched by additional performance"
    (Section 1): any placement predicted to be at most
    ``(1+tolerance)`` times slower than the best qualifies, and the one
    using the fewest threads, then cores, then sockets wins.
    """
    if tolerance < 0:
        raise PredictionError(
            f"rightsize of workload {workload.name!r} on "
            f"{_machine_name(predictor)}: tolerance must be >= 0, "
            f"got {tolerance!r}"
        )
    ranked = rank_placements(predictor, workload, placements, engine=engine)
    budget = ranked[0].predicted_time_s * (1.0 + tolerance)
    eligible = [r for r in ranked if r.predicted_time_s <= budget]
    winner = min(eligible, key=lambda r: _footprint(r.placement))
    return winner.placement, winner.prediction


def peak_thread_count(
    predictor: PandiaPredictor,
    workload: WorkloadDescription,
    placements: Sequence[Placement],
    engine: Optional[SearchEngine] = None,
) -> int:
    """Thread count of the predicted-fastest placement.

    Section 6.1 observes that on larger machines the peak often sits
    below the maximum thread count (81% of workloads on the X5-2).
    """
    placement, _ = best_placement(predictor, workload, placements, engine=engine)
    return placement.n_threads
