"""Placement-search engine.

The paper's two headline uses of Pandia — picking the best placement
and right-sizing a workload (Sections 1 and 6) — both reduce to
evaluating the predictor over large placement sets.  This package makes
that evaluation scale:

* **canonicalisation** — placements equivalent under the machine's
  topology symmetry (same per-socket shapes, any socket order) are
  predicted once (:mod:`repro.search.canonical`);
* **memoisation** — predictions are kept in an LRU cache keyed by
  ``(workload fingerprint, canonical placement key)``, so repeated
  searches over overlapping placement sets pay only dictionary lookups
  (:mod:`repro.search.cache`);
* **one kernel call** — each request's cache misses reach the
  predictor's vectorised ``predict_batch`` together, in process
  (:class:`repro.search.engine.SearchEngine`);
* **strategies** — exhaustive enumeration, the packed/spread sweep,
  a greedy hill-climb over neighbour moves, and a surrogate-guided
  top-k search (a trained :mod:`repro.surrogate` model ranks the whole
  space, the exact fixed point verifies the leaders) share one API
  (:mod:`repro.search.strategies`).

The fast path is *prediction-equivalent* to the naive serial loop: the
same concrete placements are fed to the same deterministic predictor,
so every result matches it within the kernel's 1e-12 equivalence
guarantee (see ``tests/search/test_golden_equivalence.py``).
"""

from repro.search.cache import PredictionCache
from repro.search.canonical import (
    canonical_key,
    canonical_representative,
    workload_fingerprint,
)
from repro.search.engine import RankedPlacement, SearchEngine, SearchResult
from repro.search.stats import SearchStats
from repro.search.strategies import (
    ExhaustiveStrategy,
    GreedyHillClimbStrategy,
    SurrogateStrategy,
    SweepStrategy,
)

__all__ = [
    "PredictionCache",
    "canonical_key",
    "canonical_representative",
    "workload_fingerprint",
    "RankedPlacement",
    "SearchEngine",
    "SearchResult",
    "SearchStats",
    "ExhaustiveStrategy",
    "GreedyHillClimbStrategy",
    "SurrogateStrategy",
    "SweepStrategy",
]
