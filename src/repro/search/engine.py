"""The placement-search engine.

``SearchEngine`` wraps one :class:`~repro.core.predictor.PandiaPredictor`
and answers "predict these placements" requests through three layers:

1. **canonicalisation** — symmetric placements collapse to one key, so
   each symmetry class is predicted once per workload;
2. **memoisation** — an LRU cache keyed by ``(workload fingerprint,
   canonical key)`` carries predictions across calls, so e.g.
   ``best_placement`` followed by ``rightsize`` over the same set pays
   for one evaluation pass, not two;
3. **fan-out** — cache misses are ground through a thread or process
   pool in chunked work units; with ``max_workers=None`` (the default)
   or a single worker the engine evaluates in-process.

Every miss path — serial, thread-pool chunk and process-pool chunk —
routes through :func:`_chunk_predictions`, which hands the whole chunk
to :meth:`PandiaPredictor.predict_batch` (one vectorised fixed point
over the population) when the predictor provides it, and falls back to
the scalar ``predict`` loop for duck-typed predictors that do not.

Determinism: the predictor is a pure function of ``(workload,
placement)``, each miss is evaluated on the exact concrete placement
that first requested its symmetry class, and results are reassembled in
submission order — so the fast path matches the naive serial loop to
the batch kernel's 1e-12 equivalence guarantee regardless of worker
count or chunk size.

Observability: when ``repro.obs`` is enabled the engine emits nested
spans — ``search.search`` > ``search.round`` / ``search.strategy`` >
``search.evaluate`` > ``search.cache`` / ``search.predict`` >
``search.chunk`` — with the chunk spans parented explicitly across the
pool boundary (worker-process span buffers are shipped back with each
result and merged at join).  ``engine.stats`` counters live in a
:class:`repro.obs.Metrics` registry (see :mod:`repro.search.stats`).
Instrumentation never touches what is computed: predictions are
bit-identical with tracing on or off.
"""

from __future__ import annotations

import os
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs

from repro.core.description import WorkloadDescription
from repro.core.placement import Placement
from repro.core.predictor import (
    WARM_MIN_SEED_ITERATIONS,
    PandiaPredictor,
    Prediction,
    SeedState,
)
from repro.errors import PredictionError
from repro.search.cache import PredictionCache
from repro.search.canonical import canonical_key, workload_fingerprint
from repro.search.stats import SearchStats

# -- process-pool worker state -----------------------------------------------
#
# Each worker process rebuilds the predictor once (from the pickled
# machine description) instead of once per task; tasks then ship only
# the workload and a chunk of placements.

_WORKER_PREDICTOR: Optional[PandiaPredictor] = None


def _process_worker_init(md, max_iterations: int, tolerance: float) -> None:
    global _WORKER_PREDICTOR
    _WORKER_PREDICTOR = PandiaPredictor(
        md, max_iterations=max_iterations, tolerance=tolerance
    )


def _chunk_predictions(
    predictor,
    workload: WorkloadDescription,
    placements: Sequence[Placement],
    seed: Optional[SeedState] = None,
) -> List[Prediction]:
    """Predict a chunk, through the batch kernel when available.

    Duck-typed so the engine still accepts any object with a scalar
    ``predict``; the real :class:`PandiaPredictor` exposes
    ``predict_batch``, which runs the whole chunk as one vectorised
    fixed point, bit-identical to ``predict`` on each placement.  *seed*
    warm-starts the whole chunk; it is only forwarded when set, so
    duck-typed predictors without the parameter keep working cold.
    """
    batch = getattr(predictor, "predict_batch", None)
    if batch is not None:
        # Even single-placement chunks go through the kernel: its
        # results are bit-identical regardless of chunk composition,
        # so every pool/chunk configuration returns the same floats.
        if seed is not None:
            return batch(workload, placements, seed=seed)
        return batch(workload, placements)
    if seed is not None:
        return [predictor.predict(workload, p, seed=seed) for p in placements]
    return [predictor.predict(workload, p) for p in placements]


def _process_worker_chunk(
    workload: WorkloadDescription,
    placements: Sequence[Placement],
    obs_parent: Optional[str] = None,
    seed: Optional[SeedState] = None,
):
    """Pool-worker task: predict one chunk, optionally under tracing.

    With *obs_parent* set (the submitting side's current span id) the
    worker arms its own collectors, runs the chunk under a
    ``search.chunk`` span parented across the process boundary, and
    returns ``(predictions, obs_payload)`` for the parent to absorb;
    otherwise it returns the bare prediction list.
    """
    assert _WORKER_PREDICTOR is not None, "worker initializer did not run"
    if obs_parent is None:
        return _chunk_predictions(_WORKER_PREDICTOR, workload, placements, seed)
    obs.begin_worker()
    with obs.span(
        "search.chunk",
        parent=obs_parent or None,
        placements=len(placements),
        worker_pid=os.getpid(),
    ):
        predictions = _chunk_predictions(
            _WORKER_PREDICTOR, workload, placements, seed
        )
    return predictions, obs.collect_worker()


def _traced_chunk(
    predictor,
    workload: WorkloadDescription,
    placements: Sequence[Placement],
    obs_parent: Optional[str],
    seed: Optional[SeedState] = None,
) -> List[Prediction]:
    """Thread-pool task wrapper: same chunk, spanned under *obs_parent*."""
    with obs.span("search.chunk", parent=obs_parent, placements=len(placements)):
        return _chunk_predictions(predictor, workload, placements, seed)


@dataclass
class RankedPlacement:
    """One placement with its prediction, ordered fastest-first."""

    placement: Placement
    prediction: Prediction

    @property
    def predicted_time_s(self) -> float:
        return self.prediction.predicted_time_s


@dataclass
class SearchResult:
    """Outcome of one strategy-driven search."""

    best: RankedPlacement
    ranked: List[RankedPlacement]  # every evaluated class, fastest-first
    rounds: int
    stats: SearchStats  # snapshot at completion
    wall_time_s: float

    @property
    def best_placement(self) -> Placement:
        return self.best.placement

    @property
    def best_prediction(self) -> Prediction:
        return self.best.prediction


class SearchEngine:
    """Cache-aware, optionally parallel placement evaluator.

    Parameters
    ----------
    predictor:
        The bound predictor.  Anything with a ``predict(workload,
        placement)`` method works; pool executors additionally need the
        real :class:`PandiaPredictor` (its machine description is
        shipped to workers).
    max_workers:
        ``None`` (default) or ``1`` evaluates serially.  ``>= 2``
        enables the pool selected by *executor*.
    executor:
        ``"thread"`` (default) or ``"process"``.  Ignored when running
        serially.  If the pool cannot be created (restricted
        environments), the engine silently falls back to serial —
        results are identical either way.
    chunk_size:
        Number of placements per pool work unit.
    cache_size:
        LRU capacity in predictions.
    warm_start:
        When true, refine-round evaluations warm-start from the current
        best placement's converged :class:`SeedState` (and callers may
        pass seeds to :meth:`evaluate` explicitly).  Results match cold
        runs within the predictor's equivalence tolerance; only the
        iteration count changes.  Off by default.
    store:
        An optional :class:`repro.io.PredictionStore`.  Cache misses
        probe the store before running the predictor, and fresh
        predictions are written back (flushed on :meth:`close` and
        after every :meth:`search`), so searches survive across
        sessions.  Store hits count as cache hits plus ``store_hits``
        in :class:`~repro.search.stats.SearchStats`.
    warm_min_iterations:
        Seeds whose source converged in fewer iterations are ignored —
        warm-starting cannot beat a fixed point that already stops in
        ~2 iterations (the first iteration is always paid to reproduce
        the cold slowdown cap).
    """

    #: Shared per-predictor engines handed out by :meth:`shared`, so the
    #: module-level optimizer helpers reuse one cache per predictor.
    _SHARED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __init__(
        self,
        predictor,
        *,
        max_workers: Optional[int] = None,
        executor: str = "thread",
        chunk_size: int = 16,
        cache_size: int = 65536,
        warm_start: bool = False,
        store=None,
        warm_min_iterations: int = WARM_MIN_SEED_ITERATIONS,
    ) -> None:
        if executor not in ("thread", "process"):
            raise PredictionError(f"unknown executor kind {executor!r}")
        if chunk_size < 1:
            raise PredictionError("chunk size must be >= 1")
        if max_workers is not None and max_workers < 1:
            raise PredictionError("max_workers must be >= 1 (or None for serial)")
        self.predictor = predictor
        self.max_workers = max_workers
        self.executor_kind = executor
        self.chunk_size = chunk_size
        self.cache: PredictionCache[Prediction] = PredictionCache(cache_size)
        self.stats = SearchStats()
        self.warm_start = warm_start
        self.warm_min_iterations = warm_min_iterations
        self.store = store
        self._machine_digest: Optional[str] = None
        self._w_digests: Dict[Tuple[Hashable, ...], str] = {}
        self._pool = None
        self._pool_broken = False

    # -- construction ----------------------------------------------------

    @classmethod
    def shared(cls, predictor) -> "SearchEngine":
        """The serial engine shared by all callers using *predictor*.

        This is what the :mod:`repro.core.optimizer` helpers use by
        default, so ``best_placement`` + ``rightsize`` +
        ``peak_thread_count`` over the same placement set evaluate each
        symmetry class once.
        """
        try:
            engine = cls._SHARED.get(predictor)
        except TypeError:  # unhashable or un-weakref-able predictor
            return cls(predictor)
        if engine is None:
            engine = cls(predictor)
            try:
                cls._SHARED[predictor] = engine
            except TypeError:
                pass
        return engine

    # -- evaluation ------------------------------------------------------

    def evaluate(
        self,
        workload: WorkloadDescription,
        placements: Sequence[Placement],
        seed: Optional[SeedState] = None,
    ) -> List[RankedPlacement]:
        """Predict every placement, in input order.

        Symmetric duplicates within *placements* share one prediction
        (the one computed for the first concrete placement of the
        class), as do repeats across calls via the cache.  With
        ``warm_start`` enabled, *seed* warm-starts whatever still needs
        the predictor — ignored unless its source converged slowly
        enough (``warm_min_iterations``) for seeding to pay off.
        """
        t0 = time.perf_counter()
        obs_on = obs.enabled()
        if (
            seed is None
            or not self.warm_start
            or seed.iterations < self.warm_min_iterations
        ):
            seed = None
        with obs.span(
            "search.evaluate", workload=workload.name, placements=len(placements)
        ) as ev_span:
            fingerprint = workload_fingerprint(workload)
            self.stats.inc("requests", len(placements))
            store_ids = self._store_ids(fingerprint)

            hits = misses = store_hits = 0
            lookup_hist = (
                obs.metrics().histogram("search.cache.lookup_us") if obs_on else None
            )
            keys: List[Hashable] = []
            found: Dict[Hashable, Prediction] = {}
            pending: "OrderedDict[Hashable, Placement]" = OrderedDict()
            with obs.span("search.cache") as cache_span:
                for placement in placements:
                    ckey = canonical_key(placement)
                    key = (fingerprint, ckey)
                    keys.append(key)
                    if key in found or key in pending:
                        hits += 1
                        continue
                    if lookup_hist is not None:
                        t_probe = time.perf_counter_ns()
                        cached = self.cache.get(key)
                        lookup_hist.observe((time.perf_counter_ns() - t_probe) / 1e3)
                    else:
                        cached = self.cache.get(key)
                    if cached is None and store_ids is not None:
                        cached = self.store.get_prediction(
                            store_ids[0], store_ids[1], ckey, placement
                        )
                        if cached is not None:
                            store_hits += 1
                            self.cache.put(key, cached)
                    if cached is not None:
                        hits += 1
                        found[key] = cached
                    else:
                        misses += 1
                        pending[key] = placement
                if cache_span is not None:
                    cache_span.attrs.update(
                        hits=hits, misses=misses, store_hits=store_hits
                    )
            self.stats.inc("cache_hits", hits)
            self.stats.inc("cache_misses", misses)
            if store_hits:
                self.stats.inc("store_hits", store_hits)

            if pending:
                with obs.span(
                    "search.predict", misses=len(pending), seeded=seed is not None
                ):
                    predictions = self._predict_batch(
                        workload, list(pending.values()), seed=seed
                    )
                self.stats.inc("evaluations", len(predictions))
                self.stats.observe_iterations(p.iterations for p in predictions)
                if seed is not None:
                    self.stats.inc("warm_seeded", len(predictions))
                for key, prediction in zip(pending, predictions):
                    found[key] = prediction
                    self.cache.put(key, prediction)
                    if store_ids is not None:
                        self.store.put_prediction(
                            store_ids[0], store_ids[1], key[1], prediction
                        )

            results = [
                RankedPlacement(placement, found[key])
                for placement, key in zip(placements, keys)
            ]
            if ev_span is not None:
                ev_span.attrs.update(hits=hits, misses=misses)
        self.stats.inc("wall_time_s", time.perf_counter() - t0)
        return results

    def rank(
        self,
        workload: WorkloadDescription,
        placements: Sequence[Placement],
    ) -> List[RankedPlacement]:
        """Evaluate and sort fastest-first (stable in input order)."""
        ranked = self.evaluate(workload, placements)
        ranked.sort(key=lambda r: r.predicted_time_s)
        return ranked

    def best(
        self,
        workload: WorkloadDescription,
        placements: Sequence[Placement],
    ) -> RankedPlacement:
        if not placements:
            raise PredictionError(
                f"no placements to evaluate for workload {workload.name!r}"
            )
        return self.rank(workload, placements)[0]

    # -- strategy-driven search ------------------------------------------

    def search(self, workload: WorkloadDescription, strategy) -> SearchResult:
        """Run a search strategy to completion.

        The strategy proposes an initial candidate set, then refines it
        round by round from the evaluated results until it proposes
        nothing new (see :mod:`repro.search.strategies`).
        """
        t0 = time.perf_counter()
        evaluate_before = self.stats.wall_time_s
        with obs.span(
            "search.search",
            workload=workload.name,
            strategy=type(strategy).__name__,
        ) as s_span:
            topology = self._topology()
            seen: Dict[Tuple, RankedPlacement] = {}
            # Strategies that pre-rank candidates (SurrogateStrategy)
            # need the engine's machine description and stats before
            # their first round; plain strategies have no bind().
            binder = getattr(strategy, "bind", None)
            if binder is not None:
                binder(self, workload)
            with obs.span("search.strategy", phase="initial"):
                candidates = list(strategy.initial_candidates(topology))
            if not candidates:
                raise PredictionError(
                    f"strategy {type(strategy).__name__} proposed no candidates"
                )
            rounds = 0
            seed: Optional[SeedState] = None
            while candidates:
                rounds += 1
                self.stats.inc("rounds")
                with obs.span(
                    "search.round", round=rounds, candidates=len(candidates)
                ):
                    for ranked in self.evaluate(workload, candidates, seed=seed):
                        seen.setdefault(canonical_key(ranked.placement), ranked)
                    best = min(seen.values(), key=lambda r: r.predicted_time_s)
                    if self.warm_start:
                        # Refine rounds explore this best's neighbours —
                        # warm-start them from its converged state.
                        seed = best.prediction.seed_state()
                    with obs.span("search.strategy", phase="refine", round=rounds):
                        proposed = strategy.refine(topology, best, seen)
                    candidates = [
                        p for p in (proposed or []) if canonical_key(p) not in seen
                    ]
            ranked_all = sorted(seen.values(), key=lambda r: r.predicted_time_s)
            if s_span is not None:
                s_span.attrs.update(rounds=rounds, classes=len(ranked_all))
        wall_time = time.perf_counter() - t0
        # Round-driving overhead = search time not spent in evaluate();
        # wall_time_s + strategy_time_s sum to the observed wall time.
        evaluate_time = self.stats.wall_time_s - evaluate_before
        self.stats.inc("strategy_time_s", max(0.0, wall_time - evaluate_time))
        if self.store is not None:
            self.store.flush()
        return SearchResult(
            best=ranked_all[0],
            ranked=ranked_all,
            rounds=rounds,
            stats=self.stats.snapshot(),
            wall_time_s=wall_time,
        )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool and flush the store, if any."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.store is not None:
            self.store.flush()

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _topology(self):
        md = getattr(self.predictor, "md", None)
        topology = getattr(md, "topology", None)
        if topology is None:
            raise PredictionError(
                "strategy search needs a predictor with a machine description"
            )
        return topology

    def _store_ids(
        self, fingerprint: Tuple[Hashable, ...]
    ) -> Optional[Tuple[str, str]]:
        """(machine digest, workload digest) for store keys, memoised;
        ``None`` without a store or machine description."""
        if self.store is None:
            return None
        # Imported here, not at module level: repro.io pulls in
        # repro.core, whose optimizer imports this module — a top-level
        # import of repro.io.prediction_store makes `import repro.io`
        # (as the first repro import of a process) circular.
        from repro.io.prediction_store import fingerprint_digest, machine_digest

        if self._machine_digest is None:
            md = getattr(self.predictor, "md", None)
            if md is None:
                return None
            self._machine_digest = machine_digest(md)
        w_digest = self._w_digests.get(fingerprint)
        if w_digest is None:
            w_digest = self._w_digests[fingerprint] = fingerprint_digest(
                fingerprint
            )
        return self._machine_digest, w_digest

    def _predict_batch(
        self,
        workload: WorkloadDescription,
        placements: List[Placement],
        seed: Optional[SeedState] = None,
    ) -> List[Prediction]:
        pool = self._ensure_pool() if self._parallel_wanted(placements) else None
        if pool is None:
            return _chunk_predictions(self.predictor, workload, placements, seed)
        obs_on = obs.enabled()
        # Capture the submitting side's span id once: worker threads and
        # processes parent their chunk spans under it explicitly, since
        # thread-local context does not cross executor boundaries.
        obs_parent = obs.tracer().current_id() if obs_on else None
        chunks = [
            placements[i : i + self.chunk_size]
            for i in range(0, len(placements), self.chunk_size)
        ]
        merge_payloads = False
        if self.executor_kind == "process":
            if obs_on:
                merge_payloads = True
                futures = [
                    pool.submit(
                        _process_worker_chunk,
                        workload,
                        chunk,
                        obs_parent or "",
                        seed,
                    )
                    for chunk in chunks
                ]
            else:
                futures = [
                    pool.submit(_process_worker_chunk, workload, chunk, None, seed)
                    for chunk in chunks
                ]
        else:
            predictor = self.predictor
            if obs_on:
                futures = [
                    pool.submit(
                        _traced_chunk, predictor, workload, chunk, obs_parent, seed
                    )
                    for chunk in chunks
                ]
            else:
                futures = [
                    pool.submit(_chunk_predictions, predictor, workload, chunk, seed)
                    for chunk in chunks
                ]
        results: List[Prediction] = []
        for future in futures:  # submission order => deterministic assembly
            outcome = future.result()
            if merge_payloads:
                predictions, payload = outcome
                obs.absorb_worker(payload)  # child span buffers join here
                results.extend(predictions)
            else:
                results.extend(outcome)
        return results

    def _parallel_wanted(self, placements: Sequence[Placement]) -> bool:
        return (
            self.max_workers is not None
            and self.max_workers >= 2
            and not self._pool_broken
            and len(placements) > 1
        )

    def _ensure_pool(self):
        if self._pool is not None:
            return self._pool
        try:
            if self.executor_kind == "process":
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_process_worker_init,
                    initargs=(
                        self.predictor.md,
                        self.predictor.max_iterations,
                        self.predictor.tolerance,
                    ),
                )
            else:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        except (OSError, ImportError, NotImplementedError, AttributeError):
            # Restricted environments (no semaphores, no fork) or a
            # duck-typed predictor without .md: fall back to serial.
            self._pool_broken = True
            self._pool = None
        return self._pool
