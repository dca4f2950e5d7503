"""Search strategies: what to evaluate, and when to stop.

All strategies share one API consumed by
:meth:`repro.search.engine.SearchEngine.search`:

* ``initial_candidates(topology)`` — the first batch of placements;
* ``refine(topology, best, seen)`` — the next batch given the best
  result so far and everything evaluated (keyed by canonical key), or
  ``None``/empty to stop.

``ExhaustiveStrategy`` and ``SweepStrategy`` are single-round;
``GreedyHillClimbStrategy`` walks neighbour moves in shape space until
no move improves the predicted time.  Strategies carry per-search
state — use a fresh instance per :meth:`search` call.

Each round's candidate batch reaches the engine as one list, so cache
misses are evaluated by the predictor's vectorised ``predict_batch``
kernel in a single stacked fixed point — proposing candidates in
batches (rather than one at a time) is what lets every strategy ride
the kernel.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.placement import (
    Placement,
    SocketShape,
    enumerate_canonical,
    from_shapes,
    sample_canonical,
)
from repro.core.sweep import packed_placement, spread_placement, sweep_placements
from repro.errors import PredictionError
from repro.hardware.topology import MachineTopology


class ExhaustiveStrategy:
    """Every canonical placement (optionally sampled / filtered).

    ``sample`` bounds the candidate count via the deterministic
    :func:`~repro.core.placement.sample_canonical`; the filters are the
    Figure-12 placement-class bounds.
    """

    def __init__(
        self,
        max_threads: Optional[int] = None,
        max_sockets: Optional[int] = None,
        max_cores: Optional[int] = None,
        sample: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.max_threads = max_threads
        self.max_sockets = max_sockets
        self.max_cores = max_cores
        self.sample = sample
        self.seed = seed

    def initial_candidates(self, topology: MachineTopology) -> List[Placement]:
        filters = dict(
            max_threads=self.max_threads,
            max_sockets=self.max_sockets,
            max_cores=self.max_cores,
        )
        if self.sample is not None:
            return sample_canonical(topology, self.sample, seed=self.seed, **filters)
        return enumerate_canonical(topology, **filters)

    def refine(self, topology, best, seen) -> None:
        return None


class SweepStrategy:
    """The paper's packed/spread sweep (Section 6.3), predicted not run.

    Candidates are every packed and every spread placement at 1..n
    threads — the same placements ``run_sweep`` would *measure*, here
    evaluated through the predictor in one batch.
    """

    def initial_candidates(self, topology: MachineTopology) -> List[Placement]:
        return sweep_placements(topology)

    def refine(self, topology, best, seen) -> None:
        return None


class GreedyHillClimbStrategy:
    """Hill-climb over neighbour moves in per-socket shape space.

    Seeds with packed and spread placements at a few pivotal thread
    counts, then repeatedly proposes every single-move neighbour of the
    current best — add/remove a thread, pair/split an SMT context,
    migrate a thread across sockets — until a round yields no
    improvement or ``max_rounds`` is hit.  Evaluating each neighbour
    batch through the engine keeps the climb cache-friendly.
    """

    def __init__(self, max_rounds: int = 64) -> None:
        self.max_rounds = max_rounds
        self._rounds = 0
        self._last_best_key: Optional[Tuple[SocketShape, ...]] = None

    def initial_candidates(self, topology: MachineTopology) -> List[Placement]:
        pivots = {1, topology.cores_per_socket, topology.n_cores, topology.n_hw_threads}
        seeds: Dict[Tuple, Placement] = {}
        for n in sorted(p for p in pivots if 1 <= p <= topology.n_hw_threads):
            for placement in (
                packed_placement(topology, n),
                spread_placement(topology, n),
            ):
                seeds.setdefault(placement.canonical_key(), placement)
        return list(seeds.values())

    def refine(self, topology, best, seen) -> Optional[Sequence[Placement]]:
        self._rounds += 1
        best_key = best.placement.canonical_key()
        if best_key == self._last_best_key or self._rounds >= self.max_rounds:
            return None
        self._last_best_key = best_key
        return neighbour_placements(topology, best.placement)


class SurrogateStrategy:
    """Surrogate-ranked search: score everything, exact-verify the top-k.

    The whole canonical space (or *space*, or a deterministic sample)
    is scored in one vectorised pass by a trained
    :class:`repro.surrogate.SurrogateModel`; only the leading *k*
    placements reach the exact fixed point through the engine.  *k*
    adapts: each refine round widens the verified prefix by the growth
    factor until the exact-verified best has been stable for
    ``stable_rounds`` consecutive widenings (or the space is
    exhausted).  Every answer the search returns is therefore
    exact-verified — the surrogate only chooses the evaluation order.

    Fallback: with no model, no engine binding, or model confidence
    below ``min_confidence`` on this space (out-of-envelope features,
    poor training fit), the strategy degrades to exact exhaustive
    search over the same space and counts a ``surrogate_fallbacks``
    in :class:`~repro.search.stats.SearchStats`.

    The engine calls :meth:`bind` before the first round, handing the
    strategy its machine description (for featurization) and stats.
    Like every strategy, instances carry per-search state — use a
    fresh one per :meth:`~repro.search.engine.SearchEngine.search`.
    """

    def __init__(
        self,
        model=None,
        *,
        model_path: Optional[str] = None,
        space: Optional[Sequence[Placement]] = None,
        initial_k: int = 32,
        growth: float = 2.0,
        stable_rounds: int = 2,
        min_confidence: float = 0.3,
        max_threads: Optional[int] = None,
        max_sockets: Optional[int] = None,
        max_cores: Optional[int] = None,
        sample: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if initial_k < 1:
            raise PredictionError(
                f"surrogate initial_k must be >= 1, got {initial_k!r}"
            )
        if growth <= 1.0:
            raise PredictionError(
                f"surrogate growth factor must be > 1, got {growth!r}"
            )
        if stable_rounds < 1:
            raise PredictionError(
                f"surrogate stable_rounds must be >= 1, got {stable_rounds!r}"
            )
        self.model = model
        self.model_path = model_path
        self.space = space
        self.initial_k = initial_k
        self.growth = growth
        self.stable_rounds = stable_rounds
        self.min_confidence = min_confidence
        self.max_threads = max_threads
        self.max_sockets = max_sockets
        self.max_cores = max_cores
        self.sample = sample
        self.seed = seed
        self.fallback_reason: Optional[str] = None
        self._engine = None
        self._workload = None
        self._ranked: Optional[List[Placement]] = None
        self._cursor = 0
        self._step = initial_k
        self._stable = 0
        self._last_best_key: Optional[Tuple[SocketShape, ...]] = None

    # -- engine integration ----------------------------------------------

    def bind(self, engine, workload) -> None:
        """Receive the engine and workload before the first round."""
        self._engine = engine
        self._workload = workload
        if self.model is None and self.model_path is not None:
            # Imported lazily: repro.io imports repro.core, whose
            # optimizer imports the engine module next door.
            from repro.io.surrogate import load_surrogate

            self.model = load_surrogate(self.model_path)

    def _stats_inc(self, name: str, amount: int = 1) -> None:
        if self._engine is not None:
            self._engine.stats.inc(name, amount)

    def _space(self, topology: MachineTopology) -> List[Placement]:
        if self.space is not None:
            return list(self.space)
        filters = dict(
            max_threads=self.max_threads,
            max_sockets=self.max_sockets,
            max_cores=self.max_cores,
        )
        if self.sample is not None:
            return sample_canonical(topology, self.sample, seed=self.seed, **filters)
        return enumerate_canonical(topology, **filters)

    def _fall_back(self, reason: str, space: List[Placement]) -> List[Placement]:
        self.fallback_reason = reason
        self._ranked = None
        self._stats_inc("surrogate_fallbacks")
        return space

    # -- strategy API -----------------------------------------------------

    def initial_candidates(self, topology: MachineTopology) -> List[Placement]:
        space = self._space(topology)
        if self.model is None:
            return self._fall_back("no surrogate model", space)
        md = getattr(getattr(self._engine, "predictor", None), "md", None)
        if md is None or self._workload is None:
            return self._fall_back("strategy not bound to an engine", space)

        from repro.surrogate.features import PlacementFeaturizer

        with obs.span(
            "search.surrogate", placements=len(space), workload=self._workload.name
        ) as span:
            t0 = time.perf_counter_ns()
            X = PlacementFeaturizer(md, self._workload).matrix(space)
            confidence = self.model.confidence(X)
            if confidence < self.min_confidence:
                if span is not None:
                    span.attrs.update(confidence=confidence, fallback=True)
                return self._fall_back(
                    f"model confidence {confidence:.2f} below "
                    f"{self.min_confidence:.2f}",
                    space,
                )
            scores = self.model.rank_scores(X)
            order = _stable_argsort(scores)
            if obs.enabled():
                obs.metrics().histogram("search.surrogate.score_us").observe(
                    (time.perf_counter_ns() - t0) / 1e3
                )
            if span is not None:
                span.attrs.update(confidence=confidence, fallback=False)
        self._stats_inc("surrogate_scored", len(space))
        self._ranked = [space[i] for i in order]
        self._cursor = min(self.initial_k, len(self._ranked))
        self._step = self.initial_k
        batch = self._ranked[: self._cursor]
        self._stats_inc("surrogate_verified", len(batch))
        return batch

    def refine(self, topology, best, seen) -> Optional[Sequence[Placement]]:
        if self._ranked is None:  # fallback: single exhaustive round
            return None
        best_key = best.placement.canonical_key()
        if best_key == self._last_best_key:
            self._stable += 1
            if self._stable >= self.stable_rounds:
                return None
        else:
            self._stable = 0
            self._last_best_key = best_key
        if self._cursor >= len(self._ranked):
            return None
        self._step = max(self._step + 1, int(self._step * self.growth))
        end = min(self._cursor + self._step, len(self._ranked))
        batch = self._ranked[self._cursor : end]
        self._cursor = end
        self._stats_inc("surrogate_verified", len(batch))
        return batch


def _stable_argsort(scores) -> List[int]:
    """Ascending order with ties kept in input (enumeration) order."""
    import numpy as np

    return list(np.argsort(np.asarray(scores), kind="stable"))


def neighbour_placements(
    topology: MachineTopology, placement: Placement
) -> List[Placement]:
    """Every placement one shape move away from *placement*.

    Moves, per socket: add a single-thread core, drop one, pair a
    single into an SMT dual, split a dual back; plus migrating one
    single thread between two sockets.  Results are canonicalised and
    deduplicated.
    """
    base = list(placement.canonical_key())
    cps = topology.cores_per_socket
    smt = topology.threads_per_core >= 2
    shapes: Dict[Tuple[SocketShape, ...], None] = {}

    def propose(candidate: List[SocketShape]) -> None:
        if sum(o + 2 * t for o, t in candidate) == 0:
            return
        key = tuple(sorted(candidate, reverse=True))
        if key != tuple(sorted(base, reverse=True)):
            shapes.setdefault(key)

    for i, (ones, twos) in enumerate(base):
        moves = []
        if ones + twos < cps:
            moves.append((ones + 1, twos))  # add a single-thread core
        if ones > 0:
            moves.append((ones - 1, twos))  # drop a thread
            if smt:
                moves.append((ones - 1, twos + 1))  # pair into an SMT dual
        if twos > 0:
            moves.append((ones + 1, twos - 1))  # split a dual
        for move in moves:
            candidate = list(base)
            candidate[i] = move
            propose(candidate)
        # migrate one single thread from socket i to socket j
        if ones > 0:
            for j, (oj, tj) in enumerate(base):
                if j == i or oj + tj >= cps:
                    continue
                candidate = list(base)
                candidate[i] = (ones - 1, twos)
                candidate[j] = (oj + 1, tj)
                propose(candidate)

    return [from_shapes(topology, key) for key in shapes]
