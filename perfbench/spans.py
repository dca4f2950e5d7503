"""Spans recorded from outside the program, and the per-layer metrics.

The traced run swaps each layer's public entry point (a class method or
a module function) for a thin wrapper that records a span around the
call, then restores the original.  Nothing under ``src/`` changes and
the program's own ``repro.obs`` tracing stays off, so the spans here
are the benchmark's alone.

A span records its name, start, end, parent and the id of the
operation it serves (``op``): the event-loop step for the online
workloads, whose arrival steps are the admissions, and the session for
``optimize-x5``.  Spans stay in memory as parallel lists and are
written at the end in the ``repro.obs`` span-JSONL format, so
``pandia profile`` renders them as a flamegraph.

Every ``*_s`` layer metric is a self time: the span's duration minus
the part its child spans cover.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span name -> (self-time metric, call-count metric or None).
SPAN_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "online.run": ("online.loop_s", None),
    "policies.admit": ("policies.admit_s", "policies.admit_calls"),
    "rack.best_candidate": ("rack.best_candidate_s", "rack.best_candidate_calls"),
    "rack.predict_machine": ("rack.retime_s", "rack.retime_calls"),
    "rack.solo_estimate": ("rack.solo_estimate_s", None),
    "coscheduling.predict": ("coscheduling.predict_s", "coscheduling.calls"),
    "search.search": ("search.search_s", None),
    "search.evaluate": ("search.evaluate_s", None),
    "search.candidates": ("search.candidates_s", None),
    "predictor.predict_batch": ("predictor.batch_s", "predictor.batch_calls"),
    "optimizer.rightsize": ("optimizer.rightsize_s", None),
    "setup.machine_desc": ("setup.machine_desc_s", None),
    "setup.profile": ("setup.profile_s", "setup.profiles"),
}


class Recorder:
    """In-memory span buffer for one single-threaded phase."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.ops: List[Optional[int]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """*fn* with a span named *name* around every call.

        ``before(args)`` runs ahead of the call and ``observe(counts,
        args, result, token)`` after it, outside the span's own
        interval, to count work done by the call.
        """
        names, starts, ends, parents, ops = (
            self.names, self.starts, self.ends, self.parents, self.ops
        )
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        recorder = self

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(recorder.op)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result, token)
            return result

        return wrapper

    def stepper(self, fn: Callable) -> Callable:
        """*fn* (``EventLoop.pop``) advancing ``op`` by one per call."""
        recorder = self

        def pop(*args, **kwargs):
            recorder.counts["online.pops"] += 1
            recorder.op = recorder.counts["online.pops"]
            return fn(*args, **kwargs)

        return pop

    # -- reading ---------------------------------------------------------

    def roots_ns(self) -> int:
        """Summed duration of the top-level spans."""
        return sum(
            e - s for p, s, e in zip(self.parents, self.starts, self.ends) if p < 0
        )

    def to_spans(self, phase: str):
        """The buffer as :class:`repro.obs.trace.Span` objects."""
        from repro.obs.trace import Span

        pid, tid = os.getpid(), threading.get_ident()
        prefix = f"{pid}-{phase}-"
        return [
            Span(
                name=name,
                span_id=f"{prefix}{i}",
                parent_id=f"{prefix}{parent}" if parent >= 0 else None,
                pid=pid,
                tid=tid,
                start_ns=start,
                dur_ns=end - start,
                attrs={"op": op, "phase": phase},
            )
            for i, (name, start, end, parent, op) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.ops)
            )
        ]


def self_times(
    names: Sequence[str],
    starts: Sequence[int],
    ends: Sequence[int],
    parents: Sequence[int],
) -> Dict[str, int]:
    """Self time (ns) per span name: each span's duration minus the
    durations of its direct children, summed over spans of that name."""
    durations = [e - s for s, e in zip(starts, ends)]
    children = [0] * len(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            children[parent] += duration
    out: Dict[str, int] = defaultdict(int)
    for name, duration, child in zip(names, durations, children):
        out[name] += duration - child
    return dict(out)


def child_counts(recorder: Recorder, parent_name: str, child_name: str) -> int:
    """Spans named *child_name* whose direct parent is named *parent_name*."""
    names, parents = recorder.names, recorder.parents
    return sum(
        1
        for name, parent in zip(names, parents)
        if name == child_name and parent >= 0 and names[parent] == parent_name
    )


# -- what gets wrapped -------------------------------------------------------


def _count_joint(counts, args, prediction, _token) -> None:
    counts["coscheduling.jobs"] += len(args[1])
    counts["coscheduling.iterations"] += prediction.iterations
    counts["coscheduling.unconverged"] += not prediction.converged


def _count_batch(counts, args, predictions, _token) -> None:
    counts["predictor.rows"] += len(predictions)
    counts["predictor.iterations"] += sum(p.iterations for p in predictions)
    counts["predictor.unconverged"] += sum(not p.converged for p in predictions)


def _hits_before(args) -> int:
    return args[0].stats.cache_hits


def _count_evaluate(counts, args, _results, hits_before) -> None:
    counts["search.requests"] += len(args[2])
    counts["search.hits"] += args[0].stats.cache_hits - hits_before


def targets():
    """``(span name, owner, attribute, observe, before)`` per wrapped call."""
    from repro.core import coscheduling, machine_desc, optimizer, predictor
    from repro.core.workload_desc import WorkloadDescriptionGenerator
    from repro.online import policies, service
    from repro.rack.scheduler import RackScheduler
    from repro.search import engine, strategies

    out = [("online.run", service.OnlineScheduler, "run", None, None)]
    for cls in (policies.LoadBalancePolicy, policies.PredictedSlowdownPolicy):
        out.append(("policies.admit", cls, "admit", None, None))
    out += [
        ("rack.best_candidate", RackScheduler, "best_candidate", None, None),
        ("rack.predict_machine", RackScheduler, "predict_machine", None, None),
        ("rack.solo_estimate", RackScheduler, "solo_estimate", None, None),
        ("coscheduling.predict", coscheduling.CoSchedulePredictor, "predict",
         _count_joint, None),
        ("search.search", engine.SearchEngine, "search", None, None),
        ("search.evaluate", engine.SearchEngine, "evaluate", _count_evaluate,
         _hits_before),
        ("search.candidates", strategies.ExhaustiveStrategy, "initial_candidates",
         None, None),
        ("predictor.predict_batch", predictor.PandiaPredictor, "predict_batch",
         _count_batch, None),
        ("optimizer.rightsize", optimizer, "rightsize", None, None),
        ("setup.machine_desc", machine_desc, "generate_machine_description",
         None, None),
        ("setup.profile", WorkloadDescriptionGenerator, "generate", None, None),
    ]
    return out


class Installed:
    """Context manager: the recorder's wrappers are live inside it.

    With *only*, just the targets of those span names are wrapped and
    the event-loop steps are not numbered; an untraced pass uses this to
    time its admit calls alone.
    """

    def __init__(self, recorder: Recorder, only: Optional[Sequence[str]] = None) -> None:
        self.recorder = recorder
        self.only = only
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        from repro.online.events import EventLoop

        rec = self.recorder
        for name, owner, attr, observe, before in targets():
            if self.only is not None and name not in self.only:
                continue
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, observe, before))
        if self.only is None:
            original = EventLoop.__dict__["pop"]
            self._saved.append((EventLoop, "pop", original))
            EventLoop.pop = rec.stepper(original)
        return rec

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(
    measure: Recorder,
    setup: Recorder,
    traced_wall_ns: int,
    untraced_wall_ns: int,
    online: Optional[Dict[str, float]] = None,
    passes: int = 1,
) -> Dict[str, float]:
    """Every per-layer metric from the two phases' spans.

    The measured phase holds *passes* identical traced passes; its
    times and counts are reported per pass.  *online* carries the
    service's own outcome counts for one pass (events, stale and
    processed departures, deferrals, mean simulated wait); they are
    zero for ``optimize-x5``.
    """
    out: Dict[str, float] = {}
    for recorder, is_setup, per in ((measure, False, passes), (setup, True, 1)):
        selfs = self_times(
            recorder.names, recorder.starts, recorder.ends, recorder.parents
        )
        calls = Counter(recorder.names)
        for span_name, (self_metric, call_metric) in SPAN_METRICS.items():
            if span_name.startswith("setup.") != is_setup:
                continue
            out[self_metric] = selfs.get(span_name, 0) / 1e9 / per
            if call_metric is not None:
                out[call_metric] = calls[span_name] / per

    totals, calls = measure.counts, Counter(measure.names)
    for name in ("coscheduling.iterations", "coscheduling.unconverged",
                 "predictor.rows", "predictor.iterations", "predictor.unconverged",
                 "search.requests"):
        out[name] = totals[name] / passes
    out["rack.candidates_per_decision"] = _ratio(
        child_counts(measure, "rack.best_candidate", "coscheduling.predict"),
        calls["rack.best_candidate"],
    )
    out["coscheduling.jobs_per_call"] = _ratio(
        totals["coscheduling.jobs"], calls["coscheduling.predict"]
    )
    out["search.hit_ratio"] = _ratio(totals["search.hits"], totals["search.requests"])

    online = online or {}
    out["online.events"] = online.get("events", 0)
    out["online.stale_ratio"] = _ratio(
        online.get("stale", 0), online.get("stale", 0) + online.get("departures", 0)
    )
    out["online.deferrals"] = online.get("deferrals", 0)
    out["online.queueing_s"] = online.get("mean_wait_s", 0.0)

    out["trace.overhead_frac"] = traced_wall_ns / untraced_wall_ns - 1.0
    out["trace.unspanned_frac"] = 1.0 - measure.roots_ns() / traced_wall_ns
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
