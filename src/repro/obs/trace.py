"""Nested-span tracer with per-thread span stacks.

A :class:`Span` records a name, free-form attributes, wall time
(``time.perf_counter_ns`` — ``CLOCK_MONOTONIC``) and CPU time for one
phase of work.  The :class:`Tracer` keeps a per-thread span stack (so
nesting needs no explicit plumbing: a span's parent is the innermost
span open on its thread) and a lock-protected buffer of finished spans.
Span ids embed the producing pid.

Everything here is plain stdlib and allocation-light; the module is
never imported on the disabled fast path (callers guard on
``repro.obs.enabled()`` first).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Span:
    """One finished (or in-flight) traced phase."""

    name: str
    span_id: str
    parent_id: Optional[str]
    pid: int
    tid: int
    start_ns: int  # perf_counter_ns at entry (monotonic, host-wide)
    dur_ns: int = 0
    cpu_ns: int = 0  # thread CPU time consumed inside the span
    attrs: Dict[str, Any] = field(default_factory=dict)
    _cpu0: int = 0

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (the JSONL exporter's row)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "cpu_ns": self.cpu_ns,
            "attrs": self.attrs,
        }


class _SpanContext:
    """Context manager yielding the live span (for attr updates)."""

    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self.span = self._tracer.start(self._name, attrs=self._attrs)
        return self.span

    def __exit__(self, *exc) -> bool:
        self._tracer.end(self.span)
        return False


class NullSpan:
    """The do-nothing context manager handed out when tracing is off.

    ``__enter__`` yields ``None`` so instrumentation sites can test
    ``if span is not None:`` before touching attributes.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = NullSpan()


class Tracer:
    """Collects spans from any number of threads in one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- span lifecycle --------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span, parented under this thread's current span."""
        stack = self._stack()
        pid = os.getpid()
        span = Span(
            name=name,
            span_id=f"{pid}-{next(self._ids)}",
            parent_id=stack[-1].span_id if stack else None,
            pid=pid,
            tid=threading.get_ident(),
            start_ns=time.perf_counter_ns(),
            attrs=dict(attrs) if attrs else {},
            _cpu0=time.thread_time_ns(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close *span* and move it to the finished buffer."""
        span.dur_ns = time.perf_counter_ns() - span.start_ns
        span.cpu_ns = time.thread_time_ns() - span._cpu0
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order end: drop it (and anything above) defensively
            while stack:
                if stack.pop() is span:
                    break
        with self._lock:
            self._finished.append(span)
        return span

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """``with tracer.span("phase", key=value) as s: ...``"""
        return _SpanContext(self, name, attrs)

    # -- buffer management ----------------------------------------------

    def spans(self) -> List[Span]:
        """A copy of the finished-span buffer."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> List[Span]:
        """Remove and return every finished span."""
        with self._lock:
            out = self._finished
            self._finished = []
        return out

    def clear(self) -> None:
        self.drain()

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)
