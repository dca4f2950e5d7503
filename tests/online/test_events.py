"""Tests for the discrete-event loop primitives."""

import pytest

from repro.errors import ReproError
from repro.online.events import Event, EventKind, EventLog, EventLoop


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ReproError, match="negative"):
            Event(-1.0, EventKind.ARRIVAL, "j")

    def test_kind_processing_order(self):
        """At equal timestamps: departures, then arrivals, then reschedules."""
        assert EventKind.DEPARTURE < EventKind.ARRIVAL < EventKind.RESCHEDULE


class TestEventLoop:
    def test_pops_in_time_order(self):
        loop = EventLoop()
        loop.push(Event(5.0, EventKind.ARRIVAL, "b"))
        loop.push(Event(1.0, EventKind.ARRIVAL, "a"))
        assert loop.pop().job_name == "a"
        assert loop.pop().job_name == "b"

    def test_departures_precede_arrivals_at_equal_time(self):
        loop = EventLoop()
        loop.push(Event(3.0, EventKind.ARRIVAL, "in"))
        loop.push(Event(3.0, EventKind.RESCHEDULE, "re"))
        loop.push(Event(3.0, EventKind.DEPARTURE, "out"))
        names = [loop.pop().job_name for _ in range(3)]
        assert names == ["out", "in", "re"]

    def test_equal_keys_pop_in_push_order(self):
        loop = EventLoop()
        for name in ("first", "second", "third"):
            loop.push(Event(1.0, EventKind.ARRIVAL, name))
        assert [loop.pop().job_name for _ in range(3)] == [
            "first", "second", "third",
        ]

    def test_time_is_monotonic(self):
        loop = EventLoop()
        loop.push(Event(10.0, EventKind.ARRIVAL, "a"))
        loop.pop()
        assert loop.now == 10.0
        with pytest.raises(ReproError, match="already"):
            loop.push(Event(5.0, EventKind.DEPARTURE, "late"))

    def test_pop_empty_raises(self):
        with pytest.raises(ReproError, match="empty"):
            EventLoop().pop()

    def test_pop_empty_names_the_simulated_time(self):
        loop = EventLoop()
        loop.push(Event(7.5, EventKind.ARRIVAL, "a"))
        loop.pop()
        with pytest.raises(ReproError, match="simulated time 7.5"):
            loop.pop()

    def test_peek_and_len(self):
        loop = EventLoop()
        assert loop.peek() is None and not loop
        loop.push(Event(1.0, EventKind.ARRIVAL, "a"))
        assert loop.peek().job_name == "a"
        assert len(loop) == 1 and bool(loop)


class TestEventLog:
    def test_records_and_equality(self):
        a, b = EventLog(), EventLog()
        event = Event(1.5, EventKind.ARRIVAL, "j", version=3)
        a.append(event)
        assert a != b
        b.append(event)
        assert a == b
        assert a.records == [(1.5, "ARRIVAL", "j")]
        assert len(a) == 1
