"""Predicted-slowdown may hold a job for a predicted departure.

A job waits when its best candidate costs more than the next free
predicted departure plus its solo estimate, and it is not scored again
until the simulated clock reaches that departure or no job is running.
Two things are pinned here: a small case where waiting finishes the
job sooner than squeezing it in at once, and liveness — on small racks
with bursty traces, every job completes and no job is ever pending
while the fleet runs nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.online import OnlineScheduler, replay_trace
from repro.rack.model import Rack, RackMachine

from tests.online.conftest import make_description

POOL = {
    w.name: w
    for w in (
        make_description("mem", inst=2.0, dram=18.0),
        make_description("cpu", inst=6.0, dram=0.5, t1=8.0),
        make_description("mid"),
        make_description("wide", inst=4.0, dram=2.0, p=0.999, t1=30.0),
    )
}

#: Where the compute job of the pinned case ends if it is placed on
#: arrival instead, beside the DRAM hog on node-0's free SMT contexts
#: 8-11 (measured with a policy that never waits).
IMMEDIATE_END_S = 5.5964881896219545


def _replay(rack, records, **kwargs):
    trace = replay_trace(
        [{"workload": w, "arrival_s": t, "job": j} for w, t, j in records], POOL
    )
    return OnlineScheduler(rack, **kwargs).run(trace)


def test_second_arrival_waits_for_the_first_departure(rack):
    """2×TESTBOX: at t=0 a wide job fills node-1 and a DRAM hog takes
    one context per core of node-0.  A compute job arriving at t=1 could
    start at once on node-0's free SMT contexts, beside the hog.
    Waiting for the wide job's predicted departure at 1.90 s and then
    running alone on node-1 is predicted to cost less, so it waits, and
    it finishes sooner."""
    run = _replay(
        rack, [("wide", 0.0, "wide"), ("mem", 0.0, "hog"), ("cpu", 1.0, "late")]
    )
    jobs = {c.name: c for c in run.completed}
    (decision,) = [d for d in run.decisions if d.job_name == "late"]
    assert jobs["late"].start_s == jobs["wide"].end_s == decision.time_s
    assert (decision.machine_name, decision.n_threads) == ("node-1", 16)
    assert jobs["late"].end_s == pytest.approx(2.5531, abs=1e-4)
    assert jobs["late"].end_s < IMMEDIATE_END_S


def test_an_admit_call_that_places_nothing_records_its_latency(rack):
    """Arrivals at 0, 0.5 and 1 s make admit calls that place 1, 1 and
    0 jobs (the compute job waits for the wide one); the departure that
    ends the wait places it.  Each call is one latency sample."""
    run = _replay(
        rack, [("wide", 0.0, "wide"), ("mem", 0.5, "hog"), ("cpu", 1.0, "late")]
    )
    assert run.stats.decisions == 3
    assert run.stats.metrics.histogram("online.decision_us").count == 4


def _idle_while_pending(run):
    """Jobs that were pending at some instant when nothing ran."""
    busy = []
    for start, end in sorted((e.start_s, e.end_s) for e in run.timeline.entries):
        if busy and start <= busy[-1][1]:
            busy[-1][1] = max(busy[-1][1], end)
        else:
            busy.append([start, end])
    edges = [float("-inf")] + [t for span in busy for t in span] + [float("inf")]
    idle = list(zip(edges[::2], edges[1::2]))
    return sorted(
        c.name
        for c in run.completed
        for lo, hi in idle
        if max(c.arrival_s, lo) < min(c.start_s, hi)
    )


#: Bursts (zero gaps), short gaps and gaps long enough to drain a node.
arrivals = st.lists(
    st.tuples(st.sampled_from(sorted(POOL)), st.sampled_from([0.0, 0.5, 2.0, 12.0])),
    min_size=1,
    max_size=10,
)


@pytest.mark.parametrize("migrate", [False, True], ids=["static", "migrate"])
@settings(max_examples=20, deadline=None)
@given(jobs=arrivals, nodes=st.integers(1, 2))
# A job that waits for a departure which then moves earlier: the node
# empties before the clock reaches the awaited time, and with no event
# left only the "nothing runs" clause starts the job.
@example(
    jobs=[("mem", 0.0), ("cpu", 0.5), ("mem", 0.0), ("mem", 0.0), ("mem", 0.0),
          ("wide", 0.5)],
    nodes=1,
)
def test_every_job_completes_and_none_waits_on_an_idle_fleet(
    testbox, testbox_md, migrate, jobs, nodes
):
    rack = Rack(
        machines=tuple(
            RackMachine(f"node-{i}", testbox, testbox_md) for i in range(nodes)
        )
    )
    records, now = [], 0.0
    for i, (workload, gap) in enumerate(jobs):
        now += gap
        records.append((workload, now, f"{workload}-{i:02d}"))
    run = _replay(rack, records, migrate=migrate, hysteresis=0.0)
    assert sorted(c.name for c in run.completed) == sorted(j for _, _, j in records)
    assert _idle_while_pending(run) == []
