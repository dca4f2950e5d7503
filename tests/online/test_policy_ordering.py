"""Contention-aware admission beats the contention-blind baselines.

The fleet is heterogeneous: two X3-2 nodes and two TESTBOX nodes, 96
hardware threads.  Two traces run on it:

* a four-class synthetic pool that spans the contention spectrum, from
  a DRAM hog to a compute job, 150 Poisson jobs at 1.5 jobs/s.  The
  fleet stays full, so first-fit's head-of-line blocking shows
  (measured mean slowdown 4.24 vs 8.31 at seed 0, 5.29 vs 9.01 at
  seed 1, 5.98 vs 12.84 at seed 2);
* perfbench's online trace: the 22 catalog workloads profiled on X3-2,
  2,000 Poisson jobs at 0.3 jobs/s.

Every replay is a deterministic event simulation, so the orderings
hold on any host.
"""

from __future__ import annotations

import statistics

from repro.core.machine_desc import generate_machine_description
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.online import OnlineScheduler, poisson_trace
from repro.rack.model import Rack, RackMachine
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog

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


def test_predicted_slowdown_leads_on_the_benchmark_trace(testbox, testbox_md):
    """perfbench's online setup at seed 0: 2×X3-2 + 2×TESTBOX, the 22
    catalog workloads profiled on X3-2 with noise off, 2,000 Poisson
    jobs at 0.3 jobs/s.  Waiting for a predicted departure when that
    finishes a job sooner puts predicted-slowdown's mean turnaround
    below both contention-blind baselines (8.01 vs 8.30 vs 14.14 s).
    The test takes 16-18 s on a 2-core host (two tier-1 runs'
    ``--durations=15`` lists), most of it the predicted-slowdown replay."""
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
    generator = WorkloadDescriptionGenerator(big, big_md, noise=NO_NOISE)
    pool = [generator.generate(spec) for spec in catalog.evaluation_set()]
    trace = poisson_trace(pool, n_jobs=2000, rate_per_s=0.3, seed=0)
    mean = {
        policy: statistics.fmean(
            c.turnaround_s
            for c in OnlineScheduler(fleet, policy=policy).run(trace).completed
        )
        for policy in ("first-fit", "load-balance", "predicted-slowdown")
    }
    assert mean["predicted-slowdown"] < mean["first-fit"], mean
    assert mean["predicted-slowdown"] < mean["load-balance"], mean
