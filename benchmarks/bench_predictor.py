"""Prediction-throughput benchmark: one kernel call per placement vs
one call per population.

Section 6.1: "Making predictions using Pandia takes a fraction of a
second per placement" — while the measurements behind one workload's
figure took machine-days.  Two parts:

* pytest-benchmark microbenchmarks (per-placement latency, per-call
  throughput) — run via ``pytest benchmarks/bench_predictor.py``;
* a CLI comparing a per-placement miss path against ``predict_batch``
  over ranking-sized placement populations.  The "scalar" column is a
  ``predict`` loop: one one-row call of the fixed-point kernel per
  placement.  The "batch" column stacks the population into one call.
  Equivalence is asserted in-run (max |Δ predicted time| < 1e-9; the
  kernel's row-independence contract makes the two bit-identical), and
  placements/sec are reported.

The headline case ranks an exhaustive canonical sample of the X2-4
(4 sockets, 80 hardware threads); the population sweep covers all four
catalog machines (X2-4, X3-2, X4-2, X5-2).

Usage::

    python benchmarks/bench_predictor.py                  # full sweep
    python benchmarks/bench_predictor.py --quick          # CI smoke
    python benchmarks/bench_predictor.py --json OUT.json  # perf record
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.core.machine_desc import generate_machine_description
from repro.core.placement import sample_canonical
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.experiments.common import ExperimentContext, QUICK
from repro.hardware import machines
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog

EQUIV_TOL = 1e-9
SWEEP_MACHINES = ("X2-4", "X3-2", "X4-2", "X5-2")


# -- pytest-benchmark microbenchmarks ----------------------------------------


@pytest.fixture(scope="module")
def setup():
    context = ExperimentContext(scale=QUICK)
    predictor = context.predictor("X5-2")
    description = context.description("X5-2", "MD")
    placements = sample_canonical(context.machine("X5-2").topology, 50, seed=5)
    return predictor, description, placements


def test_prediction_latency_single_placement(benchmark, setup):
    predictor, description, placements = setup
    full_machine = max(placements, key=lambda p: p.n_threads)
    result = benchmark(predictor.predict, description, full_machine)
    assert result.speedup > 0


def test_prediction_throughput_many_placements(benchmark, setup):
    predictor, description, placements = setup

    def predict_all():
        return [predictor.predict(description, p) for p in placements]

    results = benchmark(predict_all)
    assert len(results) == len(placements)
    # The paper's "fraction of a second per placement" must hold.
    assert benchmark.stats["mean"] / len(placements) < 0.5


def test_batch_throughput_many_placements(benchmark, setup):
    predictor, description, placements = setup
    results = benchmark(predictor.predict_batch, description, placements)
    assert len(results) == len(placements)


# -- scalar-vs-batch CLI ------------------------------------------------------


def _population(machine_name: str, sample: int):
    """(predictor, workload description, placements) for one machine."""
    spec = machines.get(machine_name)
    md = generate_machine_description(spec, noise=NO_NOISE)
    predictor = PandiaPredictor(md)
    generator = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
    workload = generator.generate(catalog.get("MD"))
    placements = sample_canonical(spec.topology, sample, seed=7)
    return predictor, workload, placements


def _compare(predictor, workload, placements, repeats: int) -> dict:
    """Best-of-*repeats* scalar vs batch timings, equivalence asserted."""
    scalar_best = float("inf")
    batch_best = float("inf")
    scalar_results: List = []
    batch_results: List = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalar_results = [predictor.predict(workload, p) for p in placements]
        scalar_best = min(scalar_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batch_results = predictor.predict_batch(workload, placements)
        batch_best = min(batch_best, time.perf_counter() - t0)

    deviation = max(
        abs(b.predicted_time_s - s.predicted_time_s)
        for b, s in zip(batch_results, scalar_results)
    )
    if deviation >= EQUIV_TOL:
        raise AssertionError(
            f"batch kernel diverged from scalar path: "
            f"max |Δ predicted time| = {deviation:.3e} >= {EQUIV_TOL:.0e}"
        )
    n = len(placements)
    return {
        "n_placements": n,
        "scalar_s": scalar_best,
        "batch_s": batch_best,
        "scalar_placements_per_s": n / scalar_best,
        "batch_placements_per_s": n / batch_best,
        "speedup": scalar_best / batch_best,
        "max_abs_deviation": deviation,
    }


def run(headline_machine: str, headline_sample: int,
        sweep: Sequence[Tuple[str, int]], repeats: int) -> dict:
    record = {"workload": "MD", "equivalence_tolerance": EQUIV_TOL, "sweep": []}

    predictor, workload, placements = _population(headline_machine, headline_sample)
    headline = _compare(predictor, workload, placements, repeats)
    headline["machine"] = headline_machine
    record["headline"] = headline
    print(
        f"headline {headline_machine}: {headline['n_placements']} placements   "
        f"scalar {headline['scalar_placements_per_s']:8.0f}/s   "
        f"batch {headline['batch_placements_per_s']:8.0f}/s   "
        f"speedup {headline['speedup']:5.2f}x   "
        f"max dev {headline['max_abs_deviation']:.2e}"
    )

    for machine_name, sample in sweep:
        predictor, workload, placements = _population(machine_name, sample)
        entry = _compare(predictor, workload, placements, repeats)
        entry["machine"] = machine_name
        record["sweep"].append(entry)
        print(
            f"  {machine_name:8s} {entry['n_placements']:4d} placements   "
            f"scalar {entry['scalar_placements_per_s']:8.0f}/s   "
            f"batch {entry['batch_placements_per_s']:8.0f}/s   "
            f"speedup {entry['speedup']:5.2f}x   "
            f"max dev {entry['max_abs_deviation']:.2e}"
        )
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: TESTBOX sweep + small X2-4 headline")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed passes per population (best-of)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the perf record to PATH")
    args = parser.parse_args(argv)

    if args.quick:
        repeats = args.repeats or 1
        record = run("X2-4", 128, [("TESTBOX", 64)], repeats)
    else:
        repeats = args.repeats or 3
        record = run("X2-4", 1024, [(m, 256) for m in SWEEP_MACHINES], repeats)

    speedup = record["headline"]["speedup"]
    print(f"headline batch-kernel speedup: {speedup:.2f}x")
    if not args.quick and speedup < 5.0:
        print("WARNING: speedup below the 5x target (loaded host?)")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"perf record written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
