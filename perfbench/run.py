#!/usr/bin/env python3
"""Placement-decision benchmark: host cost and simulated quality.

One run of one workload::

    python3 perfbench/run.py --workload online-predicted --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's
tracing off, and reports the decisions' host time beside them
(ungated: it moves with the host's speed).  Set-up (imports, machine
descriptions, the six-run profiling of the pool, building the fleet,
trace or engine) is timed from process start and repeated in fresh
processes; ``setup_s`` is the median.  The measured phase then runs
whole passes -- a replay of the trace, or one optimize session per
catalog workload -- until another pass would overrun ``--seconds``,
and never fewer than the tail percentile needs.

``--trace 1`` reports the per-layer metrics instead, per pass: a fixed
number of passes alternate between untraced and traced, the traced
ones with spans recorded around each layer's public entry points (see
``perfbench/spans.py``).  Fixed work makes every count repeat exactly
for a seed.  The spans are written to
``.perfbench/<workload>-seed<N>.spans.jsonl``, which ``pandia profile``
renders; each run's record goes beside them.

The last line of standard output is the result object.  Every
operation (a trace job or an optimize session) is checked; the run
exits 1 if any failed and 2 if it cannot run at all.

Steadiness report: ``--steadiness N`` runs the workload N times back
to back with seeds ``seed .. seed+N-1`` and prints each end-to-end
metric's median, quartiles, extremes and spread against its bound;
``--sets 2`` repeats the set and compares the medians.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: Fresh processes that repeat the set-up; with the run's own, 5 samples.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 150


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop, to diagnose host drift.

    Reported only; it scales no metric.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0,
                        help="run the workload N times and report the spread")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --steadiness: sets of N runs to compare")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


class PassLog:
    """Every pass a run makes.  Only the first keeps its decisions; each
    later pass is checked against it and then drops them, so memory does
    not grow with the number of passes (every pass of one seed must
    decide alike)."""

    def __init__(self, workload, state) -> None:
        self.workload, self.state = workload, state
        self.passes = []

    def run(self, recorder=None):
        result = self.workload.run_pass(self.state, len(self.passes), recorder)
        if self.passes:
            first = self.passes[0]
            if not (result.failures or first.failures or result.outcome == first.outcome):
                a, b = _ops(first.outcome), _ops(result.outcome)
                differing = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
                result.failures += [
                    f"pass {len(self.passes)} decided differently from pass 0"
                ] * max(1, differing)
            result.outcome = None
        self.passes.append(result)
        return result

    def measure(self, seconds):
        """Whole passes until another would overrun *seconds*, and at
        least the workload's minimum (what its tail percentile needs)."""
        done = []
        start = time.perf_counter()
        while True:
            done.append(self.run())
            elapsed = time.perf_counter() - start
            if (len(done) >= self.workload.min_passes
                    and elapsed + done[-1].wall_ns / 1e9 > seconds):
                return done


def _ops(outcome):
    return getattr(outcome, "jobs", outcome)


def setup_probes(args, n):
    """Set-up times of *n* fresh processes doing this run's set-up."""
    samples = []
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    for _ in range(n):
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(passes, quality, setup_samples):
    """The gated end-to-end metrics and their sample counts."""
    values = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_turnaround_s": quality["mean_turnaround_s"],
        "chosen_speedup": quality["chosen_speedup"],
    }
    samples = {
        "setup_s": len(setup_samples),
        "mean_turnaround_s": quality["turnaround_samples"],
        "chosen_speedup": quality["turnaround_samples"],
    }
    return values, samples


def decision_times(workload, passes):
    """Host time of the decisions, reported beside the gated metrics.

    These move with the host's speed, which on a shared 2-core host
    swings by up to 2x within minutes; their run-to-run spread does not
    fit any bound ``BENCHMARK.json`` may set, so they are not gated.
    """
    from perfbench.stats import percentile

    latencies = [ns for p in passes for ns in p.latencies_ns]
    decisions = sum(p.decisions for p in passes)
    tail = f"decision_p{workload.tail_q * 100:g}_ms"
    return {
        "decision_p50_ms": {"value": percentile(latencies, 0.5) / 1e6, "unit": "ms",
                            "n": len(latencies)},
        tail: {"value": percentile(latencies, workload.tail_q) / 1e6, "unit": "ms",
               "n": len(latencies)},
        "decisions_per_s": {
            "value": decisions / (sum(p.wall_ns for p in passes) / 1e9),
            "unit": "1/s", "n": decisions,
        },
    }


def run(args, spec) -> int:
    from perfbench import spans, workloads

    workload = workloads.make(args.workload)
    setup_recorder = spans.Recorder()
    if args.trace:
        with spans.Installed(setup_recorder):
            state = workload.setup(args.seed)
    else:
        state = workload.setup(args.seed)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    calibration = {"start_ms": calibration_ms()}
    log = PassLog(workload, state)
    if args.trace:
        # Untraced and traced passes alternate, so host drift hits both.
        recorder = spans.Recorder()
        untraced, passes = [], []
        for _ in range(workload.trace_passes):
            untraced.append(log.run())
            with spans.Installed(recorder):
                passes.append(log.run(recorder))
    else:
        passes = log.measure(args.seconds)
    calibration["end_ms"] = calibration_ms()

    first = log.passes[0]
    failures = [msg for p in log.passes for msg in p.failures]
    attempted = sum(p.attempted for p in log.passes)
    record = {
        "workload": workload.name,
        "why": spec["why"][workload.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "host": host_facts(),
        "calibration": calibration,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
    }
    if first.failures:  # the reference pass itself failed: nothing to report
        record["metrics"], record["samples"] = {}, {}
        record["failures"] = failures[:5]
        report(record)
        return finish(record, {}, attempted, failures)
    if args.trace:
        traced_ns = sum(p.wall_ns for p in passes)
        untraced_ns = sum(p.wall_ns for p in untraced)
        values = spans.layer_metrics(
            recorder, setup_recorder, traced_ns, untraced_ns,
            workload.service_counts(first), len(passes),
        )
        units = spec["per_layer"]
        record["traced_wall_s"] = traced_ns / 1e9 / len(passes)
        record["shares"] = layer_shares(values, record["traced_wall_s"])
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl"
        from repro.obs.export import write_spans_jsonl

        write_spans_jsonl(
            span_file,
            setup_recorder.to_spans("setup") + recorder.to_spans("measure"),
        )
        record["spans"] = str(span_file.relative_to(ROOT))
        samples = {}
    else:
        quality = workload.quality(state, first)
        setup_samples = [setup_s] + setup_probes(args, SETUP_PROBES)
        values, samples = end_to_end(passes, quality, setup_samples)
        units = spec["end_to_end"]
        record["setup_samples_s"] = setup_samples
        record["reported"] = decision_times(workload, passes)
        # The run's own set-up alone, to show what the median adds.
        record["reported"]["setup_own_s"] = {"value": setup_s, "unit": "s", "n": 1}
        if "p99_turnaround_s" in quality:
            record["reported"]["p99_turnaround_s"] = {
                "value": quality["p99_turnaround_s"], "unit": "s",
                "n": quality["turnaround_samples"],
            }
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["metrics"] = metrics
    record["samples"] = samples
    record["failures"] = failures[:5]

    report(record)
    return finish(record, metrics, attempted, failures)


def finish(record, metrics, attempted, failures) -> int:
    """Write the run record, print the result line, pick the exit code."""
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def layer_shares(values, wall_s):
    """Each layer's self time as a share of the traced wall time."""
    shares = {
        name: values[name] / wall_s
        for name in values
        if name.endswith("_s") and not name.startswith("setup.")
        and name != "online.queueing_s"
    }
    shares["unspanned"] = values["trace.unspanned_frac"]
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def report(record) -> None:
    """Human-readable summary, ahead of the result line."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {record['passes']}")
    print(f"  why: {record['why']}")
    print(f"  params: {json.dumps(record['params'])}")
    print(f"  host: {json.dumps(record['host'])}")
    cal = record["calibration"]
    print(f"  calibration loop: {cal['start_ms']:.2f} ms at start, "
          f"{cal['end_ms']:.2f} ms at end")
    for name, metric in record["metrics"].items():
        n = record["samples"].get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}{count}")
    if record.get("reported"):
        print("  reported, not gated (host time moves with host speed):")
        for name, metric in record["reported"].items():
            value = metric["value"]
            shown = "refused: too few samples" if value is None else f"{value:14.6g}"
            print(f"  {name:<28} {shown:>14} {metric['unit']}  (n={metric['n']})")
    if "shares" in record:
        print(f"  share of traced wall ({record['traced_wall_s']:.3f} s a pass):")
        for name, share in record["shares"].items():
            if share >= 0.001:
                print(f"    {name:<26} {share:7.1%}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")
    for message in record["failures"]:
        print(f"  FAILED: {message}", file=sys.stderr)


def load_spec() -> dict:
    raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "raw": raw,
        "why": {w["name"]: w["why"] for w in raw["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in raw["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in raw["per_layer"]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in spec["why"]:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(spec['why'])}", file=sys.stderr)
        return 2
    # The program's own tracing (repro.obs) stays off; the spans are ours.
    os.environ.pop("REPRO_TRACE", None)
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    if args.steadiness:
        from perfbench import steady

        return steady.main(args, spec)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
