"""Steadiness report: one workload run N times back to back.

Each run is a fresh ``run.py --trace 0`` process with its own seed
(``seed``, ``seed+1``, ...).  For every end-to-end metric the report
gives the median, quartiles, extremes and the quartile spread as a
share of the median, and whether that spread fits the metric's bound.
With ``--sets 2`` the same seeds run again, and the two medians must
lie within the bound of each other in either order: the larger may
exceed the smaller by at most the bound, whichever set ran first.  This
is the evidence behind the bounds in ``BENCHMARK.json``.  The host-time
metrics each run reports but does not gate (read from its record) get
the same summary, without a bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from perfbench.stats import spread

RUN_TIMEOUT_S = 300
RECORDS = Path(__file__).resolve().parent.parent / ".perfbench"


def run_once(args, seed: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve().parent / "run.py"),
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{args.workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    record = json.loads((RECORDS / f"{args.workload}-seed{seed}-trace0.json").read_text())
    result["reported"] = record.get("reported", {})
    return result


def apart_by(first: float, second: float) -> float:
    """How far apart two medians are: the larger over the smaller, less 1.

    This is how much worse one set is than the other in whichever order
    the two ran, so it does not depend on which set came first.
    """
    return max(first, second) / min(first, second) - 1.0


def summarise(metrics: List[dict], runs: List[dict]) -> Dict[str, dict]:
    out = {}
    for metric in metrics:
        name = metric["name"]
        row = spread([r["metrics"][name]["value"] for r in runs])
        row["bound"] = metric["bound"]
        row["fits"] = row["spread"] <= metric["bound"]
        row["within_third"] = row["spread"] <= metric["bound"] / 3
        out[name] = row
    for name in runs[0]["reported"]:
        values = [r["reported"][name]["value"] for r in runs]
        if None not in values:
            out[name] = dict(spread(values), bound=None, fits=True, within_third=False)
    return out


def main(args, spec) -> int:
    metrics = spec["raw"]["end_to_end"]
    sets = []
    for set_no in range(args.sets):
        runs = []
        for i in range(args.steadiness):
            seed = args.seed + i
            result = run_once(args, seed)
            if not result["correct"] or result["failed"]:
                print(f"set {set_no} seed {seed}: {result['failed']} failed", file=sys.stderr)
                return 1
            runs.append(result)
            values = "  ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics
            )
            print(f"set {set_no} seed {seed}: {values}", flush=True)
        sets.append(summarise(metrics, runs))

    ok = True
    for set_no, rows in enumerate(sets):
        print(f"\n{args.workload}: set {set_no}, {args.steadiness} runs of "
              f"{args.seconds} s, seeds {args.seed}..{args.seed + args.steadiness - 1}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
              f"{'max':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, row in rows.items():
            if row["bound"] is None:
                bound, verdict = "-", "reported, not gated"
            else:
                bound = f"{row['bound']:.0%}"
                verdict = ("fits" if row["fits"] else "TOO WIDE") + (
                    ", under a third" if row["within_third"] else ""
                )
            ok &= row["fits"]
            print(f"  {name:<20} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['min']:>12.6g} {row['max']:>12.6g} "
                  f"{row['spread']:>8.2%} {bound:>6}  {verdict}")
    comparison = {}
    if len(sets) >= 2:
        print(f"\n{args.workload}: first and last set's medians, in either order")
        for metric in metrics:
            name = metric["name"]
            apart = apart_by(sets[0][name]["median"], sets[-1][name]["median"])
            fits = apart <= metric["bound"]
            ok &= fits
            comparison[name] = {"apart_by": apart, "fits": fits}
            print(f"  {name:<20} apart by {apart:>8.2%} (bound {metric['bound']:.0%})  "
                  f"{'fits' if fits else 'TOO FAR APART'}")
    print(json.dumps({"workload": args.workload, "runs": args.steadiness,
                      "seconds": args.seconds, "sets": sets, "comparison": comparison,
                      "ok": ok}))
    return 0 if ok else 1
