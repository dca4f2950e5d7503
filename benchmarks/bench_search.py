"""Wall-clock benchmark: search engine vs the naive serial ranking.

Measures one *placement-optimisation session* — the optimizer's real
call pattern: ``best_placement``, ``rightsize`` at several tolerances,
and ``peak_thread_count`` — over the full packed/spread sweep of the
largest catalog machine (X2-4, 4 sockets, 80 hardware threads).

The naive baseline is what the code did before the search engine
existed: every helper re-ranks the whole placement set with one
predictor call per placement (kept verbatim as
``rank_placements_serial``).  The engine path evaluates each symmetry
class once and answers everything else from its prediction cache.
Golden equivalence (identical best placement, times within 1e-12) is
asserted on every run.

A second section measures the **warm-start session**: a greedy
hill-climb on X2-4 at fixed-point tolerance 1e-13 (the regime warm
starts target), run cold and warm over MD and Art, comparing total
fixed-point iterations.  ``--assert-warm-savings`` turns the measured
saving into a hard gate (>= 30%, the ISSUE's acceptance bar) for CI.

A third section (``--surrogate``) measures the **surrogate-guided
search**: a ridge surrogate trained on three catalog machines ranks
each search space in one vectorised pass and the engine exact-verifies
only the adaptive top-k.  Exact exhaustive search over the same
precomputed space is the reference; both timers exclude space
enumeration.  Hard gates: >= 10x speedup on the X2-4 smoke space and
>= 25x on the full X5-2 canonical space, each with <= 1% regret
against the exact best.  The measurement record lands in
``BENCH_surrogate.json`` via ``--json``.

Usage::

    python benchmarks/bench_search.py            # full: X2-4, 3 workloads
    python benchmarks/bench_search.py --quick    # CI smoke: TESTBOX, 1 workload
    python benchmarks/bench_search.py --warm-only --assert-warm-savings
    python benchmarks/bench_search.py --surrogate --json BENCH_surrogate.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence

from repro.core.machine_desc import generate_machine_description
from repro.core.optimizer import (
    best_placement,
    peak_thread_count,
    rank_placements_serial,
    rightsize,
)
from repro.core.predictor import PandiaPredictor
from repro.core.sweep import packed_placement, spread_placement
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.search import SearchEngine
from repro.search.strategies import GreedyHillClimbStrategy
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog

TOLERANCES = (0.02, 0.05, 0.10)
GOLDEN_TOL = 1e-12

#: Warm-session configuration.  X2-4 × (MD, Art) at 1e-13: MD is the
#: paper's headline workload, Art the memory-contended one where the
#: settle is long and warm seeds pay off; at looser tolerances cold
#: converges in a handful of iterations and there is nothing to save.
WARM_MACHINE = "X2-4"
WARM_WORKLOADS = ("MD", "Art")
WARM_TOLERANCE = 1e-13
WARM_SAVINGS_TARGET = 0.30

#: Surrogate-session configuration.  The smoke space is a 6000-placement
#: deterministic sample of the 4-socket X2-4 (big enough that the exact
#: reference dominates the surrogate's fixed ~224 verifications); the
#: headline space is the *full* 18 144-placement X5-2 canonical space —
#: the paper's largest machine, where exhaustive search hurts most.
SURROGATE_WORKLOADS = ("MD", "CG", "EP")
SURROGATE_MAX_REGRET = 0.01
SURROGATE_SECTIONS = (
    {"machine": "X2-4", "sample": 6000, "seed": 1, "min_speedup": 10.0},
    {"machine": "X5-2", "sample": None, "seed": 0, "min_speedup": 25.0},
)


def full_sweep(topology) -> List:
    """Every packed and spread placement at 1..n threads (with the
    boundary duplicates a naive caller would produce)."""
    placements = []
    for n in range(1, topology.n_hw_threads + 1):
        placements.append(packed_placement(topology, n))
        placements.append(spread_placement(topology, n))
    return placements


def naive_session(predictor, workload, placements):
    """The pre-engine behaviour: each helper re-ranks from scratch."""
    ranked = rank_placements_serial(predictor, workload, placements)
    best = ranked[0]
    for tolerance in TOLERANCES:
        ranked_again = rank_placements_serial(predictor, workload, placements)
        budget = ranked_again[0].predicted_time_s * (1.0 + tolerance)
        min(
            (r for r in ranked_again if r.predicted_time_s <= budget),
            key=lambda r: (
                r.placement.n_threads,
                len(r.placement.threads_per_core()),
                len(r.placement.active_sockets()),
            ),
        )
    peak = rank_placements_serial(predictor, workload, placements)[0]
    return best.placement, best.predicted_time_s, peak.placement.n_threads


def engine_session(predictor, workload, placements):
    """The same session through one (fresh) search engine."""
    with SearchEngine(predictor) as engine:
        best, best_pred = best_placement(predictor, workload, placements, engine=engine)
        for tolerance in TOLERANCES:
            rightsize(predictor, workload, placements, tolerance, engine=engine)
        peak = peak_thread_count(predictor, workload, placements, engine=engine)
        stats = engine.stats.snapshot()
    return best, best_pred.predicted_time_s, peak, stats


def run(machine_name: str, workload_names: Sequence[str], repeats: int) -> float:
    spec = machines.get(machine_name)
    md = generate_machine_description(spec, noise=NO_NOISE)
    predictor = PandiaPredictor(md)
    generator = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
    placements = full_sweep(spec.topology)
    print(
        f"machine {machine_name}: {spec.topology.n_hw_threads} hw threads, "
        f"{len(placements)} sweep placements, "
        f"{1 + len(TOLERANCES) + 1} rankings per session"
    )

    worst_speedup = float("inf")
    for name in workload_names:
        workload = generator.generate(catalog.get(name))

        naive_best = min(
            _timed(naive_session, predictor, workload, placements)
            for _ in range(repeats)
        )
        engine_best = float("inf")
        last = None
        for _ in range(repeats):
            elapsed, last = _timed_r(engine_session, predictor, workload, placements)
            engine_best = min(engine_best, elapsed)
        best_pl, best_time, peak, stats = last

        ref_pl, ref_time, ref_peak = naive_session(predictor, workload, placements)
        if (
            best_pl.canonical_key() != ref_pl.canonical_key()
            or abs(best_time - ref_time) > GOLDEN_TOL
            or peak != ref_peak
        ):
            print(f"ERROR: {name}: engine result diverged from naive serial loop")
            return -1.0

        speedup = naive_best / engine_best
        worst_speedup = min(worst_speedup, speedup)
        print(
            f"  {name:6s} naive {naive_best * 1e3:8.1f} ms   "
            f"engine {engine_best * 1e3:8.1f} ms   speedup {speedup:5.2f}x   "
            f"(evals {stats.evaluations}/{stats.requests} requests, "
            f"dedup {stats.dedup_ratio:.0%})"
        )
    return worst_speedup


def warm_run() -> Optional[dict]:
    """Hill-climb sessions cold vs warm; returns the measurement record
    or ``None`` when the warm/cold sessions disagree (a golden failure)."""
    spec = machines.get(WARM_MACHINE)
    md = generate_machine_description(spec, noise=NO_NOISE)
    generator = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
    print(
        f"warm-start session: {WARM_MACHINE}, hill-climb at "
        f"tolerance {WARM_TOLERANCE:g}, workloads {', '.join(WARM_WORKLOADS)}"
    )
    record = {"machine": WARM_MACHINE, "tolerance": WARM_TOLERANCE,
              "workloads": {}}
    totals = {False: 0, True: 0}
    for name in WARM_WORKLOADS:
        workload = generator.generate(catalog.get(name))
        iters, elapsed, best = {}, {}, {}
        for warm in (False, True):
            predictor = PandiaPredictor(md, tolerance=WARM_TOLERANCE)
            with SearchEngine(predictor, warm_start=warm) as engine:
                t0 = time.perf_counter()
                result = engine.search(workload, GreedyHillClimbStrategy())
                elapsed[warm] = time.perf_counter() - t0
                iters[warm] = engine.stats.fixed_point_iterations
                best[warm] = result.best
            totals[warm] += iters[warm]
        if (
            best[True].placement.canonical_key()
            != best[False].placement.canonical_key()
            or abs(
                best[True].prediction.predicted_time_s
                - best[False].prediction.predicted_time_s
            )
            > GOLDEN_TOL
        ):
            print(f"ERROR: {name}: warm session diverged from cold")
            return None
        saving = 1.0 - iters[True] / iters[False]
        record["workloads"][name] = {
            "cold_iterations": iters[False],
            "warm_iterations": iters[True],
            "saving": saving,
        }
        print(
            f"  {name:6s} cold {iters[False]:5d} iters "
            f"({elapsed[False] * 1e3:7.1f} ms)   "
            f"warm {iters[True]:5d} iters ({elapsed[True] * 1e3:7.1f} ms)   "
            f"saving {saving:5.1%}"
        )
    aggregate = 1.0 - totals[True] / totals[False]
    record["cold_iterations"] = totals[False]
    record["warm_iterations"] = totals[True]
    record["saving"] = aggregate
    print(
        f"aggregate fixed-point iterations: cold {totals[False]}, "
        f"warm {totals[True]}, saving {aggregate:.1%}"
    )
    return record


class _FixedSpaceStrategy:
    """Exact exhaustive search over a precomputed placement list.

    The benchmark enumerates each space once, outside both timers, so
    the exact-vs-surrogate comparison measures search work only — not
    placement construction.
    """

    def __init__(self, space) -> None:
        self.space = list(space)

    def initial_candidates(self, topology) -> List:
        return list(self.space)

    def refine(self, topology, best, seen) -> None:
        return None


def surrogate_run(quick: bool) -> Optional[dict]:
    """Surrogate-guided vs exact exhaustive search; returns the
    measurement record or ``None`` on a gate failure (speedup below
    target, regret above the cap, or an unverified result)."""
    from repro.core.placement import enumerate_canonical, sample_canonical
    from repro.search import SurrogateStrategy
    from repro.surrogate import (
        DEFAULT_TRAIN_MACHINES,
        DEFAULT_TRAIN_WORKLOADS,
        train_surrogate,
    )

    t0 = time.perf_counter()
    model = train_surrogate(
        DEFAULT_TRAIN_MACHINES,
        DEFAULT_TRAIN_WORKLOADS,
        kind="ridge",
        sample=300,
        seed=0,
        noise=NO_NOISE,
    )
    train_s = time.perf_counter() - t0
    print(
        f"surrogate: trained {model.kind} on "
        f"{', '.join(DEFAULT_TRAIN_MACHINES)} x "
        f"{', '.join(DEFAULT_TRAIN_WORKLOADS)} "
        f"({model.meta['n_samples']} samples, R^2 {model.train_r2:.3f}, "
        f"{train_s:.1f} s)"
    )
    record = {
        "model": {
            "kind": model.kind,
            "train_r2": model.train_r2,
            "machines": list(DEFAULT_TRAIN_MACHINES),
            "workloads": list(DEFAULT_TRAIN_WORKLOADS),
            "n_samples": model.meta["n_samples"],
            "train_seconds": train_s,
        },
        "max_regret_target": SURROGATE_MAX_REGRET,
        "sections": {},
    }
    sections = SURROGATE_SECTIONS[:1] if quick else SURROGATE_SECTIONS
    ok = True
    for section in sections:
        spec = machines.get(section["machine"])
        topology = spec.topology
        md = generate_machine_description(spec, noise=NO_NOISE)
        generator = WorkloadDescriptionGenerator(spec, md, noise=NO_NOISE)
        if section["sample"] is not None:
            space = sample_canonical(
                topology, section["sample"], seed=section["seed"]
            )
        else:
            space = enumerate_canonical(topology)
        print(
            f"surrogate session: {section['machine']}, {len(space)} "
            f"placements, workloads {', '.join(SURROGATE_WORKLOADS)}"
        )
        section_rec = {
            "placements": len(space),
            "min_speedup": section["min_speedup"],
            "workloads": {},
        }
        exact_total = surro_total = 0.0
        worst_regret = 0.0
        for name in SURROGATE_WORKLOADS:
            workload = generator.generate(catalog.get(name))

            with SearchEngine(PandiaPredictor(md)) as engine:
                exact_s, exact = _timed_r(
                    engine.search, workload, _FixedSpaceStrategy(space)
                )
            strategy = SurrogateStrategy(model=model, space=space)
            with SearchEngine(PandiaPredictor(md)) as engine:
                surro_s, surro = _timed_r(engine.search, workload, strategy)
                if strategy.fallback_reason is not None:
                    print(
                        f"ERROR: {name}: surrogate fell back "
                        f"({strategy.fallback_reason})"
                    )
                    return None
                regret = (
                    surro.best_prediction.predicted_time_s
                    / exact.best_prediction.predicted_time_s
                    - 1.0
                )
                engine.stats.note_surrogate_regret(regret)
                stats = engine.stats.snapshot()
            worst_regret = max(worst_regret, regret)
            exact_total += exact_s
            surro_total += surro_s
            section_rec["workloads"][name] = {
                "exact_seconds": exact_s,
                "surrogate_seconds": surro_s,
                "regret": regret,
                "scored": stats.surrogate_scored,
                "verified": stats.surrogate_verified,
            }
            print(
                f"  {name:6s} exact {exact_s * 1e3:8.1f} ms   "
                f"surrogate {surro_s * 1e3:8.1f} ms   "
                f"({stats.surrogate_verified}/{stats.surrogate_scored} "
                f"verified, regret {regret:.3%})"
            )
        speedup = exact_total / surro_total
        section_rec["exact_seconds"] = exact_total
        section_rec["surrogate_seconds"] = surro_total
        section_rec["speedup"] = speedup
        section_rec["max_regret"] = worst_regret
        record["sections"][section["machine"]] = section_rec
        print(
            f"  total exact {exact_total:.2f} s, surrogate "
            f"{surro_total:.2f} s: speedup {speedup:.1f}x "
            f"(target {section['min_speedup']:.0f}x), worst regret "
            f"{worst_regret:.3%} (cap {SURROGATE_MAX_REGRET:.0%})"
        )
        if worst_regret > SURROGATE_MAX_REGRET:
            print(
                f"ERROR: {section['machine']}: regret {worst_regret:.3%} "
                f"above the {SURROGATE_MAX_REGRET:.0%} cap"
            )
            ok = False
        if speedup < section["min_speedup"]:
            print(
                f"ERROR: {section['machine']}: speedup {speedup:.1f}x "
                f"below the {section['min_speedup']:.0f}x target"
            )
            ok = False
    return record if ok else None


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _timed_r(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: TESTBOX, one workload, one repeat")
    parser.add_argument("--machine", default=None,
                        help="override the benchmark machine")
    parser.add_argument("--repeats", type=int, default=None,
                        help="sessions per configuration (best-of)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="collect repro.obs spans during the engine "
                             "sessions and write a Chrome trace to FILE "
                             "(adds tracing overhead to reported timings)")
    parser.add_argument("--warm-only", action="store_true",
                        help="run only the warm-start session benchmark")
    parser.add_argument("--surrogate", action="store_true",
                        help="run only the surrogate-guided search benchmark "
                             "(with --quick: the X2-4 smoke section alone)")
    parser.add_argument("--assert-warm-savings", action="store_true",
                        help="fail unless the warm-start session saves "
                             f">= {WARM_SAVINGS_TARGET * 100:.0f}%% of the cold "
                             "session's fixed-point iterations")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the warm-session measurement record "
                             "to FILE")
    args = parser.parse_args(argv)

    if args.trace_out:
        from repro import obs

        obs.enable()

    if args.surrogate:
        record = surrogate_run(quick=args.quick)
        if record is None:
            return 1
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(record, fh, indent=2)
            print(f"wrote surrogate measurement record to {args.json}")
        return 0

    if args.quick:
        machine = args.machine or "TESTBOX"
        workloads, repeats = ("MD",), args.repeats or 1
    else:
        machine = args.machine or "X2-4"  # largest: 4 sockets, 80 hw threads
        workloads, repeats = ("MD", "CG", "Swim"), args.repeats or 3

    worst = None
    if not args.warm_only:
        worst = run(machine, workloads, repeats)
        if worst < 0:
            return 1

    warm_record = None
    if args.warm_only or args.assert_warm_savings or not args.quick:
        warm_record = warm_run()
        if warm_record is None:
            return 1
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(warm_record, fh, indent=2)
            print(f"wrote warm-session record to {args.json}")
        if args.assert_warm_savings:
            saving = warm_record["saving"]
            if saving < WARM_SAVINGS_TARGET:
                print(
                    f"ERROR: warm-start saving {saving:.1%} below the "
                    f"{WARM_SAVINGS_TARGET:.0%} target"
                )
                return 1
            print(
                f"warm-start saving {saving:.1%} meets the "
                f"{WARM_SAVINGS_TARGET:.0%} target"
            )
    if worst is None:
        return 0
    if args.trace_out:
        from repro import obs
        from repro.obs.export import validate_chrome_trace_file, write_chrome_trace

        spans = obs.tracer().spans()
        write_chrome_trace(args.trace_out, spans)
        counts = validate_chrome_trace_file(args.trace_out)
        print(
            f"wrote {counts['spans']} spans "
            f"({counts['events']} events, {counts['tracks']} tracks) "
            f"to {args.trace_out}"
        )
    print(f"worst-case session speedup: {worst:.2f}x")
    if not args.quick and worst < 3.0:
        print("WARNING: speedup below the 3x target (loaded host?)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
