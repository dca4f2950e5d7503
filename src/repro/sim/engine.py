"""Ground-truth execution engine.

``simulate`` runs a set of jobs (pinned workloads and/or background
stressors) to completion on a machine model and reports, per job, the
elapsed time, the per-thread execution rates and a simulated
performance-counter readout.

The engine resolves contention with two nested fixed points:

* **inner** — per-thread instantaneous rates: each thread runs at its
  standalone limit divided by the largest oversubscription among the
  resources it touches, with loads weighted by thread utilisation.
  Geometric damping drives this to a stable allocation in which every
  saturated resource sits at its capacity.
* **outer** — thread utilisation: a thread that is idle part of the
  time (sequential sections, straggler waits) imposes proportionally
  less load (paper Section 2.3, "Thread utilization").  Utilisation is
  recomputed from the predicted timing until stable.

Job completion time combines the per-thread rates through the
load-balancing interpolation of the paper's workload model: static
distribution is gated by the slowest thread, dynamic balancing by the
aggregate throughput, with the true ``load_balance`` factor
interpolating linearly between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.hardware.spec import MachineSpec
from repro.sim.counters import CounterSet
from repro.sim.demand import DemandModel, JobSpecOnMachine, ResourceKey
from repro.sim.noise import NoiseModel
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class Job:
    """A workload spec pinned to hardware threads for one run."""

    spec: WorkloadSpec
    hw_thread_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hw_thread_ids", tuple(self.hw_thread_ids))

    @property
    def n_threads(self) -> int:
        return len(self.hw_thread_ids)

    @property
    def background(self) -> bool:
        return self.spec.background


@dataclass(frozen=True)
class SimOptions:
    """Knobs for one simulation."""

    turbo_enabled: bool = True
    noise: NoiseModel = field(default_factory=NoiseModel)
    measurement_window_s: float = 1.0
    inner_max_iters: int = 200
    inner_tolerance: float = 1e-6
    outer_max_iters: int = 40
    outer_tolerance: float = 1e-5
    run_tag: str = ""


@dataclass
class JobResult:
    """Outcome of one job in a simulation."""

    job: Job
    elapsed_s: float
    thread_rates: Tuple[float, ...]
    counters: CounterSet

    @property
    def completed(self) -> bool:
        return not self.job.background


@dataclass
class SimResult:
    """Outcome of one simulation of co-running jobs."""

    machine_name: str
    job_results: List[JobResult]
    frequencies_ghz: Dict[int, float]
    resource_loads: Dict[ResourceKey, float]
    resource_capacities: Dict[ResourceKey, float]
    outer_iterations: int

    def result_for(self, job: Job) -> JobResult:
        for jr in self.job_results:
            if jr.job is job:
                return jr
        raise SimulationError(
            f"{job.spec.name} on hw threads {list(job.hw_thread_ids)} was not "
            f"part of this simulation on {self.machine_name}"
        )

    @property
    def foreground(self) -> JobResult:
        """The single foreground job's result (raises if not exactly one)."""
        fg = [jr for jr in self.job_results if not jr.job.background]
        if len(fg) != 1:
            raise SimulationError(f"expected one foreground job, found {len(fg)}")
        return fg[0]


@dataclass
class _JobTiming:
    elapsed_s: float
    work_per_thread: np.ndarray
    utilisation: np.ndarray


def _water_level(wants: List[float], capacity: float) -> Optional[float]:
    """Max-min fair share of *capacity* among traffic *wants*.

    Users wanting less than their fair share receive their want in
    full; the remainder is split evenly among the heavier users.  This
    is how real memory controllers and links behave: a trickle of
    requests into a saturated resource is served nearly unharmed.

    Returns the water level every heavy user is granted, or ``None``
    when capacity covers every want.  One scan of the sorted wants:
    the fully-served users form a prefix, and the level is
    ``(capacity - sum(prefix)) / #rest`` at the first user whose want
    exceeds it.
    """
    n = len(wants)
    served = 0.0
    for k, want in enumerate(sorted(wants)):
        level = (capacity - served) / (n - k)
        if not want <= level:
            return level
        served += want
    return None


def _solve_rates(
    model: DemandModel, utilisation: np.ndarray, opts: SimOptions
) -> Tuple[np.ndarray, int]:
    """Inner fixed point: instantaneous per-thread rates (Ginstr/s).

    Each saturated resource distributes its capacity max-min fairly
    over its users' current traffic wants; a thread's rate is its
    standalone limit capped by the tightest grant among its resources.
    Geometric damping drives the recursion to a stable allocation.

    Works on the model's non-zero (thread, resource, coefficient)
    triples; each resource's load sums its users in thread order.
    Returns the rates and the number of inner iterations run.
    """
    limits = model.limits
    rate = limits.copy()
    if limits.size == 0:
        return rate, 0
    threads, resources, coeffs = model.pair_thread, model.pair_resource, model.pair_coeff
    saturation, resource_pairs = model.saturation, model.resource_pairs
    thread_of, capacities = model.pair_thread_list, model.capacity_list
    scaled = np.maximum(utilisation, 1e-9)
    # A grant's bound divides by its user's scaled coefficient, fixed
    # for the whole solve.
    denominators = (scaled[threads] * coeffs).tolist()
    iterations = 0
    for iterations in range(1, opts.inner_max_iters + 1):
        traffic = (scaled * rate)[threads] * coeffs
        loads = np.bincount(resources, traffic, len(capacities))
        saturated = (loads > saturation).nonzero()[0].tolist()
        if saturated:
            wants = traffic.tolist()
            bounds = [np.inf] * rate.size
            for r in saturated:
                pairs = resource_pairs[r]
                level = _water_level([wants[p] for p in pairs], capacities[r])
                for p in pairs:
                    grant = wants[p] if level is None else min(wants[p], level)
                    bound = grant / denominators[p]
                    if bound < bounds[thread_of[p]]:
                        bounds[thread_of[p]] = bound
            target = np.minimum(limits, np.maximum(bounds, 1e-12))
        else:
            target = limits
        new_rate = np.sqrt(rate * target)
        change = (np.abs(new_rate - rate) / np.maximum(rate, 1e-12)).max()
        rate = new_rate
        if change < opts.inner_tolerance:
            break
    return rate, iterations


def _job_timing(spec: WorkloadSpec, rates: np.ndarray) -> _JobTiming:
    """Completion time and per-thread work for one foreground job."""
    k = rates.size
    if k == 0:
        raise SimulationError(f"{spec.name}: no active threads")
    if np.any(rates <= 0):
        raise SimulationError(f"{spec.name}: thread stalled at zero rate")
    total_work = spec.total_work_ginstr(k)
    p = spec.parallel_fraction
    l = spec.load_balance
    w_seq = (1.0 - p) * total_work
    w_par = p * total_work

    sum_rate = float(np.sum(rates))
    min_rate = float(np.min(rates))
    t_par_lock = (w_par / k) / min_rate if w_par > 0 else 0.0
    t_par_bal = w_par / sum_rate if w_par > 0 else 0.0
    t_par = (1.0 - l) * t_par_lock + l * t_par_bal
    # Barrier-round quantisation for coarse-grained loops (Section 6.4):
    # thread counts that do not divide the chunk count waste slots.
    t_par *= spec.grain_waste(k)
    inv_rates = 1.0 / rates
    t_seq = (w_seq / k) * float(np.sum(inv_rates)) if w_seq > 0 else 0.0
    elapsed = t_seq + t_par

    w_par_lock = np.full(k, w_par / k)
    w_par_bal = w_par * rates / sum_rate if w_par > 0 else np.zeros(k)
    work_per_thread = (1.0 - l) * w_par_lock + l * w_par_bal + w_seq / k

    busy = work_per_thread / rates
    if elapsed <= 0:
        raise SimulationError(f"{spec.name}: degenerate zero elapsed time")
    utilisation = np.clip(busy / elapsed, 1e-6, 1.0)
    return _JobTiming(elapsed_s=elapsed, work_per_thread=work_per_thread, utilisation=utilisation)


def simulate(
    machine: MachineSpec,
    jobs: Sequence[Job],
    options: Optional[SimOptions] = None,
) -> SimResult:
    """Run *jobs* together on *machine* and report per-job outcomes.

    Background jobs (stressors) run for the whole duration and are
    reported over ``options.measurement_window_s``; foreground jobs run
    a fixed amount of work to completion.
    """
    opts = options or SimOptions()
    if not jobs:
        raise SimulationError(f"simulate() on {machine.name} needs at least one job")
    with obs.span(
        "sim.simulate", machine=machine.name, jobs=len(jobs)
    ) as sim_span:
        if sim_span is not None:
            obs.metrics().counter("sim.simulations").inc()
        with obs.span("sim.demand_model"):
            model = DemandModel(
                machine,
                [JobSpecOnMachine(j.spec, j.hw_thread_ids) for j in jobs],
                turbo_enabled=opts.turbo_enabled,
            )

        n = model.n_threads
        utilisation = np.ones(n)
        rates, inner_iters = _solve_rates(model, utilisation, opts)
        timings: Dict[int, _JobTiming] = {}
        outer_iters = 1

        foreground_jobs = [j for j, job in enumerate(jobs) if not job.background]
        if foreground_jobs:
            with obs.span("sim.fixed_point", threads=n) as fp_span:
                for outer_iters in range(1, opts.outer_max_iters + 1):
                    # The first pass runs at utilisation 1: the rates
                    # solved above.  A later pass re-solves and re-times
                    # only if a resource saturates at utilisation 1;
                    # otherwise it would get the same rates and timings
                    # (docs/substrate.md), so it keeps the first pass's.
                    if outer_iters == 1 or model.saturates:
                        if outer_iters > 1:
                            rates, iters = _solve_rates(model, utilisation, opts)
                            inner_iters += iters
                        new_util = utilisation.copy()
                        for j in foreground_jobs:
                            threads = model.job_threads[j]
                            timing = _job_timing(jobs[j].spec, rates[threads])
                            timings[j] = timing
                            new_util[threads] = timing.utilisation
                    change = float(np.max(np.abs(new_util - utilisation)))
                    utilisation = 0.5 * (utilisation + new_util)
                    if change < opts.outer_tolerance:
                        break
                if fp_span is not None:
                    fp_span.attrs["outer_iterations"] = outer_iters
                    fp_span.attrs["inner_iterations"] = inner_iters
                    obs.metrics().histogram("sim.outer_iterations").observe(
                        outer_iters
                    )

        with obs.span("sim.collect"):
            job_results = _collect_results(machine, jobs, model, rates, timings, opts)
        if sim_span is not None:
            sim_span.attrs["outer_iterations"] = outer_iters
            obs.metrics().histogram("sim.inner_iterations").observe(inner_iters)

    loads = (utilisation * rates) @ model.coeffs if n else np.zeros(0)
    keys = model.resource_keys()
    return SimResult(
        machine_name=machine.name,
        job_results=job_results,
        frequencies_ghz=dict(model.frequencies),
        resource_loads={k: float(loads[i]) for i, k in enumerate(keys)},
        resource_capacities={k: float(model.capacities[i]) for i, k in enumerate(keys)},
        outer_iterations=outer_iters,
    )


def _collect_results(
    machine: MachineSpec,
    jobs: Sequence[Job],
    model: DemandModel,
    rates: np.ndarray,
    timings: Dict[int, _JobTiming],
    opts: SimOptions,
) -> List[JobResult]:
    results: List[JobResult] = []
    for j, job in enumerate(jobs):
        threads = model.job_threads[j]
        infos = model.threads[threads]
        job_rates = rates[threads]

        if job.background:
            window = opts.measurement_window_s
            noise = opts.noise.factor(
                machine.name, job.spec.name, job.hw_thread_ids, opts.run_tag, "bg"
            )
            # Counter readings over the window carry measurement noise.
            work = job_rates * window * noise
            elapsed = window
        else:
            timing = timings[j]
            work = timing.work_per_thread
            noise = opts.noise.factor(
                machine.name, job.spec.name, job.hw_thread_ids, opts.run_tag
            )
            elapsed = timing.elapsed_s * noise

        counters = CounterSet(elapsed_s=elapsed, instructions_g=float(np.sum(work)))
        for w, info in zip(work, infos):
            for level, bpi in info.cache_traffic.items():
                if bpi > 0:
                    counters.cache_gb[level] = counters.cache_gb.get(level, 0.0) + w * bpi
            for node, bpi in info.dram_traffic_per_node.items():
                if bpi > 0:
                    counters.dram_gb_per_node[node] = (
                        counters.dram_gb_per_node.get(node, 0.0) + w * bpi
                    )
            for link, bpi in info.link_traffic.items():
                if bpi > 0:
                    counters.link_gb[link] = counters.link_gb.get(link, 0.0) + w * bpi
            if info.io_traffic > 0:
                counters.nic_gb += w * info.io_traffic

        # Report a rate for every software thread; idle ones show 0.
        full_rates = [0.0] * job.n_threads
        for info, r in zip(infos, job_rates):
            full_rates[info.local_index] = float(r)
        results.append(
            JobResult(
                job=job,
                elapsed_s=float(elapsed),
                thread_rates=tuple(full_rates),
                counters=counters,
            )
        )
    return results
