"""The golden oracles for the simulator (``tests/properties/test_sim_oracle.py``).

**The inner contention solve.**  ``_solve_rates`` is the dense solver
that ``repro.sim.engine._solve_rates`` replaced, kept verbatim: every
iteration multiplies the full threads x resources coefficient matrix
and runs a NumPy max-min water-fill per saturated resource.  The sparse
solver in ``src`` must return the same rates bit for bit, and
``simulate`` must return the same results with this oracle swapped in.
The oracle returns the rates alone; the engine's solver also reports
its inner iteration count.

**The whole simulation.**  ``simulate`` is the engine's ``simulate``
from before its outer loop skipped re-solves that cannot change, kept
verbatim with its helpers ``_job_timing`` and ``_collect_results``:
every outer pass re-solves the rates and re-times every foreground
job, and each job's threads are a list of positions.
``ReferenceDemandModel`` builds its threads with the per-thread
``_build_threads`` of the same version, which recomputes every
per-socket fact for every thread.  Two edits: ``simulate`` builds a
``ReferenceDemandModel`` and calls the solver as
``engine._solve_rates`` (the sparse solver, pinned to ``_solve_rates``
here).  The engine's ``simulate`` must return an equal ``SimResult``
under ``==``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.hardware.spec import MachineSpec
from repro.sim import engine
from repro.sim.demand import DemandModel, JobSpecOnMachine, ThreadInfo, memory_shares
from repro.sim.engine import Job, JobResult, SimOptions, SimResult, _JobTiming
from repro.sim.counters import CounterSet
from repro.workloads.spec import WorkloadSpec


def _water_fill(wants: np.ndarray, capacity: float) -> np.ndarray:
    """Max-min fair allocation of *capacity* among traffic *wants*.

    Users wanting less than their fair share receive their want in
    full; the remainder is split evenly among the heavier users.  This
    is how real memory controllers and links behave: a trickle of
    requests into a saturated resource is served nearly unharmed.

    Closed form: with wants sorted ascending, the fully-served users
    form a prefix; everyone else gets the water level
    ``(capacity - sum(prefix)) / #rest``.
    """
    order = np.argsort(wants)
    w = wants[order]
    n = w.size
    prefix = np.concatenate(([0.0], np.cumsum(w[:-1])))
    levels = (capacity - prefix) / (n - np.arange(n))
    below = w <= levels
    if below.all():
        return wants.copy()  # capacity covers every want
    first_heavy = int(np.argmin(below))
    level = levels[first_heavy]
    grants_sorted = np.minimum(w, level)
    grants = np.empty_like(wants)
    grants[order] = grants_sorted
    return grants


def _solve_rates(model: DemandModel, utilisation: np.ndarray, opts: SimOptions) -> np.ndarray:
    """Inner fixed point: instantaneous per-thread rates (Ginstr/s).

    Each saturated resource distributes its capacity max-min fairly
    over its users' current traffic wants; a thread's rate is its
    standalone limit capped by the tightest grant among its resources.
    Geometric damping drives the recursion to a stable allocation.
    """
    limits = model.limits
    if limits.size == 0:
        return limits.copy()
    if np.any(limits <= 0):
        raise SimulationError("thread with non-positive standalone rate limit")
    caps = model.capacities
    coeffs = model.coeffs
    rate = limits.copy()
    for _ in range(opts.inner_max_iters):
        scaled = np.maximum(utilisation, 1e-9)
        traffic = (scaled * rate)[:, np.newaxis] * coeffs
        loads = traffic.sum(axis=0)
        bounds = np.full_like(rate, np.inf)
        for r in np.nonzero(loads > caps * (1.0 + 1e-9))[0]:
            users = np.nonzero(coeffs[:, r] > 0)[0]
            grants = _water_fill(traffic[users, r], caps[r])
            user_bounds = grants / (scaled[users] * coeffs[users, r])
            np.minimum.at(bounds, users, user_bounds)
        target = np.minimum(limits, np.maximum(bounds, 1e-12))
        new_rate = np.sqrt(rate * target)
        change = np.max(np.abs(new_rate - rate) / np.maximum(rate, 1e-12))
        rate = new_rate
        if change < opts.inner_tolerance:
            break
    return rate


class ReferenceDemandModel(DemandModel):
    """``DemandModel`` with the per-thread thread builder."""

    def _build_threads(self) -> List[ThreadInfo]:
        topo = self.machine.topology
        spill = self._llc_spill_by_socket()
        threads: List[ThreadInfo] = []
        active_sets = self._active_tid_sets()
        core_occupancy: Dict[int, int] = {}
        for tids in active_sets:
            for tid in tids:
                core_id = topo.hw_thread(tid).core_id
                core_occupancy[core_id] = core_occupancy.get(core_id, 0) + 1
        for j, (job, tids) in enumerate(zip(self.jobs, active_sets)):
            spec = job.spec
            sockets = [topo.socket_of_thread(t) for t in tids]
            # A thread's DRAM shares depend only on its socket.
            shares_by_socket: Dict[int, Dict[int, float]] = {}
            for i, tid in enumerate(tids):
                hw = topo.hw_thread(tid)
                freq = self.frequencies[hw.socket_id]
                remote_peers = len(sockets) - sockets.count(hw.socket_id)
                stretch = 1.0 + spec.comm_fraction * remote_peers
                # Spilled LLC lines still traverse the L3 link (they are
                # misses fetched through the cache); the spill only adds
                # DRAM traffic.
                phi = spill.get(hw.socket_id, 0.0)
                dram_eff = spec.dram_bpi + spec.l3_bpi * phi
                shares = shares_by_socket.get(hw.socket_id)
                if shares is None:
                    shares = shares_by_socket[hw.socket_id] = memory_shares(
                        spec, topo, job.hw_thread_ids, hw.socket_id
                    )
                dram_per_node = {n: dram_eff * sh for n, sh in shares.items()}
                link_traffic: Dict[Tuple[int, int], float] = {}
                for node, traffic in dram_per_node.items():
                    if node != hw.socket_id and traffic > 0:
                        key = topo.link_between(hw.socket_id, node)
                        link_traffic[key] = link_traffic.get(key, 0.0) + traffic
                if spec.io_bpi > 0 and self.machine.nic_gbs <= 0:
                    raise SimulationError(
                        f"{spec.name} performs I/O but {self.machine.name} "
                        f"models no off-machine link (nic_gbs=0)"
                    )
                cache_traffic = {"L1": spec.l1_bpi, "L2": spec.l2_bpi, "L3": spec.l3_bpi}
                limit = self._solo_limit(spec, freq, cache_traffic, dram_per_node)
                # Sharing a core costs each thread some standalone speed
                # (front-end arbitration), beyond the aggregate limit.
                if core_occupancy[hw.core_id] > 1:
                    limit /= 1.0 + self.machine.smt_per_thread_slowdown
                limit /= stretch
                if limit <= 0:
                    raise SimulationError(
                        f"job {j} ({spec.name}) thread {i} on hw thread {tid} "
                        f"of {self.machine.name}: non-positive standalone "
                        f"rate limit {limit}"
                    )
                threads.append(
                    ThreadInfo(
                        job_index=j,
                        local_index=i,
                        hw_thread_id=tid,
                        core_id=hw.core_id,
                        socket_id=hw.socket_id,
                        limit=limit,
                        comm_stretch=stretch,
                        duty=spec.burst_duty,
                        cache_traffic=cache_traffic,
                        dram_traffic_per_node=dram_per_node,
                        link_traffic=link_traffic,
                        io_traffic=spec.io_bpi,
                    )
                )
        return threads


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
            model = ReferenceDemandModel(
                machine,
                [JobSpecOnMachine(j.spec, j.hw_thread_ids) for j in jobs],
                turbo_enabled=opts.turbo_enabled,
            )

        # Positions of each job's active threads within the model arrays.
        positions: List[List[int]] = [[] for _ in jobs]
        for pos, tinfo in enumerate(model.threads):
            positions[tinfo.job_index].append(pos)

        n = model.n_threads
        utilisation = np.ones(n)
        rates, inner_iters = engine._solve_rates(model, utilisation, opts)
        timings: Dict[int, _JobTiming] = {}
        outer_iters = 1

        foreground_jobs = [j for j, job in enumerate(jobs) if not job.background]
        if foreground_jobs:
            with obs.span("sim.fixed_point", threads=n) as fp_span:
                for outer_iters in range(1, opts.outer_max_iters + 1):
                    # The first pass runs at utilisation 1: the rates
                    # solved above.
                    if outer_iters > 1:
                        rates, iters = engine._solve_rates(model, utilisation, opts)
                        inner_iters += iters
                    new_util = utilisation.copy()
                    for j in foreground_jobs:
                        pos = positions[j]
                        timing = _job_timing(jobs[j].spec, rates[pos])
                        timings[j] = timing
                        new_util[pos] = timing.utilisation
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
            job_results = _collect_results(
                machine, jobs, model, positions, rates, utilisation, timings, opts
            )
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
    positions: List[List[int]],
    rates: np.ndarray,
    utilisation: np.ndarray,
    timings: Dict[int, _JobTiming],
    opts: SimOptions,
) -> List[JobResult]:
    results: List[JobResult] = []
    for j, job in enumerate(jobs):
        pos = positions[j]
        infos = [model.threads[p] for p in pos]
        job_rates = rates[pos] if pos else np.zeros(0)

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
