"""The golden oracle for the fixed-point kernel.

Figure 8's fixed point for a co-schedule, written as plain Python loops
over per-thread resource rows — one (resource key, demand) pair per
resource a thread touches.  It is the reference the NumPy kernel
(``PandiaPredictor._solve``, behind ``predict``, ``predict_batch`` and
``CoSchedulePredictor``) must match within 1e-12, with identical
iteration counts and convergence flags; a solo prediction is the
one-job co-schedule.

One known difference: a thread's DRAM row lists every node of its job's
active sockets, so with ``numa_local_fraction == 1`` the oracle counts
zero-traffic remote nodes and links as touched.  The kernel, like the
paper, counts only resources a thread sends demand to
(``tests/properties/test_joint_kernel.py`` pins both sides).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.amdahl import amdahl_speedup
from repro.core.coscheduling import (
    CoSchedulePrediction,
    CoScheduledWorkload,
    WorkloadOutcome,
)
from repro.core.description import WorkloadDescription
from repro.core.machine_desc import MachineDescription
from repro.core.placement import Placement
from repro.core.predictor import (
    CONTRACTION_CAP,
    DAMPEN_AFTER,
    ROUNDING_FLOOR,
    Prediction,
    ResourceKey,
)
from repro.errors import PlacementError, PredictionError
from repro.numa import dram_shares

#: Kernel-vs-oracle tolerance on times, speedups, slowdowns and
#: utilisations; resource loads are compared at 1e-9.
TOLERANCE = 1e-12


class _JointThread:
    """Static per-thread state across the joint iteration."""

    __slots__ = ("job", "socket", "shared_core", "row")

    def __init__(self, job: int, socket: int, shared_core: bool, row: list) -> None:
        self.job = job
        self.socket = socket
        self.shared_core = shared_core
        self.row = row  # [(resource_key, demand_per_unit_utilisation)]


def _build_joint_threads(
    md: MachineDescription, jobs: Sequence[CoScheduledWorkload]
) -> Tuple[List[_JointThread], Dict[ResourceKey, float]]:
    topo = md.topology
    used: Dict[int, Tuple[int, int]] = {}
    per_core: Dict[int, int] = {}
    for j, job in enumerate(jobs):
        if job.placement.topology.shape() != topo.shape():
            raise PlacementError(
                f"workload {job.description.name} placed on a different machine shape"
            )
        for i, tid in enumerate(job.placement.hw_thread_ids):
            if tid in used:
                other = used[tid]
                raise PlacementError(
                    f"hardware thread {tid} claimed by workloads "
                    f"{jobs[other[0]].description.name} and {job.description.name}"
                )
            used[tid] = (j, i)
            core = topo.hw_thread(tid).core_id
            per_core[core] = per_core.get(core, 0) + 1

    capacities: Dict[ResourceKey, float] = {}
    threads: List[_JointThread] = []
    for j, job in enumerate(jobs):
        demands = job.description.demands
        active = job.placement.active_sockets()
        for tid in job.placement.hw_thread_ids:
            hw = topo.hw_thread(tid)
            row: list = []
            core_key: ResourceKey = ("core", hw.core_id)
            capacities[core_key] = md.core_capacity(per_core[hw.core_id])
            row.append((core_key, demands.inst_rate))
            for level, bw in demands.cache_bw.items():
                if bw <= 0 or level not in md.cache_link_bw:
                    continue
                link_key: ResourceKey = ("cache_link", (level, hw.core_id))
                capacities[link_key] = md.cache_link_bw[level]
                row.append((link_key, bw))
                agg = md.cache_agg_bw.get(level)
                if agg:
                    agg_key: ResourceKey = ("cache_agg", (level, hw.socket_id))
                    capacities[agg_key] = agg
                    row.append((agg_key, bw))
            if demands.dram_bw > 0:
                shares = dram_shares(
                    demands.numa_local_fraction, hw.socket_id, active
                )
                for node, share in shares.items():
                    traffic = demands.dram_bw * share
                    node_key: ResourceKey = ("dram", node)
                    capacities[node_key] = md.dram_bw_per_node
                    row.append((node_key, traffic))
                    if node != hw.socket_id:
                        link_key = ("link", topo.link_between(hw.socket_id, node))
                        capacities[link_key] = md.interconnect_bw
                        row.append((link_key, traffic))
            if demands.io_bw > 0 and md.nic_bw > 0:
                nic_key: ResourceKey = ("nic", 0)
                capacities[nic_key] = md.nic_bw
                row.append((nic_key, demands.io_bw))
            threads.append(
                _JointThread(
                    job=j,
                    socket=hw.socket_id,
                    shared_core=per_core[hw.core_id] > 1,
                    row=row,
                )
            )
    return threads, capacities


class ReferenceCoSchedulePredictor:
    """The joint fixed point as plain Python loops: the golden oracle."""

    def __init__(
        self,
        machine_description: MachineDescription,
        max_iterations: int = 500,
        tolerance: float = 1e-6,
    ) -> None:
        self.md = machine_description
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    def predict(self, jobs: Sequence[CoScheduledWorkload]) -> CoSchedulePrediction:
        if not jobs:
            raise PredictionError("no workloads to co-schedule")
        threads, capacities = _build_joint_threads(self.md, jobs)
        n_total = len(threads)
        job_threads: List[List[int]] = [[] for _ in jobs]
        for pos, t in enumerate(threads):
            job_threads[t.job].append(pos)

        amdahls = [
            amdahl_speedup(job.description.parallel_fraction, job.placement.n_threads)
            for job in jobs
        ]
        f_initial = [
            amdahls[j] / jobs[j].placement.n_threads for j in range(len(jobs))
        ]
        f_start = [f_initial[t.job] for t in threads]

        prev: Optional[List[float]] = None
        last_delta = math.inf
        cap: Optional[float] = None
        converged = False
        iterations = 0
        overall: List[float] = [1.0] * n_total

        for iteration in range(1, self.max_iterations + 1):
            iterations = iteration
            resource_s = self._resource_slowdowns(threads, capacities, f_start, jobs)
            overall = list(resource_s)
            f_cur = [f_initial[t.job] / s for t, s in zip(threads, overall)]

            # Intra-workload communication penalties.
            for j, job in enumerate(jobs):
                os_ = job.description.inter_socket_overhead
                if os_ <= 0 or len(job_threads[j]) < 2:
                    continue
                positions = job_threads[j]
                n_j = len(positions)
                work = [1.0 / overall[p] for p in positions]
                total = sum(work)
                weights = [w / total for w in work]
                l = job.description.load_balance
                for a, pos in enumerate(positions):
                    lock = sum(
                        os_
                        for b, q in enumerate(positions)
                        if b != a and threads[q].socket != threads[pos].socket
                    )
                    indep = n_j * sum(
                        weights[b] * os_
                        for b, q in enumerate(positions)
                        if b != a and threads[q].socket != threads[pos].socket
                    )
                    comm = l * indep + (1.0 - l) * lock
                    overall[pos] += comm * f_cur[pos]
                f_cur = [f_initial[t.job] / s for t, s in zip(threads, overall)]

            # Intra-workload load-balance penalties.
            for j, job in enumerate(jobs):
                positions = job_threads[j]
                l = job.description.load_balance
                worst = max(overall[p] for p in positions)
                for pos in positions:
                    overall[pos] = l * overall[pos] + (1.0 - l) * worst

            if cap is None:
                cap = max(overall)
                quiet = max(
                    self.tolerance * (1.0 - CONTRACTION_CAP) / CONTRACTION_CAP,
                    ROUNDING_FLOOR * cap,
                )
            overall = [min(max(s, 1.0), cap) for s in overall]

            if prev is not None:
                delta = max(abs(a - b) for a, b in zip(overall, prev))
                # Converged when the last step is below the tolerance and
                # so is the distance a geometric tail at the observed
                # rate still has to go, or the step is below `quiet`.
                if delta < self.tolerance and (
                    delta * delta < self.tolerance * (last_delta - delta)
                    or delta < quiet
                ):
                    converged = True
                    break
                last_delta = delta
            prev = list(overall)

            ratios = [
                min(r / s, 1.0) for r, s in zip(resource_s, overall)
            ]
            f_next = [
                f_initial[t.job] * ratio for t, ratio in zip(threads, ratios)
            ]
            if iteration > DAMPEN_AFTER:
                f_next = [0.5 * (a + b) for a, b in zip(f_start, f_next)]
            f_start = f_next

        outcomes = []
        for j, job in enumerate(jobs):
            slowdowns = tuple(overall[p] for p in job_threads[j])
            mean_inverse = sum(1.0 / s for s in slowdowns) / len(slowdowns)
            speedup = amdahls[j] * mean_inverse
            outcomes.append(
                WorkloadOutcome(
                    workload_name=job.description.name,
                    amdahl=amdahls[j],
                    speedup=speedup,
                    predicted_time_s=job.description.t1 / speedup,
                    slowdowns=slowdowns,
                )
            )

        final_f = [f_initial[t.job] / s for t, s in zip(threads, overall)]
        loads: Dict[ResourceKey, float] = {key: 0.0 for key in capacities}
        for t, f in zip(threads, final_f):
            for key, demand in t.row:
                loads[key] += demand * f
        return CoSchedulePrediction(
            outcomes=outcomes,
            iterations=iterations,
            converged=converged,
            resource_loads=loads,
            resource_capacities=capacities,
        )

    def _resource_slowdowns(
        self,
        threads: Sequence[_JointThread],
        capacities: Dict[ResourceKey, float],
        f_start: Sequence[float],
        jobs: Sequence[CoScheduledWorkload],
    ) -> List[float]:
        loads: Dict[ResourceKey, float] = {key: 0.0 for key in capacities}
        for t, f in zip(threads, f_start):
            for key, demand in t.row:
                loads[key] += demand * f
        out: List[float] = []
        for t, f in zip(threads, f_start):
            worst = 1.0
            for key, _ in t.row:
                ratio = loads[key] / capacities[key]
                if ratio > worst:
                    worst = ratio
            b = jobs[t.job].description.burstiness
            if t.shared_core and b > 0:
                worst *= 1.0 + b * f
            out.append(worst)
        return out


def reference_predict(
    md: MachineDescription,
    workload: WorkloadDescription,
    placement: Placement,
    max_iterations: int = 500,
    tolerance: float = 1e-6,
) -> CoSchedulePrediction:
    """The oracle's solo prediction: the one-job co-schedule."""
    return ReferenceCoSchedulePredictor(md, max_iterations, tolerance).predict(
        [CoScheduledWorkload(workload, placement)]
    )


def assert_matches_reference(
    ours: Prediction, ref: CoSchedulePrediction, ctx: object
) -> None:
    """A kernel solo prediction against the oracle's, field by field."""
    (outcome,) = ref.outcomes
    assert ours.iterations == ref.iterations, ctx
    assert ours.converged is ref.converged, ctx
    assert abs(ours.predicted_time_s - outcome.predicted_time_s) <= TOLERANCE, ctx
    assert abs(ours.speedup - outcome.speedup) <= TOLERANCE, ctx
    assert abs(ours.amdahl - outcome.amdahl) <= TOLERANCE, ctx
    assert len(ours.slowdowns) == len(outcome.slowdowns), ctx
    for a, b in zip(ours.slowdowns, outcome.slowdowns):
        assert abs(a - b) <= TOLERANCE, ctx
    f_initial = outcome.amdahl / len(outcome.slowdowns)
    for a, s in zip(ours.utilisations, outcome.slowdowns):
        assert abs(a - f_initial / s) <= TOLERANCE, ctx
    assert_same_resources(ours.resource_loads, ours.resource_capacities, ref, ctx)


def assert_same_resources(
    loads: Dict[ResourceKey, float],
    capacities: Dict[ResourceKey, float],
    ref: CoSchedulePrediction,
    ctx: object,
) -> None:
    """Identical key sets and capacities; loads within 1e-9."""
    assert capacities == ref.resource_capacities, ctx
    assert loads.keys() == ref.resource_loads.keys(), ctx
    for key, load in ref.resource_loads.items():
        assert abs(loads[key] - load) <= 1e-9, (ctx, key)
