"""Resource-demand model for a set of co-running jobs.

Given a machine and a set of jobs (each a workload spec pinned to
hardware threads), this module computes, for every *active* software
thread:

* the set of resources it loads and its traffic coefficient on each
  (GB per giga-instruction, i.e. bytes/instruction),
* its standalone rate limit (Ginstr/s) including the cross-socket
  communication stretch,
* the capacity of every touched resource, including SMT aggregation and
  burstiness interference on shared cores, Turbo-dependent frequencies,
  and shared-LLC capacity spill.

The fixed-point solver in :mod:`repro.sim.engine` then resolves the
contention between these demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlacementError, SimulationError
from repro.hardware.spec import MachineSpec
from repro.hardware.topology import MachineTopology
from repro.numa import dram_shares
from repro.workloads.spec import WorkloadSpec

ResourceKey = Tuple[str, Hashable]

#: Interference coefficient for bursty SMT siblings: how strongly a
#: sub-unity duty cycle degrades a shared core's aggregate throughput.
BURST_INTERFERENCE = 0.5

#: Sharpness of the LLC spill curve on machines *without* adaptive
#: caches (the Westmere X2-4) — a near-cliff, per paper Section 2.2.
NONADAPTIVE_SPILL_SLOPE = 2.5


@dataclass(frozen=True)
class JobSpecOnMachine:
    """One job: a workload spec pinned to specific hardware threads."""

    spec: WorkloadSpec
    hw_thread_ids: Tuple[int, ...]

    @property
    def n_threads(self) -> int:
        return len(self.hw_thread_ids)


@dataclass
class ThreadInfo:
    """Static facts about one active software thread."""

    job_index: int
    local_index: int
    hw_thread_id: int
    core_id: int
    socket_id: int
    limit: float
    comm_stretch: float
    duty: float
    # Traffic per giga-instruction, for counter reconstruction.
    cache_traffic: Dict[str, float]
    dram_traffic_per_node: Dict[int, float]
    link_traffic: Dict[Tuple[int, int], float]
    io_traffic: float = 0.0


class _SocketFacts(NamedTuple):
    """The facts every thread of one job on one socket shares.  The
    dictionaries go to each of those threads' :class:`ThreadInfo`, so
    they are never mutated."""

    stretch: float
    #: Standalone limit before the core-sharing and stretch divisions.
    limit: float
    cache_traffic: Dict[str, float]
    dram_per_node: Dict[int, float]
    link_traffic: Dict[Tuple[int, int], float]


def llc_spill_fraction(
    ws_bytes: float, capacity_bytes: float, adaptive: bool, machine: str = "the machine"
) -> float:
    """Fraction of LLC traffic that spills to DRAM for a socket.

    ``adaptive`` caches (paper Section 2.2) give a gradual fall-off:
    the overflowing fraction of the working set misses, i.e.
    ``1 - capacity/ws``.  Non-adaptive caches degrade much faster once
    the working set exceeds capacity (the pathological cliff the paper
    says modern insertion policies removed).  *machine* names the
    cache's machine in errors.
    """
    if capacity_bytes <= 0:
        raise SimulationError(
            f"LLC capacity of {machine} must be positive, got {capacity_bytes} bytes"
        )
    if ws_bytes <= capacity_bytes:
        return 0.0
    overflow = ws_bytes / capacity_bytes - 1.0
    if adaptive:
        return min(1.0, overflow / (overflow + 1.0))
    return min(1.0, overflow * NONADAPTIVE_SPILL_SLOPE)


def shared_core_efficiency(duties: Sequence[float]) -> float:
    """Aggregate-throughput multiplier for a core shared by bursty threads.

    Steady streams (duty 1.0) share a core at the machine's measured SMT
    factor; bursty streams collide in the core's front end and lose
    additional throughput.  The loss grows with ``1/duty - 1`` — how
    peaky the demand is relative to its average.
    """
    if len(duties) <= 1:
        return 1.0
    geo = math.exp(sum(math.log(d) for d in duties) / len(duties))
    return 1.0 / (1.0 + BURST_INTERFERENCE * (1.0 / geo - 1.0))


def memory_shares(
    spec: WorkloadSpec,
    topology: MachineTopology,
    hw_thread_ids: Sequence[int],
    thread_socket: int,
) -> Dict[int, float]:
    """Fraction of one thread's DRAM traffic that goes to each node."""
    policy = spec.memory_policy
    if policy.kind == "local":
        return {thread_socket: 1.0}
    if policy.kind == "bind":
        share = 1.0 / len(policy.nodes)
        return {node: share for node in policy.nodes}
    # Default: first-touch locality over the job's active sockets —
    # `numa_local_fraction` stays on the thread's node, the rest
    # interleaves.
    nodes = topology.active_sockets(hw_thread_ids)
    return dram_shares(spec.numa_local_fraction, thread_socket, nodes)


class DemandModel:
    """Demands, limits and capacities for one co-running job set.

    Parameters
    ----------
    machine:
        The physical machine.
    jobs:
        Workload specs pinned to hardware threads.  At most one software
        thread per hardware context across all jobs.
    turbo_enabled:
        Whether Turbo Boost is active (Figure 14 experiments disable it).
    """

    def __init__(
        self,
        machine: MachineSpec,
        jobs: Sequence[JobSpecOnMachine],
        turbo_enabled: bool = True,
    ) -> None:
        self.machine = machine
        self.jobs = list(jobs)
        self.turbo_enabled = turbo_enabled
        self._validate_placements()
        self.frequencies = self._socket_frequencies()
        self.threads = self._build_threads()
        self._build_matrices()

    # -- validation and global state ------------------------------------

    def _validate_placements(self) -> None:
        topo = self.machine.topology
        seen: Dict[int, Tuple[int, int]] = {}
        for j, job in enumerate(self.jobs):
            if not job.hw_thread_ids:
                raise PlacementError(f"job {j} ({job.spec.name}) has no threads")
            for i, tid in enumerate(job.hw_thread_ids):
                if tid < 0 or tid >= topo.n_hw_threads:
                    raise PlacementError(
                        f"job {j} ({job.spec.name}): hw thread {tid} does not "
                        f"exist on {self.machine.name} "
                        f"(0..{topo.n_hw_threads - 1})"
                    )
                if tid in seen:
                    other = seen[tid]
                    raise PlacementError(
                        f"hardware thread {tid} claimed by both job {other[0]} "
                        f"thread {other[1]} and job {j} thread {i}"
                    )
                seen[tid] = (j, i)

    def _active_tid_sets(self) -> List[Tuple[int, ...]]:
        """Per job, the hardware threads whose software thread does work."""
        out = []
        for job in self.jobs:
            k = job.spec.n_active(job.n_threads)
            out.append(tuple(job.hw_thread_ids[:k]))
        return out

    def _socket_frequencies(self) -> Dict[int, float]:
        """Per-socket core frequency from Turbo Boost.

        *Every* pinned software thread keeps its core awake — including
        threads that idle after initialisation, because the workloads
        busy-wait (paper Section 2.3: spinning consumes few pipeline
        resources but the core stays active).  Only demand is limited to
        working threads.
        """
        topo = self.machine.topology
        active_cores: Dict[int, set] = {s: set() for s in range(topo.n_sockets)}
        for job in self.jobs:
            for tid in job.hw_thread_ids:
                hw = topo.hw_thread(tid)
                active_cores[hw.socket_id].add(hw.core_id)
        return {
            s: self.machine.frequency_ghz(len(cores), self.turbo_enabled)
            for s, cores in active_cores.items()
        }

    # -- thread construction --------------------------------------------

    def _llc_spill_by_socket(self) -> Dict[int, float]:
        """LLC pressure per socket from the jobs' shared working sets.

        A job's working set is shared by its threads (data-parallel
        loops iterate over one dataset); a socket caches the slice its
        resident threads touch, i.e. the job's working set weighted by
        the fraction of the job's threads it hosts.
        """
        llc = self.machine.llc
        if llc is None:
            return {}
        topo = self.machine.topology
        ws: Dict[int, float] = {s: 0.0 for s in range(topo.n_sockets)}
        for job, tids in zip(self.jobs, self._active_tid_sets()):
            if not tids:
                continue
            share = job.spec.working_set_bytes / len(tids)
            for tid in tids:
                ws[topo.socket_of_thread(tid)] += share
        return {
            s: llc_spill_fraction(
                total, llc.capacity_bytes, self.machine.adaptive_caches, self.machine.name
            )
            for s, total in ws.items()
        }

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
        #: Per job, the positions of its active threads in ``threads``:
        #: one contiguous run per job, in job order.
        self.job_threads: List[slice] = []
        for j, (job, tids) in enumerate(zip(self.jobs, active_sets)):
            spec = job.spec
            hws = [topo.hw_thread(t) for t in tids]
            sockets = [hw.socket_id for hw in hws]
            # Every fact about a thread but its core's occupancy depends
            # only on its socket: build them once per socket of the job.
            by_socket = {
                s: self._socket_facts(job, s, len(sockets) - sockets.count(s), spill)
                for s in dict.fromkeys(sockets)
            }
            self.job_threads.append(slice(len(threads), len(threads) + len(tids)))
            for i, (tid, hw) in enumerate(zip(tids, hws)):
                facts = by_socket[hw.socket_id]
                limit = facts.limit
                # Sharing a core costs each thread some standalone speed
                # (front-end arbitration), beyond the aggregate limit.
                if core_occupancy[hw.core_id] > 1:
                    limit /= 1.0 + self.machine.smt_per_thread_slowdown
                limit /= facts.stretch
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
                        comm_stretch=facts.stretch,
                        duty=spec.burst_duty,
                        cache_traffic=facts.cache_traffic,
                        dram_traffic_per_node=facts.dram_per_node,
                        link_traffic=facts.link_traffic,
                        io_traffic=spec.io_bpi,
                    )
                )
        return threads

    def _socket_facts(
        self,
        job: JobSpecOnMachine,
        socket: int,
        remote_peers: int,
        spill: Mapping[int, float],
    ) -> _SocketFacts:
        """What every thread of *job* on *socket* shares."""
        spec, topo = job.spec, self.machine.topology
        stretch = 1.0 + spec.comm_fraction * remote_peers
        # Spilled LLC lines still traverse the L3 link (they are misses
        # fetched through the cache); the spill only adds DRAM traffic.
        phi = spill.get(socket, 0.0)
        dram_eff = spec.dram_bpi + spec.l3_bpi * phi
        shares = memory_shares(spec, topo, job.hw_thread_ids, socket)
        dram_per_node = {n: dram_eff * sh for n, sh in shares.items()}
        link_traffic: Dict[Tuple[int, int], float] = {}
        for node, traffic in dram_per_node.items():
            if node != socket and traffic > 0:
                key = topo.link_between(socket, node)
                link_traffic[key] = link_traffic.get(key, 0.0) + traffic
        if spec.io_bpi > 0 and self.machine.nic_gbs <= 0:
            raise SimulationError(
                f"{spec.name} performs I/O but {self.machine.name} "
                f"models no off-machine link (nic_gbs=0)"
            )
        cache_traffic = {"L1": spec.l1_bpi, "L2": spec.l2_bpi, "L3": spec.l3_bpi}
        limit = self._solo_limit(
            spec, self.frequencies[socket], cache_traffic, dram_per_node
        )
        return _SocketFacts(stretch, limit, cache_traffic, dram_per_node, link_traffic)

    def _solo_limit(
        self,
        spec: WorkloadSpec,
        freq: float,
        cache_traffic: Mapping[str, float],
        dram_per_node: Mapping[int, float],
    ) -> float:
        """Rate the thread would sustain alone on an idle machine."""
        machine = self.machine
        rate = freq * min(spec.ipc_demand, machine.ipc_single)
        for level in machine.caches:
            bpi = cache_traffic.get(level.name, 0.0)
            if bpi > 0:
                rate = min(rate, level.link_gbs(freq) / bpi)
                if not level.private and level.aggregate_gbs is not None:
                    rate = min(rate, level.aggregate_gbs / bpi)
        for traffic in dram_per_node.values():
            if traffic > 0:
                rate = min(rate, machine.dram_gbs_per_node / traffic)
        if spec.io_bpi > 0 and machine.nic_gbs > 0:
            rate = min(rate, machine.nic_gbs / spec.io_bpi)
        for level_name, traffic in cache_traffic.items():
            if traffic < 0:
                raise SimulationError(
                    f"{spec.name} on {machine.name}: negative {level_name} "
                    f"cache traffic ({traffic} bytes/instruction)"
                )
        return rate

    # -- matrices for the solver -----------------------------------------

    def _core_capacity(self, core_id: int, resident: List[ThreadInfo]) -> float:
        freq = self.frequencies[self.machine.topology.core(core_id).socket_id]
        issue = self.machine.core_issue_ginstr(freq, len(resident))
        return issue * shared_core_efficiency([t.duty for t in resident])

    def _build_matrices(self) -> None:
        machine = self.machine
        topo = machine.topology
        threads = self.threads

        by_core: Dict[int, List[int]] = {}
        for pos, t in enumerate(threads):
            by_core.setdefault(t.core_id, []).append(pos)

        resource_index: Dict[ResourceKey, int] = {}
        capacities: List[float] = []

        def resource(key: ResourceKey, capacity: float) -> int:
            idx = resource_index.get(key)
            if idx is None:
                idx = len(capacities)
                resource_index[key] = idx
                capacities.append(capacity)
            return idx

        n = len(threads)
        rows: List[Dict[int, float]] = [dict() for _ in range(n)]

        for core_id, resident_pos in by_core.items():
            resident = [threads[p] for p in resident_pos]
            cap = self._core_capacity(core_id, resident)
            idx = resource(("core", core_id), cap)
            for p in resident_pos:
                rows[p][idx] = 1.0

        for pos, t in enumerate(threads):
            freq = self.frequencies[t.socket_id]
            for level in machine.caches:
                bpi = t.cache_traffic.get(level.name, 0.0)
                if bpi <= 0:
                    continue
                link_idx = resource(
                    ("cache_link", (level.name, t.core_id)), level.link_gbs(freq)
                )
                rows[pos][link_idx] = rows[pos].get(link_idx, 0.0) + bpi
                if not level.private and level.aggregate_gbs is not None:
                    agg_idx = resource(
                        ("cache_agg", (level.name, t.socket_id)), level.aggregate_gbs
                    )
                    rows[pos][agg_idx] = rows[pos].get(agg_idx, 0.0) + bpi
            for node, traffic in t.dram_traffic_per_node.items():
                if traffic <= 0:
                    continue
                idx = resource(("dram", node), machine.dram_gbs_per_node)
                rows[pos][idx] = rows[pos].get(idx, 0.0) + traffic
            for link, traffic in t.link_traffic.items():
                if traffic <= 0:
                    continue
                idx = resource(("link", link), machine.interconnect_gbs)
                rows[pos][idx] = rows[pos].get(idx, 0.0) + traffic
            if t.io_traffic > 0:
                idx = resource(("nic", 0), machine.nic_gbs)
                rows[pos][idx] = rows[pos].get(idx, 0.0) + t.io_traffic

        m = len(capacities)
        pair_thread: List[int] = []
        pair_resource: List[int] = []
        pair_coeff: List[float] = []
        resource_pairs: List[List[int]] = [[] for _ in range(m)]
        for pos, row in enumerate(rows):
            for idx, value in row.items():
                resource_pairs[idx].append(len(pair_thread))
                pair_thread.append(pos)
                pair_resource.append(idx)
                pair_coeff.append(value)
        self.resource_index = resource_index
        self.capacities = np.array(capacities)
        #: Load above which a resource is saturated (the solver's test).
        self.saturation = self.capacities * (1.0 + 1e-9)
        # The non-zero coefficients as (thread, resource, coefficient)
        # triples in thread order, so a sequential per-resource sum
        # over them adds each resource's users in thread order.
        self.pair_thread = np.array(pair_thread, dtype=np.intp)
        self.pair_resource = np.array(pair_resource, dtype=np.intp)
        self.pair_coeff = np.array(pair_coeff)
        self.coeffs = np.zeros((n, m))
        self.coeffs[self.pair_thread, self.pair_resource] = self.pair_coeff
        #: Per resource, the positions of its users' triples (thread order).
        self.resource_pairs = [tuple(pairs) for pairs in resource_pairs]
        #: ``pair_thread`` and ``capacities`` as lists, for the solver's
        #: per-resource water-fill.
        self.pair_thread_list = pair_thread
        self.capacity_list = capacities
        self.limits = np.array([t.limit for t in threads])
        #: Whether a resource saturates with every thread fully busy at
        #: its standalone limit: the solver's first test at utilisation
        #: 1.  When none does, the solve at any utilisation <= 1 never
        #: meets a saturated resource and returns the limits.
        full_loads = np.bincount(
            self.pair_resource, self.limits[self.pair_thread] * self.pair_coeff, m
        )
        self.saturates = bool((full_loads > self.saturation).any())

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def resource_keys(self) -> List[ResourceKey]:
        """Resource keys in column order of the coefficient matrix."""
        ordered: List[Optional[ResourceKey]] = [None] * len(self.resource_index)
        for key, idx in self.resource_index.items():
            ordered[idx] = key
        return [key for key in ordered if key is not None]
