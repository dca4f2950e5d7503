"""Deterministic placement featurization for the surrogate pre-filter.

The surrogate must rank an entire canonical placement space in one
vectorised pass, so features are computed from the placement's
*canonical key* — the per-socket ``(ones, twos)`` shapes with socket
order normalised — never from concrete thread ids.  Every member of a
symmetry class therefore maps to the identical feature vector, matching
the equivalence the search cache already exploits.

The feature set is deliberately "iteration-1 shaped": each entry is a
demand/capacity pressure ratio (or a closed-form model term) that the
exact fixed point would compute on its first sweep — core and SMT
instruction pressure, per-level cache link and aggregate pressure, DRAM
node loads under the measured NUMA locality split, interconnect
traffic, NIC load, the Amdahl baseline and the shape's imbalance.
The exact predictor then iterates these interactions to convergence;
the surrogate learns the gap instead (see :mod:`repro.surrogate.model`).

Features are dimensionless and capacity-normalised, so one model can
train across machines of different scale (cache features aggregate over
levels to keep the vector a fixed width regardless of cache depth).
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.description import WorkloadDescription
from repro.core.machine_desc import MachineDescription
from repro.core.placement import Placement, SocketShape
from repro.errors import ModelError

#: Feature vector layout, in column order.  Bump
#: :data:`repro.io.surrogate.SURROGATE_VERSION` when this changes —
#: persisted models name their columns and refuse to score a layout
#: they were not trained on.
FEATURE_NAMES: Tuple[str, ...] = (
    "threads_frac",        # threads / machine hw threads
    "cores_frac",          # occupied cores / machine cores
    "sockets_frac",        # active sockets / machine sockets
    "socket_fill",         # threads / (active sockets * threads per socket)
    "smt_frac",            # threads sharing a core / threads
    "imbalance",           # max per-socket threads / mean (active sockets)
    "inv_threads",         # 1 / threads
    "log_amdahl_rel",      # log Amdahl relative time at this thread count
    "core_pressure",       # mean per-thread instruction demand / capacity
    "core_pressure_max",   # worst thread's instruction demand / capacity
    "link_pressure_sum",   # cache link demand / capacity, summed over levels
    "link_pressure_max",   # ... worst single level
    "agg_pressure_max",    # worst shared-cache aggregate demand / capacity
    "dram_pressure_max",   # worst DRAM node demand / capacity
    "dram_pressure_mean",  # mean DRAM node demand / capacity (active nodes)
    "ic_pressure",         # cross-socket DRAM traffic / interconnect capacity
    "nic_pressure",        # total I/O demand / NIC capacity
    "os_active",           # inter-socket overhead term: os * (sockets - 1)
    "lock_imbalance",      # (1 - load balance) * (imbalance - 1)
    "burst_smt",           # burstiness * SMT fraction
    "parallel_fraction",   # workload scalars, constant per workload:
    "load_balance",        #   they let one model separate workloads
    "burstiness",
    "numa_local_fraction",
)

CanonicalKey = Tuple[SocketShape, ...]


def shape_arrays(
    placements: Sequence[Union[Placement, CanonicalKey]],
    n_sockets: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack canonical keys into ``(ones, twos)`` arrays of shape (N, S)."""
    keys = [
        item.canonical_key() if isinstance(item, Placement) else tuple(item)
        for item in placements
    ]
    for key in keys:
        if len(key) != n_sockets:
            raise ModelError(
                f"canonical key has {len(key)} sockets, machine has {n_sockets}"
            )
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(keys)),
        dtype=np.float64,
        count=2 * n_sockets * len(keys),
    )
    ones, twos = flat.reshape(len(keys), n_sockets, 2).transpose(2, 0, 1).copy()
    return ones, twos


class PlacementFeaturizer:
    """Vectorised feature computation for one (machine, workload) pair.

    Stateless apart from the capacities and demand scalars it caches
    from the descriptions; :meth:`matrix` is a pure function of the
    placements' canonical keys, so featurization is deterministic and
    symmetry-stable by construction.
    """

    def __init__(self, md: MachineDescription, workload: WorkloadDescription) -> None:
        self.md = md
        self.workload = workload
        topo = md.topology
        self.n_sockets = topo.n_sockets
        self.n_cores = topo.n_cores
        self.n_hw_threads = topo.n_hw_threads
        self.threads_per_socket = topo.n_hw_threads / topo.n_sockets

        d = workload.demands
        # Per-thread pressure scalars.  A solo thread owns its core and
        # cache link; an SMT pair shares the (higher) SMT aggregate rate
        # and the single link, so per-thread capacity halves.
        self._core_solo = d.inst_rate / md.core_rate
        self._core_smt = 2.0 * d.inst_rate / md.core_rate_smt
        link_solo: List[float] = []
        link_smt: List[float] = []
        for level, bw in md.cache_link_bw.items():
            demand = d.cache_bw.get(level, 0.0)
            link_solo.append(demand / bw)
            link_smt.append(2.0 * demand / bw)
        self._link_solo = np.asarray(link_solo, dtype=np.float64)
        self._link_smt = np.asarray(link_smt, dtype=np.float64)
        # Shared levels: per-socket aggregate demand vs. measured
        # aggregate capacity.
        self._agg_per_thread: List[float] = [
            d.cache_bw.get(level, 0.0) / agg
            for level, agg in md.cache_agg_bw.items()
            if agg > 0
        ]

    @property
    def names(self) -> Tuple[str, ...]:
        return FEATURE_NAMES

    def matrix(
        self, placements: Sequence[Union[Placement, CanonicalKey]]
    ) -> np.ndarray:
        """The (N, F) feature matrix for *placements*, float64."""
        if not placements:
            return np.zeros((0, len(FEATURE_NAMES)), dtype=np.float64)
        md, w = self.md, self.workload
        d = w.demands
        ones, twos = shape_arrays(placements, self.n_sockets)

        tps = ones + 2.0 * twos                      # threads per socket (N, S)
        n = tps.sum(axis=1)                          # total threads (N,)
        if np.any(n < 1):
            raise ModelError("placement with zero threads cannot be featurized")
        cores_used = (ones + twos).sum(axis=1)
        active = tps > 0
        n_active = active.sum(axis=1).astype(np.float64)
        ones_tot = ones.sum(axis=1)
        smt_threads = 2.0 * twos.sum(axis=1)

        cols = {}
        cols["threads_frac"] = n / self.n_hw_threads
        cols["cores_frac"] = cores_used / self.n_cores
        cols["sockets_frac"] = n_active / self.n_sockets
        cols["socket_fill"] = n / (n_active * self.threads_per_socket)
        cols["smt_frac"] = smt_threads / n
        tps_max = tps.max(axis=1)
        cols["imbalance"] = tps_max * n_active / n
        cols["inv_threads"] = 1.0 / n
        p = w.parallel_fraction
        cols["log_amdahl_rel"] = np.log((1.0 - p) + p / n)

        # Instruction pressure: thread-weighted mean and the worst thread.
        cols["core_pressure"] = (
            ones_tot * self._core_solo + smt_threads * self._core_smt
        ) / n
        cols["core_pressure_max"] = np.where(
            smt_threads > 0,
            max(self._core_solo, self._core_smt),
            self._core_solo,
        )

        # Cache link pressure, aggregated over levels for fixed width.
        if self._link_solo.size:
            link = (
                ones_tot[:, None] * self._link_solo[None, :]
                + smt_threads[:, None] * self._link_smt[None, :]
            ) / n[:, None]
            cols["link_pressure_sum"] = link.sum(axis=1)
            cols["link_pressure_max"] = link.max(axis=1)
        else:
            cols["link_pressure_sum"] = np.zeros_like(n)
            cols["link_pressure_max"] = np.zeros_like(n)

        # Shared-cache aggregate: busiest socket times per-thread share.
        if self._agg_per_thread:
            cols["agg_pressure_max"] = tps_max * max(self._agg_per_thread)
        else:
            cols["agg_pressure_max"] = np.zeros_like(n)

        # DRAM node loads under the locality split: each thread keeps
        # ``local`` of its traffic on its own node and interleaves the
        # rest evenly over the active nodes (repro.numa.dram_shares).
        loc = d.numa_local_fraction
        spread = (1.0 - loc) / n_active                      # per active node
        node_load = d.dram_bw * (tps * loc + (n * spread)[:, None])
        node_load = np.where(active, node_load, 0.0)
        dram = node_load / md.dram_bw_per_node
        cols["dram_pressure_max"] = dram.max(axis=1)
        cols["dram_pressure_mean"] = dram.sum(axis=1) / n_active

        # Interconnect: total traffic that leaves its home node.
        remote = n * d.dram_bw * (1.0 - loc) * (n_active - 1.0) / n_active
        if md.interconnect_bw > 0:
            cols["ic_pressure"] = remote / md.interconnect_bw
        else:
            cols["ic_pressure"] = np.zeros_like(n)

        if md.nic_bw > 0:
            cols["nic_pressure"] = n * d.io_bw / md.nic_bw
        else:
            cols["nic_pressure"] = np.zeros_like(n)

        cols["os_active"] = w.inter_socket_overhead * (n_active - 1.0)
        cols["lock_imbalance"] = (1.0 - w.load_balance) * (cols["imbalance"] - 1.0)
        cols["burst_smt"] = w.burstiness * cols["smt_frac"]
        cols["parallel_fraction"] = np.full_like(n, p)
        cols["load_balance"] = np.full_like(n, w.load_balance)
        cols["burstiness"] = np.full_like(n, w.burstiness)
        cols["numa_local_fraction"] = np.full_like(n, loc)

        return np.column_stack([cols[name] for name in FEATURE_NAMES])

    def vector(self, placement: Union[Placement, CanonicalKey]) -> np.ndarray:
        """The (F,) feature vector of one placement."""
        return self.matrix([placement])[0]
