"""Simulated operating-system interface.

The paper's machine description generator gets topology facts from the
OS (``/sys``-style enumeration) and controls thread pinning and memory
placement with ``sched_setaffinity``/``numactl``.  This module is the
equivalent boundary for our substrate: Pandia sees *structure* through
it, never physical capacities — those must be measured with stressors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import PlacementError
from repro.hardware.spec import MachineSpec
from repro.hardware.topology import MachineTopology


@dataclass(frozen=True)
class SimulatedOS:
    """Topology discovery and pinning helpers over one machine."""

    machine: MachineSpec

    @property
    def topology(self) -> MachineTopology:
        """The structural facts the OS exposes (no capacities)."""
        return self.machine.topology

    # -- enumeration helpers used to build profiling placements ---------

    def first_context_of_cores(
        self, core_ids: Sequence[int]
    ) -> Tuple[int, ...]:
        """The first hardware context of each listed core."""
        return tuple(self.topology.core(c).hw_thread_ids[0] for c in core_ids)

    def one_thread_per_core(
        self, n_threads: int, sockets: Optional[Sequence[int]] = None
    ) -> Tuple[int, ...]:
        """Pin *n_threads* threads one-per-core across the given sockets.

        Cores are taken in id order, socket by socket, matching how the
        paper lays out its contention-free profiling runs.
        """
        topo = self.topology
        socket_ids = list(sockets) if sockets is not None else list(range(topo.n_sockets))
        cores: List[int] = []
        for s in socket_ids:
            cores.extend(topo.socket(s).core_ids)
        if n_threads > len(cores):
            raise PlacementError(
                f"cannot place {n_threads} threads one-per-core on "
                f"{len(cores)} cores"
            )
        return self.first_context_of_cores(cores[:n_threads])

    def packed_smt(
        self, n_threads: int, sockets: Optional[Sequence[int]] = None
    ) -> Tuple[int, ...]:
        """Pin *n_threads* threads two-per-core into as few cores as possible."""
        topo = self.topology
        socket_ids = list(sockets) if sockets is not None else list(range(topo.n_sockets))
        contexts: List[int] = []
        for s in socket_ids:
            for c in topo.socket(s).core_ids:
                contexts.extend(topo.core(c).hw_thread_ids)
        if n_threads > len(contexts):
            raise PlacementError(
                f"cannot place {n_threads} threads on {len(contexts)} contexts"
            )
        return tuple(contexts[:n_threads])

    def split_across_sockets(self, n_threads: int) -> Tuple[int, ...]:
        """Pin an even *n_threads* one-per-core, half on each of two sockets.

        This is the Run-3 placement (inter-socket latency measurement).
        """
        if n_threads % 2:
            raise PlacementError(
                f"split placement on {self.machine.name} requires an even "
                f"thread count, got {n_threads}"
            )
        topo = self.topology
        if topo.n_sockets < 2:
            raise PlacementError(
                f"split placement of {n_threads} threads requires at least two "
                f"sockets; {self.machine.name} has {topo.n_sockets}"
            )
        half = n_threads // 2
        first = self.one_thread_per_core(half, sockets=[0])
        second = self.one_thread_per_core(half, sockets=[1])
        return first + second

    def smt_siblings(self, hw_thread_ids: Sequence[int]) -> Tuple[int, ...]:
        """For each context, another free context on the same core.

        Used to co-schedule the CPU stressor next to workload threads in
        Runs 4 and 5.  Raises if a core has no free sibling context.
        """
        topo = self.topology
        used = set(hw_thread_ids)
        siblings: List[int] = []
        for tid in hw_thread_ids:
            core = topo.core_of_thread(tid)
            free = [t for t in core.hw_thread_ids if t not in used and t not in siblings]
            if not free:
                raise PlacementError(
                    f"core {core.core_id} has no free SMT context for a stressor"
                )
            siblings.append(free[0])
        return tuple(siblings)

    def idle_core_contexts(self, busy_hw_threads: Sequence[int]) -> Tuple[int, ...]:
        """First context of every core with no busy hardware thread.

        These are the slots the background filler occupies during
        profiling to hold the all-core turbo frequency.
        """
        topo = self.topology
        busy_cores = {topo.hw_thread(t).core_id for t in busy_hw_threads}
        return tuple(
            core.hw_thread_ids[0]
            for core in topo.cores
            if core.core_id not in busy_cores
        )
