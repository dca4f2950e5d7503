"""Machine topology: sockets, cores and hardware threads.

The topology is the structural part of a machine, shared between the
ground-truth simulator and Pandia's machine description.  It matches the
paper's assumptions (Section 2.2): homogeneous cores, homogeneous
sockets, and a fully-connected interconnect.

Identifiers follow Linux conventions: hardware threads (logical CPUs)
are numbered 0..n-1, cores 0..c-1, sockets 0..s-1.  Hardware threads are
laid out core-major: core ``k`` owns hw threads ``k`` and ``k + c`` on a
2-way SMT machine, mirroring how the paper sorts placements "by the
number of threads on core 0, then core 1 and so on".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import TopologyError


@dataclass(frozen=True)
class HwThread:
    """One hardware context (logical CPU)."""

    thread_id: int
    core_id: int
    socket_id: int


@dataclass(frozen=True)
class Core:
    """One physical core and the hardware threads it hosts."""

    core_id: int
    socket_id: int
    hw_thread_ids: Tuple[int, ...]


@dataclass(frozen=True)
class Socket:
    """One processor socket (chip) and the cores it hosts."""

    socket_id: int
    core_ids: Tuple[int, ...]

    @property
    def n_cores(self) -> int:
        return len(self.core_ids)


@dataclass(frozen=True)
class MachineTopology:
    """Immutable description of a machine's processor structure.

    Attributes
    ----------
    n_sockets, cores_per_socket, threads_per_core:
        The homogeneous shape of the machine.
    """

    n_sockets: int
    cores_per_socket: int
    threads_per_core: int
    _sockets: Tuple[Socket, ...] = field(init=False, repr=False)
    _cores: Tuple[Core, ...] = field(init=False, repr=False)
    _hw_threads: Tuple[HwThread, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise TopologyError("machine needs at least one socket")
        if self.cores_per_socket < 1:
            raise TopologyError("socket needs at least one core")
        if self.threads_per_core < 1:
            raise TopologyError("core needs at least one hardware thread")

        n_cores = self.n_sockets * self.cores_per_socket
        cores: List[Core] = []
        hw_threads: List[HwThread] = []
        for core_id in range(n_cores):
            socket_id = core_id // self.cores_per_socket
            tids = tuple(
                core_id + way * n_cores for way in range(self.threads_per_core)
            )
            cores.append(Core(core_id, socket_id, tids))
            for tid in tids:
                hw_threads.append(HwThread(tid, core_id, socket_id))
        hw_threads.sort(key=lambda t: t.thread_id)

        sockets = tuple(
            Socket(
                socket_id=s,
                core_ids=tuple(
                    range(s * self.cores_per_socket, (s + 1) * self.cores_per_socket)
                ),
            )
            for s in range(self.n_sockets)
        )
        object.__setattr__(self, "_sockets", sockets)
        object.__setattr__(self, "_cores", tuple(cores))
        object.__setattr__(self, "_hw_threads", tuple(hw_threads))

    # -- size helpers -------------------------------------------------

    @property
    def n_cores(self) -> int:
        return self.n_sockets * self.cores_per_socket

    @property
    def n_hw_threads(self) -> int:
        return self.n_cores * self.threads_per_core

    # -- entity lookups -----------------------------------------------

    @property
    def sockets(self) -> Tuple[Socket, ...]:
        return self._sockets

    @property
    def cores(self) -> Tuple[Core, ...]:
        return self._cores

    @property
    def hw_threads(self) -> Tuple[HwThread, ...]:
        return self._hw_threads

    def socket(self, socket_id: int) -> Socket:
        try:
            return self._sockets[socket_id]
        except IndexError:
            raise TopologyError(f"no socket {socket_id}") from None

    def core(self, core_id: int) -> Core:
        try:
            return self._cores[core_id]
        except IndexError:
            raise TopologyError(f"no core {core_id}") from None

    def hw_thread(self, thread_id: int) -> HwThread:
        try:
            return self._hw_threads[thread_id]
        except IndexError:
            raise TopologyError(f"no hardware thread {thread_id}") from None

    def core_of_thread(self, thread_id: int) -> Core:
        return self.core(self.hw_thread(thread_id).core_id)

    def socket_of_thread(self, thread_id: int) -> int:
        return self.hw_thread(thread_id).socket_id

    def cores_of_socket(self, socket_id: int) -> Tuple[Core, ...]:
        return tuple(self.core(c) for c in self.socket(socket_id).core_ids)

    # -- interconnect -------------------------------------------------

    def interconnect_links(self) -> Iterator[Tuple[int, int]]:
        """Yield each unordered socket pair (the fully-connected links)."""
        for a in range(self.n_sockets):
            for b in range(a + 1, self.n_sockets):
                yield (a, b)

    @staticmethod
    def link_between(socket_a: int, socket_b: int) -> Tuple[int, int]:
        """Canonical (sorted) key for the link between two sockets."""
        if socket_a == socket_b:
            raise TopologyError("no interconnect link within one socket")
        return (socket_a, socket_b) if socket_a < socket_b else (socket_b, socket_a)

    # -- placement helpers --------------------------------------------

    def active_sockets(self, hw_thread_ids: Sequence[int]) -> Tuple[int, ...]:
        """Sockets hosting at least one of the given hardware threads."""
        return tuple(sorted({self.socket_of_thread(t) for t in hw_thread_ids}))

    def threads_per_core_map(self, hw_thread_ids: Sequence[int]) -> Dict[int, int]:
        """Map core id -> number of the given hw threads on that core."""
        counts: Dict[int, int] = {}
        for tid in hw_thread_ids:
            core_id = self.hw_thread(tid).core_id
            counts[core_id] = counts.get(core_id, 0) + 1
        return counts

    def shape(self) -> Tuple[int, int, int]:
        """(sockets, cores/socket, threads/core) — used for catalog keys."""
        return (self.n_sockets, self.cores_per_socket, self.threads_per_core)
