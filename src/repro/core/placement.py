"""Thread placements and their enumeration.

A placement assigns each software thread to one hardware context.  On a
homogeneous machine (the paper's assumption: identical cores, identical
sockets, fully-connected interconnect) performance depends only on the
placement's *shape*: per socket, how many cores run one thread and how
many run two.  ``enumerate_canonical`` therefore yields one concrete
representative per shape, with socket order normalised — exactly the
equivalence the paper's placement sort exposes on its x-axes
(Figures 1, 10, 13).

The paper explored every placement on the 32-thread machines (41 868
runs) and a ~20% sample on the 72-thread X5-2; ``sample_canonical``
provides the deterministic sampling equivalent.  It draws indices into
the shape combos and unranks each one through a counting table, so it
never lists the space: the 4-socket X2-4 has ~10^6 combos.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.hardware.topology import MachineTopology

#: Per-socket shape: (cores running one thread, cores running two threads).
SocketShape = Tuple[int, int]


@dataclass(frozen=True)
class Placement:
    """An assignment of software threads to hardware contexts."""

    topology: MachineTopology
    hw_thread_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hw_thread_ids", tuple(self.hw_thread_ids))
        if not self.hw_thread_ids:
            raise PlacementError(
                f"machine shape {self.topology.shape()}: placement needs at "
                f"least one thread, got {self.hw_thread_ids}"
            )
        seen = set()
        for tid in self.hw_thread_ids:
            if tid < 0 or tid >= self.topology.n_hw_threads:
                raise PlacementError(
                    f"hardware thread {tid} outside 0..{self.topology.n_hw_threads - 1}"
                )
            if tid in seen:
                raise PlacementError(f"hardware thread {tid} used twice")
            seen.add(tid)

    # -- structure -------------------------------------------------------

    @property
    def n_threads(self) -> int:
        return len(self.hw_thread_ids)

    def threads_per_core(self) -> Dict[int, int]:
        """Core id -> resident thread count (only occupied cores)."""
        return self.topology.threads_per_core_map(self.hw_thread_ids)

    def active_sockets(self) -> Tuple[int, ...]:
        return self.topology.active_sockets(self.hw_thread_ids)

    def socket_shapes(self) -> Tuple[SocketShape, ...]:
        """Per socket, (#cores with one thread, #cores with two threads)."""
        per_core = self.threads_per_core()
        shapes: List[SocketShape] = []
        for socket in self.topology.sockets:
            ones = sum(1 for c in socket.core_ids if per_core.get(c) == 1)
            twos = sum(1 for c in socket.core_ids if per_core.get(c, 0) >= 2)
            shapes.append((ones, twos))
        return tuple(shapes)

    def canonical_key(self) -> Tuple[SocketShape, ...]:
        """Shape with socket order normalised (descending).

        Memoised: the search engine computes this once per cache lookup,
        so ranking a cached placement set must not re-derive shapes.
        """
        key = self.__dict__.get("_canonical_key")
        if key is None:
            key = tuple(sorted(self.socket_shapes(), reverse=True))
            object.__setattr__(self, "_canonical_key", key)
        return key

    def sort_key(self) -> Tuple[int, ...]:
        """The paper's x-axis order: total threads, then per-core counts."""
        per_core = self.threads_per_core()
        counts = tuple(per_core.get(c, 0) for c in range(self.topology.n_cores))
        return (self.n_threads,) + counts

    def __len__(self) -> int:
        return self.n_threads

    def __str__(self) -> str:
        shapes = self.socket_shapes()
        body = ", ".join(f"s{i}:{o}x1+{t}x2" for i, (o, t) in enumerate(shapes))
        return f"Placement({self.n_threads} threads; {body})"


def from_shapes(
    topology: MachineTopology, shapes: Sequence[SocketShape]
) -> Placement:
    """Build the canonical concrete placement for per-socket shapes.

    Within each socket, dual-thread cores take the lowest core ids,
    then single-thread cores — an arbitrary but fixed choice; any
    concrete layout of the same shape performs identically on a
    homogeneous machine.
    """
    if len(shapes) != topology.n_sockets:
        raise PlacementError(
            f"need one shape per socket ({topology.n_sockets}), got {len(shapes)}"
        )
    tids: List[int] = []
    for socket_id, (ones, twos) in enumerate(shapes):
        if ones < 0 or twos < 0:
            raise PlacementError(f"negative shape {shapes[socket_id]}")
        if ones + twos > topology.cores_per_socket:
            raise PlacementError(
                f"socket {socket_id}: shape {shapes[socket_id]} exceeds "
                f"{topology.cores_per_socket} cores"
            )
        if twos > 0 and topology.threads_per_core < 2:
            raise PlacementError(
                f"machine shape {topology.shape()} has no SMT contexts for "
                f"dual-thread cores: socket {socket_id} asks for {twos}"
            )
        core_ids = topology.socket(socket_id).core_ids
        for c in core_ids[:twos]:
            tids.extend(topology.core(c).hw_thread_ids[:2])
        for c in core_ids[twos : twos + ones]:
            tids.append(topology.core(c).hw_thread_ids[0])
    placement = Placement(topology, tuple(tids))
    # The canonical key is already known — it is the sorted shape tuple
    # this placement was built from.  Stamping the memo here saves a
    # per-placement threads_per_core pass when whole canonical spaces
    # are enumerated and immediately keyed (search cache, surrogate
    # featurizer).
    object.__setattr__(
        placement,
        "_canonical_key",
        tuple(sorted(((int(o), int(t)) for o, t in shapes), reverse=True)),
    )
    return placement


def _socket_shape_options(topology: MachineTopology) -> List[SocketShape]:
    cps = topology.cores_per_socket
    max_twos = cps if topology.threads_per_core >= 2 else 0
    return [
        (ones, twos)
        for twos in range(max_twos + 1)
        for ones in range(cps - twos + 1)
    ]


class _ComboTable:
    """Counts of the canonical shape combos, to unrank without listing.

    A combo is a non-decreasing sequence of indices into the socket
    shape options sorted descending, one index per socket, so its
    shapes never increase from socket to socket.  Combos are ranked in
    lexicographic order, the order of
    ``itertools.combinations_with_replacement``, with the all-empty
    combo left out.  With ``t`` threads and ``c`` cores left under the
    filters, ``counts[k][t, c, i]`` is the number of ways to fill sockets
    ``k..S-1`` with indices ``>= i``.  A filter that cannot bind keeps
    a single budget value and charges nothing, so every filter
    combination takes the same path.  ``max_sockets`` needs no budget:
    the empty shape ``(0, 0)`` sorts last, so a combo has at most ``m``
    active sockets exactly when sockets ``m..S-1`` are empty.
    """

    def __init__(
        self,
        topology: MachineTopology,
        max_threads: Optional[int] = None,
        max_sockets: Optional[int] = None,
        max_cores: Optional[int] = None,
    ) -> None:
        options = self.options = sorted(_socket_shape_options(topology), reverse=True)
        S, L = topology.n_sockets, len(options)
        combos = math.comb(L + S - 1, S)
        if combos > np.iinfo(np.int64).max:
            raise PlacementError(
                f"machine shape {topology.shape()}: {combos} shape combos "
                f"overflow the 64-bit counting table"
            )
        ones, twos = np.array(options).T

        def budget(bound: Optional[int], cost: np.ndarray) -> Tuple[int, np.ndarray]:
            if bound is None or bound >= S * int(cost.max()):
                return 0, np.zeros_like(cost)
            return max(int(bound), 0), cost

        self.top_t, self.cost_t = budget(max_threads, ones + 2 * twos)
        self.top_c, self.cost_c = budget(max_cores, ones + twos)
        active = S if max_sockets is None else min(max(int(max_sockets), 0), S)

        t_left = np.arange(self.top_t + 1)[:, None, None] - self.cost_t
        c_left = np.arange(self.top_c + 1)[None, :, None] - self.cost_c
        fits = (t_left >= 0) & (c_left >= 0)
        t_left, c_left = np.maximum(t_left, 0), np.maximum(c_left, 0)
        level = np.ones((self.top_t + 1, self.top_c + 1, L + 1), dtype=np.int64)
        self.counts = [level]
        for k in reversed(range(S)):
            # Completions whose socket k takes option j, then the sum
            # over j >= i; index L (no option left) counts none.
            step = np.where(fits, level[t_left, c_left, np.arange(L)], 0)
            if k >= active:
                step[:, :, :-1] = 0
            level = np.zeros_like(level)
            level[:, :, :L] = np.cumsum(step[:, :, ::-1], axis=2)[:, :, ::-1]
            self.counts.append(level)
        self.counts.reverse()
        # Every budget admits the all-empty combo, the last in order,
        # which places no thread.
        self.size = int(level[self.top_t, self.top_c, 0]) - 1

    def unrank(self, ranks: Iterable[int]) -> List[Tuple[SocketShape, ...]]:
        """The combo at each rank (``0 <= rank < size``), in the order
        the ranks come."""
        r = np.fromiter(ranks, dtype=np.int64)
        t = np.full(r.size, self.top_t)
        c = np.full(r.size, self.top_c)
        i = np.zeros(r.size, dtype=np.intp)
        last = len(self.options) - 1
        picks = []
        for level in self.counts[:-1]:
            # Counts fall along the option index: the pick is the last
            # index j >= i whose count still covers the rank, found by
            # bisection over [i, last].
            head = level[t, c, i]
            target = head - r
            j, hi = i, np.full(r.size, last)
            for _ in range(last.bit_length()):
                mid = (j + hi + 1) // 2
                covers = level[t, c, mid] >= target
                j, hi = np.where(covers, mid, j), np.where(covers, hi, mid - 1)
            r = r - (head - level[t, c, j])
            t, c, i = t - self.cost_t[j], c - self.cost_c[j], j
            picks.append(j.tolist())
        options = self.options
        return [tuple(options[j] for j in pick) for pick in zip(*picks)]


def _shapes_sort_key(
    topology: MachineTopology, shapes: Sequence[SocketShape]
) -> Tuple[int, ...]:
    """``from_shapes(topology, shapes).sort_key()``, read off the shapes.

    Core ids run socket by socket, and within a socket
    :func:`from_shapes` gives the dual-thread cores the lowest ids,
    then the single-thread cores.
    """
    cps = topology.cores_per_socket
    key = [sum(ones + 2 * twos for ones, twos in shapes)]
    for ones, twos in shapes:
        key += [2] * twos + [1] * ones + [0] * (cps - ones - twos)
    return tuple(key)


def _sorted_placements(
    topology: MachineTopology, table: _ComboTable, ranks: Iterable[int]
) -> List[Placement]:
    """The placements of the combos at *ranks*, in the paper's sort order.

    The combos are sorted before any placement is built, so no sort key
    outlives the sort.
    """
    combos = table.unrank(ranks)
    combos.sort(key=lambda shapes: _shapes_sort_key(topology, shapes))
    return [from_shapes(topology, combo) for combo in combos]


def count_canonical(topology: MachineTopology, **filters) -> int:
    """How many canonical placements exist under the given filters.

    Read from a counting table; nothing is listed.
    """
    return _ComboTable(topology, **filters).size


def enumerate_canonical(
    topology: MachineTopology,
    max_threads: Optional[int] = None,
    max_sockets: Optional[int] = None,
    max_cores: Optional[int] = None,
) -> List[Placement]:
    """All canonical placements, in the paper's sort order.

    One representative per shape equivalence class; socket order is
    normalised (non-increasing shapes) so mirrored placements are not
    duplicated.  Optional filters restrict the set, matching the
    Figure 12 placement classes: ``max_sockets`` bounds how many sockets
    may be active and ``max_cores`` bounds the number of occupied cores.
    """
    table = _ComboTable(
        topology,
        max_threads=max_threads,
        max_sockets=max_sockets,
        max_cores=max_cores,
    )
    return _sorted_placements(topology, table, range(table.size))


def sample_canonical(
    topology: MachineTopology,
    max_count: int,
    seed: int = 0,
    **filters,
) -> List[Placement]:
    """A deterministic sample of canonical placements in sort order.

    Mirrors the paper's ~20% sampling on the X5-2.  A fixed seed draws
    indices into the shape combos without replacement, so every
    experiment sees the same placements, and each drawn index is
    unranked straight to its combo: the space (~10^6 combos on the
    4-socket machine) is never listed.  When the space holds no more
    than *max_count* combos, all of them are returned.
    """
    if max_count < 1:
        raise PlacementError(
            f"machine shape {topology.shape()}: sample size must be >= 1, "
            f"got {max_count}"
        )
    table = _ComboTable(topology, **filters)
    ranks: Sequence[int] = range(table.size)
    if table.size > max_count:
        ranks = random.Random(seed).sample(ranks, max_count)
    return _sorted_placements(topology, table, ranks)
