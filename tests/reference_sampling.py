"""The oracle for listing and sampling canonical placements.

``repro.core.placement`` unranks shape combos through a counting table:
``count_canonical`` reads the count from it, and ``enumerate_canonical``
and ``sample_canonical`` unrank every rank or each drawn one.  The
functions here are the versions they replaced, verbatim:
``_iter_shape_combos`` yields every shape combo in rank order, and the
others list those combos, then count or draw.  The same seed must give
the same placements.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.placement import (
    Placement,
    SocketShape,
    _socket_shape_options,
    from_shapes,
)
from repro.errors import PlacementError
from repro.hardware.topology import MachineTopology


def _iter_shape_combos(
    topology: MachineTopology,
    max_threads: Optional[int] = None,
    max_sockets: Optional[int] = None,
    max_cores: Optional[int] = None,
) -> Iterator[Tuple[SocketShape, ...]]:
    """Lazily yield canonical (socket-order-normalised) shape combos."""
    options = _socket_shape_options(topology)
    for combo in itertools.combinations_with_replacement(
        sorted(options, reverse=True), topology.n_sockets
    ):
        n_threads = sum(ones + 2 * twos for ones, twos in combo)
        if n_threads == 0:
            continue
        if max_threads is not None and n_threads > max_threads:
            continue
        if max_sockets is not None:
            active = sum(1 for ones, twos in combo if ones + twos > 0)
            if active > max_sockets:
                continue
        if max_cores is not None:
            cores = sum(ones + twos for ones, twos in combo)
            if cores > max_cores:
                continue
        yield combo


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
    placements = [
        from_shapes(topology, combo)
        for combo in _iter_shape_combos(
            topology,
            max_threads=max_threads,
            max_sockets=max_sockets,
            max_cores=max_cores,
        )
    ]
    placements.sort(key=lambda p: p.sort_key())
    return placements


def count_canonical(topology: MachineTopology, **filters) -> int:
    """How many canonical placements exist under the given filters."""
    return sum(1 for _ in _iter_shape_combos(topology, **filters))


def sample_canonical(
    topology: MachineTopology,
    max_count: int,
    seed: int = 0,
    **filters,
) -> List[Placement]:
    """A deterministic sample of canonical placements in sort order.

    Mirrors the paper's ~20% sampling on the X5-2.  Shape combos are
    enumerated lazily (the 4-socket machine has ~10^6) and sampled
    without replacement with a fixed seed, so every experiment sees the
    same placements.
    """
    if max_count < 1:
        raise PlacementError("sample size must be >= 1")
    combos = list(_iter_shape_combos(topology, **filters))
    if len(combos) > max_count:
        rng = random.Random(seed)
        chosen = sorted(rng.sample(range(len(combos)), max_count))
        combos = [combos[i] for i in chosen]
    placements = [from_shapes(topology, combo) for combo in combos]
    placements.sort(key=lambda p: p.sort_key())
    return placements


def combos_at(
    topology: MachineTopology, ranks: Iterable[int], **filters
) -> Tuple[int, Dict[int, Tuple[SocketShape, ...]]]:
    """The enumeration's length and its combos at *ranks*, streamed in
    one pass without listing the space."""
    wanted = set(ranks)
    picked: Dict[int, Tuple[SocketShape, ...]] = {}
    count = 0
    for count, combo in enumerate(_iter_shape_combos(topology, **filters), 1):
        if count - 1 in wanted:
            picked[count - 1] = combo
    return count, picked
