"""Placements without enumeration equal the enumerating versions.

``count_canonical``, ``enumerate_canonical`` and ``sample_canonical``
read a counting table over the shape combos and unrank each rank
straight to its combo.  Over every catalog topology and every
combination of the ``max_threads``, ``max_sockets`` and ``max_cores``
filters, these tests pin, against the enumerating oracle of
``tests/reference_sampling.py``, that:

* unranking index ``i`` gives the ``i``-th combo of
  ``_iter_shape_combos``;
* ``count_canonical`` equals the length of the enumeration;
* ``enumerate_canonical`` equals the oracle's;
* ``sample_canonical`` equals the oracle's for seeds 0-9 and sizes 1,
  400 and one above the count;
* the sort key read off the shapes equals ``Placement.sort_key``
  computed from the thread ids.

The X2-4 has 864,500 combos, too many to list per example: there the
tests draw ranks, the oracle's draws among them, and stream the
enumeration once.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import (
    Placement,
    _ComboTable,
    _shapes_sort_key,
    count_canonical,
    enumerate_canonical,
    from_shapes,
    sample_canonical,
)
from repro.hardware import machines

from tests import reference_sampling as oracle

FILTERS = ("max_threads", "max_sockets", "max_cores")
#: Every subset of the filters, each active one drawn below.
SUBSETS = [
    active
    for k in range(len(FILTERS) + 1)
    for active in itertools.combinations(FILTERS, k)
]
LISTED = ["FIG3", "TESTBOX", "X3-2", "X4-2", "X5-2"]
SEEDS = range(10)


def _filters(draw, topology, active):
    """Values for the *active* filters, from below zero to above the
    machine's maximum; the others stay ``None``."""
    top = {
        "max_threads": topology.n_hw_threads,
        "max_sockets": topology.n_sockets,
        "max_cores": topology.n_cores,
    }
    return {
        name: draw(st.integers(-1, top[name] + 1)) if name in active else None
        for name in FILTERS
    }


def _assert_shape_sort_keys(topology, combos):
    for combo in combos:
        fresh = Placement(topology, from_shapes(topology, combo).hw_thread_ids)
        assert _shapes_sort_key(topology, combo) == fresh.sort_key()


def _ids(placements):
    return [p.hw_thread_ids for p in placements]


@pytest.mark.parametrize("active", SUBSETS, ids=lambda a: "+".join(a) or "none")
@settings(max_examples=12, deadline=None)
@given(data=st.data(), name=st.sampled_from(LISTED))
def test_unranking_follows_the_enumeration(active, data, name):
    topology = machines.get(name).topology
    filters = _filters(data.draw, topology, active)
    combos = list(oracle._iter_shape_combos(topology, **filters))
    table = _ComboTable(topology, **filters)
    assert table.size == len(combos)
    assert count_canonical(topology, **filters) == oracle.count_canonical(
        topology, **filters
    )
    assert list(table.unrank(range(table.size))) == combos
    assert _ids(enumerate_canonical(topology, **filters)) == _ids(
        oracle.enumerate_canonical(topology, **filters)
    )
    _assert_shape_sort_keys(topology, combos)


@pytest.mark.parametrize("active", SUBSETS, ids=lambda a: "+".join(a) or "none")
@settings(max_examples=3, deadline=None)
@given(data=st.data(), name=st.sampled_from(LISTED))
def test_sample_equals_the_enumerating_sampler(active, data, name):
    topology = machines.get(name).topology
    filters = _filters(data.draw, topology, active)
    count = count_canonical(topology, **filters)
    for size in (1, 400):
        for seed in SEEDS:
            got = sample_canonical(topology, size, seed, **filters)
            want = oracle.sample_canonical(topology, size, seed, **filters)
            assert _ids(got) == _ids(want)
    everything = oracle.sample_canonical(topology, count + 1, 0, **filters)
    assert len(everything) == count
    for seed in SEEDS:
        assert _ids(sample_canonical(topology, count + 1, seed, **filters)) == _ids(
            everything
        )


@settings(max_examples=4, deadline=None)
@given(data=st.data(), active=st.sampled_from(SUBSETS))
def test_x2_4_drawn_ranks(data, active):
    """On the X2-4, ranks are drawn, never listed: hypothesis draws some,
    the oracle's seeds 0-9 at sizes 1 and 400 draw the rest, and one
    streamed pass over the enumeration gives the combos at them."""
    topology = machines.get("X2-4").topology
    filters = _filters(data.draw, topology, active)
    count = count_canonical(topology, **filters)
    drawn = (
        data.draw(st.lists(st.integers(0, count - 1), max_size=30)) if count else []
    )
    oracle_draws = {
        (size, seed): sorted(random.Random(seed).sample(range(count), size))
        if count > size
        else list(range(count))
        for size in (1, 400)
        for seed in SEEDS
    }
    ranks = set(drawn).union(*oracle_draws.values())
    length, at = oracle.combos_at(topology, ranks, **filters)
    assert count == length

    table = _ComboTable(topology, **filters)
    ordered = sorted(ranks)
    assert dict(zip(ordered, table.unrank(ordered))) == at
    for (size, seed), chosen in oracle_draws.items():
        want = sorted(
            (from_shapes(topology, at[i]) for i in chosen), key=Placement.sort_key
        )
        got = sample_canonical(topology, size, seed, **filters)
        assert _ids(got) == _ids(want)
    _assert_shape_sort_keys(topology, at.values())
