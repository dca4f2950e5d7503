"""Placement errors name the machine's shape and the offending value."""

import re

import pytest

from repro.core.placement import (
    Placement,
    count_canonical,
    from_shapes,
    sample_canonical,
)
from repro.errors import PlacementError
from repro.hardware.topology import MachineTopology


def test_empty_placement_names_shape():
    topology = MachineTopology(2, 4, 2)
    with pytest.raises(PlacementError, match=re.escape("(2, 4, 2)")) as err:
        Placement(topology, ())
    assert "at least one thread, got ()" in str(err.value)


def test_dual_thread_core_without_smt_names_shape_and_socket():
    topology = MachineTopology(2, 3, 1)
    with pytest.raises(PlacementError, match=re.escape("(2, 3, 1)")) as err:
        from_shapes(topology, [(1, 0), (0, 2)])
    assert "socket 1 asks for 2" in str(err.value)


def test_sample_size_names_shape_and_size():
    topology = MachineTopology(4, 10, 2)
    with pytest.raises(PlacementError, match=re.escape("(4, 10, 2)")) as err:
        sample_canonical(topology, 0)
    assert "got 0" in str(err.value)


def test_combo_count_beyond_64_bits_names_shape():
    # 16 sockets of 32 SMT-2 cores: about 10^30 shape combos.
    topology = MachineTopology(16, 32, 2)
    with pytest.raises(PlacementError, match=re.escape("(16, 32, 2)")):
        count_canonical(topology)
