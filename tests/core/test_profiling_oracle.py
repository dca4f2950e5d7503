"""Machine and workload descriptions equal the oracle's, field for field.

``tests/reference_profiling.py`` keeps the profiler that built one
population per Run-2 ladder candidate and predicted Run 6's two
placements one call each; ``tests/reference_sim.py`` keeps the
simulator that re-solved and re-timed every outer pass.  Run together,
they give the machine description and the 22 catalog workload
descriptions that version measured.  On every catalog machine, with
noise on and off, today's pipeline must give the same, field for field
under ``==``.

The Run-2 ladder is scored as one population; each of its rows must
equal ``full_load_ratios`` on that placement alone, key for key.
"""

from dataclasses import fields
from functools import lru_cache

import pytest

from repro.core.machine_desc import generate_machine_description
from repro.core.placement import Placement
from repro.core.workload_desc import WorkloadDescriptionGenerator, _probe
from repro.hardware import machines
from repro.sim.noise import NO_NOISE, NoiseModel
from repro.workloads import catalog
from tests.reference_profiling import ReferenceGenerator, reference_pipeline

NOISES = {"quiet": NO_NOISE, "noisy": NoiseModel()}


@lru_cache(maxsize=None)
def _pipeline(machine_name, noise_id):
    """(machine description, generator, the 22 descriptions) of today's code."""
    machine, noise = machines.get(machine_name), NOISES[noise_id]
    md = generate_machine_description(machine, noise=noise)
    generator = WorkloadDescriptionGenerator(machine, md, noise=noise)
    return md, generator, [generator.generate(s) for s in catalog.evaluation_set()]


def _assert_same_fields(got, want, what):
    for f in fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f"{what}: {f.name}"


@pytest.mark.parametrize("noise_id", sorted(NOISES))
@pytest.mark.parametrize("machine_name", machines.names())
def test_descriptions_equal_the_oracle(machine_name, noise_id):
    machine, noise = machines.get(machine_name), NOISES[noise_id]
    with reference_pipeline():
        md_ref = generate_machine_description(machine, noise=noise)
        reference = ReferenceGenerator(machine, md_ref, noise=noise)
        want = [reference.generate(spec) for spec in catalog.evaluation_set()]
    md, _, got = _pipeline(machine_name, noise_id)
    _assert_same_fields(md, md_ref, machine_name)
    assert len(got) == len(want) == 22
    for mine, theirs in zip(got, want):
        _assert_same_fields(mine, theirs, f"{theirs.name} on {machine_name}")


@pytest.mark.parametrize("machine_name", machines.names())
def test_ladder_rows_equal_lone_calls(machine_name):
    _, generator, descriptions = _pipeline(machine_name, "quiet")
    topo = generator.machine.topology
    counts = range(topo.cores_per_socket - topo.cores_per_socket % 2, 1, -2)
    placements = [
        Placement(topo, generator.osi.one_thread_per_core(n, sockets=[0]))
        for n in counts
    ]
    predictor = generator.predictor
    for wd in descriptions:
        probe = _probe(machine_name, wd.demands)
        ladder = predictor._full_load_ratios(probe, placements)
        for placement, row in zip(placements, ladder):
            alone = predictor.full_load_ratios(probe, placement)
            assert list(row.items()) == list(alone.items())
