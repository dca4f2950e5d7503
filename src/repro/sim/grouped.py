"""Ground truth for workloads with heterogeneous thread groups.

Pandia assumes homogeneous threads; the paper's first stated limitation
(Section 6.4) is "workloads using multiple kinds of threads, such as a
master thread and n-1 slave threads", with the suggested remedy of
"identifying groups of threads".  This module provides the substrate
side: a grouped workload is a set of named groups, each a homogeneous
:class:`WorkloadSpec` carrying its share of the work; the groups run
concurrently and the workload completes when its slowest group does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.hardware.spec import MachineSpec
from repro.sim.engine import Job, SimOptions, SimResult, simulate
from repro.sim.noise import NoiseModel
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class GroupedWorkloadSpec:
    """A workload made of named heterogeneous thread groups.

    Each group's spec carries that group's *own* total work; the groups
    execute concurrently (a master coordinating, workers computing) and
    the workload finishes when every group has.
    """

    name: str
    groups: Tuple[Tuple[str, WorkloadSpec], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise SimulationError(f"{self.name}: needs at least one group")
        labels = [label for label, _ in self.groups]
        if len(set(labels)) != len(labels):
            raise SimulationError(f"{self.name}: duplicate group labels {labels}")
        for label, spec in self.groups:
            if spec.background:
                raise SimulationError(
                    f"{self.name}/{label}: groups must be foreground specs"
                )

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.groups)

    def group(self, label: str) -> WorkloadSpec:
        for l, spec in self.groups:
            if l == label:
                return spec
        raise SimulationError(f"{self.name}: no group {label!r}")


@dataclass
class GroupedRun:
    """Outcome of one grouped run: per-group timings and the overall."""

    workload_name: str
    group_times: Dict[str, float]
    sim: SimResult

    @property
    def elapsed_s(self) -> float:
        """Completion of the slowest group — the workload's wall time."""
        return max(self.group_times.values())

    def group_time(self, label: str) -> float:
        try:
            return self.group_times[label]
        except KeyError:
            raise SimulationError(f"no group {label!r} in this run") from None


def run_grouped(
    machine: MachineSpec,
    grouped: GroupedWorkloadSpec,
    placements: Mapping[str, Sequence[int]],
    noise: Optional[NoiseModel] = None,
    run_tag: str = "",
) -> GroupedRun:
    """Run every group concurrently, pinned per *placements*.

    ``placements`` maps group label to hardware-thread ids; all groups
    must be placed and may not overlap (the engine enforces the
    latter).
    """
    missing = set(grouped.labels) - set(placements)
    if missing:
        raise SimulationError(
            f"{grouped.name}: groups without placements: {sorted(missing)}"
        )
    extra = set(placements) - set(grouped.labels)
    if extra:
        raise SimulationError(f"{grouped.name}: unknown groups placed: {sorted(extra)}")

    jobs = [
        Job(spec, tuple(placements[label])) for label, spec in grouped.groups
    ]
    options = SimOptions(
        noise=noise if noise is not None else NoiseModel(),
        run_tag=f"grouped/{grouped.name}/{run_tag}",
    )
    sim = simulate(machine, jobs, options)
    group_times = {
        label: result.elapsed_s
        for (label, _), result in zip(grouped.groups, sim.job_results)
    }
    return GroupedRun(workload_name=grouped.name, group_times=group_times, sim=sim)


def master_worker(
    name: str,
    worker_spec: WorkloadSpec,
    master_fraction: float = 0.05,
    master_cpi: float = 1.0,
) -> GroupedWorkloadSpec:
    """The paper's canonical heterogeneous shape: one master, n workers.

    The master performs ``master_fraction`` of the total work as a
    serial coordination stream (no parallel section of its own); the
    workers share the rest with the original spec's behaviour.
    """
    if not 0.0 < master_fraction < 1.0:
        raise SimulationError(
            f"{name}: master fraction must be in (0, 1), got {master_fraction!r}"
        )
    master = worker_spec.with_(
        name=f"{name}/master",
        work_ginstr=worker_spec.work_ginstr * master_fraction,
        cpi=master_cpi,
        parallel_fraction=0.0,
        l1_bpi=2.0,
        l2_bpi=0.5,
        l3_bpi=0.1,
        dram_bpi=0.05,
        comm_fraction=0.0,
    )
    workers = worker_spec.with_(
        name=f"{name}/workers",
        work_ginstr=worker_spec.work_ginstr * (1.0 - master_fraction),
    )
    return GroupedWorkloadSpec(
        name=name, groups=(("master", master), ("workers", workers))
    )
