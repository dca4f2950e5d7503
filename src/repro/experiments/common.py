"""Shared infrastructure for the evaluation experiments.

``ExperimentContext`` owns the expensive artifacts — machine
descriptions, workload descriptions, placement samples, and timed-run
series — and caches them so that experiments compose cheaply (e.g. the
portability study re-predicts against cached measurements).

``Scale`` bounds the work: the paper burned 342 machine-days on its
placement sweeps; ``QUICK`` keeps a CI-sized subset, ``DEFAULT``
reproduces every claim at reduced sampling, ``FULL`` exhausts the
canonical placement space of the smaller machines like the paper did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.evaluation import EvaluationResult, PlacementOutcome
from repro.core.machine_desc import MachineDescription, generate_machine_description
from repro.core.placement import Placement, sample_canonical
from repro.core.sweep import sweep_placements
from repro.core.predictor import PandiaPredictor
from repro.core.description import WorkloadDescription
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.hardware.spec import MachineSpec
from repro.sim.noise import NoiseModel
from repro.sim.run import run_workload
from repro.workloads import catalog


@dataclass(frozen=True)
class Scale:
    """How much of the placement/workload space an experiment covers."""

    name: str
    max_placements: int
    workload_names: Optional[Tuple[str, ...]] = None

    def workloads(self) -> List[str]:
        if self.workload_names is None:
            return catalog.names()
        return list(self.workload_names)


QUICK = Scale("quick", 60, ("MD", "CG", "EP", "Swim", "NPO", "PageRank"))
DEFAULT = Scale("default", 350, None)
FULL = Scale("full", 100_000, None)


@dataclass
class ExperimentReport:
    """One reproduced artifact: tables, optional plot, and headline facts."""

    experiment_id: str
    title: str
    paper_claim: str
    body: str
    headline: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper: {self.paper_claim}",
            "",
            self.body,
        ]
        if self.headline:
            lines.append("")
            lines.append("headline numbers:")
            for key, value in self.headline.items():
                lines.append(f"  {key} = {value:.3f}")
        return "\n".join(lines)


class ExperimentContext:
    """Caches machine/workload descriptions and timed-run series.

    ``cache_path`` persists timed-run measurements across processes
    (see :mod:`repro.experiments.cache`): re-running an experiment at
    the same scale then reuses every measurement, like the paper's
    once-collected timed-run corpus.
    """

    def __init__(
        self,
        scale: Scale = DEFAULT,
        noise: Optional[NoiseModel] = None,
        cache_path: Optional[str] = None,
    ) -> None:
        self.scale = scale
        self.noise = noise if noise is not None else NoiseModel()
        self._machine_descriptions: Dict[str, MachineDescription] = {}
        self._generators: Dict[str, WorkloadDescriptionGenerator] = {}
        self._descriptions: Dict[Tuple[str, str], WorkloadDescription] = {}
        self._placements: Dict[Tuple, List[Placement]] = {}
        self._measured: Dict[Tuple[str, str, Tuple], List[Tuple[Placement, float]]] = {}
        self._cache = None
        if cache_path is not None:
            from repro.experiments.cache import MeasurementCache

            self._cache = MeasurementCache(cache_path)

    # -- descriptions -----------------------------------------------------

    def machine(self, name: str) -> MachineSpec:
        return machines.get(name)

    def machine_description(self, name: str) -> MachineDescription:
        if name not in self._machine_descriptions:
            self._machine_descriptions[name] = generate_machine_description(
                self.machine(name), noise=self.noise
            )
        return self._machine_descriptions[name]

    def predictor(self, machine_name: str) -> PandiaPredictor:
        return PandiaPredictor(self.machine_description(machine_name))

    def generator(self, machine_name: str) -> WorkloadDescriptionGenerator:
        if machine_name not in self._generators:
            self._generators[machine_name] = WorkloadDescriptionGenerator(
                self.machine(machine_name),
                self.machine_description(machine_name),
                noise=self.noise,
            )
        return self._generators[machine_name]

    def description(self, machine_name: str, workload_name: str) -> WorkloadDescription:
        key = (machine_name, workload_name)
        if key not in self._descriptions:
            self._descriptions[key] = self.generator(machine_name).generate(
                catalog.get(workload_name)
            )
        return self._descriptions[key]

    # -- placements and timed runs ------------------------------------------

    def placements(self, machine_name: str, **filters) -> List[Placement]:
        """Sampled canonical placements plus the anchor placements.

        The random sample is augmented with the packed/spread sweep
        family (which includes the full machine and every one-per-core
        count) so that peak-thread statistics and regret are computed
        against the placements a practitioner would certainly try.
        """
        key = (machine_name, tuple(sorted(filters.items())))
        if key not in self._placements:
            topo = self.machine(machine_name).topology
            sample = sample_canonical(topo, self.scale.max_placements, seed=0, **filters)
            anchors = [
                p for p in sweep_placements(topo) if self._passes(p, filters)
            ]
            seen = {p.canonical_key(): p for p in anchors}
            for p in sample:
                seen.setdefault(p.canonical_key(), p)
            merged = sorted(seen.values(), key=lambda p: p.sort_key())
            self._placements[key] = merged
        return self._placements[key]

    @staticmethod
    def _passes(placement: Placement, filters: Dict) -> bool:
        if "max_threads" in filters and placement.n_threads > filters["max_threads"]:
            return False
        if "max_sockets" in filters and len(placement.active_sockets()) > filters["max_sockets"]:
            return False
        if "max_cores" in filters and len(placement.threads_per_core()) > filters["max_cores"]:
            return False
        return True

    def measured(
        self, machine_name: str, workload_name: str, **filters
    ) -> List[Tuple[Placement, float]]:
        """Timed runs of every sampled placement (cached)."""
        key = (machine_name, workload_name, tuple(sorted(filters.items())))
        if key not in self._measured:
            machine = self.machine(machine_name)
            spec = catalog.get(workload_name)
            runs = []
            for placement in self.placements(machine_name, **filters):
                elapsed = self._cached_run(machine, spec, placement)
                runs.append((placement, elapsed))
            self._measured[key] = runs
        return self._measured[key]

    def _cached_run(self, machine, spec, placement: Placement) -> float:
        if self._cache is not None:
            from repro.experiments.cache import measurement_key

            cache_key = measurement_key(machine.name, spec, placement, self.noise)
            hit = self._cache.get(cache_key)
            if hit is not None:
                return hit
        run = run_workload(
            machine,
            spec,
            placement.hw_thread_ids,
            noise=self.noise,
            run_tag="evaluation",
        )
        if self._cache is not None:
            self._cache.put(cache_key, run.elapsed_s)
        return run.elapsed_s

    # -- composition -----------------------------------------------------

    def evaluation(
        self,
        machine_name: str,
        workload_name: str,
        description_machine: Optional[str] = None,
        **filters,
    ) -> EvaluationResult:
        """Measured-vs-predicted series for one workload on one machine.

        ``description_machine`` substitutes a workload description
        generated on a *different* machine — the Figure 11(c)/(d)
        portability study.
        """
        desc = self.description(description_machine or machine_name, workload_name)
        predictor = self.predictor(machine_name)
        measured = self.measured(machine_name, workload_name, **filters)
        # One batched fixed point over the whole placement set instead
        # of a per-placement predict loop.
        predictions = predictor.predict_batch(desc, [pl for pl, _ in measured])
        outcomes = [
            PlacementOutcome(
                placement=placement,
                measured_time_s=measured_s,
                predicted_time_s=prediction.predicted_time_s,
            )
            for (placement, measured_s), prediction in zip(measured, predictions)
        ]
        return EvaluationResult(
            workload_name=workload_name,
            machine_name=machine_name,
            outcomes=outcomes,
        )

    def workloads(self) -> List[str]:
        return self.scale.workloads()
