"""Workload description generation: the six profiling runs (Section 4).

The generator executes a workload six times under carefully chosen
placements and perturbations, peeling off one model parameter per step:

* **Run 1** — one thread: ``t1`` and the demand vector ``d``.
* **Run 2** — ``n2`` threads, one per core, one socket, chosen (from
  Run 1's demands) to avoid oversubscribing anything: parallel
  fraction ``p`` by inverting Amdahl's law.
* **Run 3** — the same threads split across two sockets: inter-socket
  overhead ``o_s``.
* **Run 4** — Run 2's placement with a CPU stressor beside *every*
  thread: the cost of slowing all threads uniformly.
* **Run 5** — a stressor beside *one* thread: how a straggler hurts,
  which interpolates the load-balance factor ``l`` between the
  lock-step and work-stealing extremes.
* **Run 6** — the same threads packed two per core: burstiness ``b``.

Each step's measured relative time ``r_x = t_x/t1`` is split into the
known factor ``k_x`` — what the *partial* Pandia model built from the
previous steps already predicts for that placement — and the unknown
factor ``u_x = r_x/k_x`` that the new parameter must explain.  Profiling
runs fill otherwise-idle cores with a background load so all timings are
taken at the all-core turbo frequency (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.amdahl import (
    balanced_slowdown,
    lockstep_slowdown,
    solve_load_balance,
    solve_parallel_fraction,
)
from repro.core.description import DemandVector, RunRecord, WorkloadDescription
from repro.core.machine_desc import MachineDescription
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor
from repro.errors import ProfilingError
from repro.hardware.spec import MachineSpec
from repro.numa import local_fraction_from_remote
from repro.sim.engine import Job
from repro.sim.noise import NoiseModel
from repro.sim.os_iface import SimulatedOS
from repro.sim.run import TimedRun, run_workload
from repro.sim.stressors import cpu_stressor
from repro.units import mean
from repro.workloads.spec import WorkloadSpec


def max_oversubscription(
    md: MachineDescription, demands: DemandVector, placement: Placement
) -> float:
    """Largest load/capacity ratio with every thread fully busy (f = 1).

    Used to pick Run 2's thread count: the largest even count that keeps
    this at or below 1 (Section 4.2's condition (iii)).
    """
    return _max_oversubscription(PandiaPredictor(md), demands, placement)


def _max_oversubscription(
    predictor: PandiaPredictor, demands: DemandVector, placement: Placement
) -> float:
    probe = WorkloadDescription(
        name="probe",
        machine_name=predictor.md.machine_name,
        t1=1.0,
        demands=demands,
        parallel_fraction=1.0,
    )
    ratios = predictor.full_load_ratios(probe, placement)
    return max(1.0, *ratios.values())


@dataclass
class WorkloadDescriptionGenerator:
    """Builds workload descriptions on one machine.

    Parameters
    ----------
    machine:
        The physical machine the profiling runs execute on.
    machine_description:
        Its measured description (used both to choose Run 2's thread
        count and to compute the known factors ``k_x``).
    noise:
        Measurement noise model for the timed runs.
    """

    machine: MachineSpec
    machine_description: MachineDescription
    noise: Optional[NoiseModel] = None

    def __post_init__(self) -> None:
        if self.machine.name != self.machine_description.machine_name:
            raise ProfilingError(
                f"machine description is for {self.machine_description.machine_name}, "
                f"not {self.machine.name}"
            )
        self.osi = SimulatedOS(self.machine)
        self.predictor = PandiaPredictor(self.machine_description)

    # -- public API ------------------------------------------------------

    def generate_partial(self, spec: WorkloadSpec, steps: int) -> WorkloadDescription:
        """A description from only the first *steps* modelling steps.

        Supports the paper's runtime-integration scenario (Section 8):
        a runtime system can start predicting placements from the early
        iterations of a parallel loop, long before all six profiling
        runs have happened.  Step 1 needs one run, step 2 two, and so
        on; unmeasured parameters keep their neutral defaults.
        """
        if not 1 <= steps <= 5:
            raise ProfilingError(f"steps must be 1..5, got {steps}")
        return self.generate(spec, max_step=steps)

    def generate(self, spec: WorkloadSpec, max_step: int = 5) -> WorkloadDescription:
        """Run the profiling runs for steps 1..*max_step* (default: all).

        Runs beyond *max_step* are skipped entirely — a step-2
        description costs two runs, not six.
        """
        if not 1 <= max_step <= 5:
            raise ProfilingError(f"max_step must be 1..5, got {max_step}")
        topo = self.machine.topology
        runs: List[RunRecord] = []

        # ---- Run 1: single thread --------------------------------------
        run1 = self._run(spec, self.osi.one_thread_per_core(1, sockets=[0]), tag="run1")
        t1 = run1.elapsed_s
        demands = self._demand_vector(run1)
        runs.append(RunRecord("run1", 1, t1, 1.0, 1.0, 1.0))

        # Run 2 requires two one-per-core threads on one socket; a
        # single-core socket cannot express the contention-free
        # placement, so the model stops at step 1 (neutral defaults).
        if max_step == 1 or topo.cores_per_socket < 2:
            return WorkloadDescription(
                name=spec.name,
                machine_name=self.machine.name,
                t1=t1,
                demands=demands,
                parallel_fraction=1.0,
                runs=tuple(runs),
            )

        # ---- Run 2: parallel fraction ----------------------------------
        n2 = self._choose_run2_threads(demands)
        placement2 = Placement(topo, self.osi.one_thread_per_core(n2, sockets=[0]))
        run2 = self._run(spec, placement2.hw_thread_ids, tag="run2")
        r2 = run2.elapsed_s / t1
        u2 = r2  # k2 = 1 by construction: no contention in Run 2
        p = solve_parallel_fraction(u2, n2)
        runs.append(RunRecord("run2", n2, run2.elapsed_s, r2, 1.0, u2))
        partial = WorkloadDescription(
            name=spec.name,
            machine_name=self.machine.name,
            t1=t1,
            demands=demands,
            parallel_fraction=p,
        )

        # ---- Run 3: NUMA locality and inter-socket overhead --------------
        os_value = 0.0
        if topo.n_sockets >= 2 and max_step >= 3:
            placement3 = Placement(topo, self.osi.split_across_sockets(n2))
            run3 = self._run(spec, placement3.hw_thread_ids, tag="run3")

            # The interconnect counters of this run reveal how much of
            # the workload's DRAM traffic is node-local (Section 2.3:
            # inter-socket bandwidth is part of the resource demands).
            dram_total = run3.counters.dram_bandwidth_total
            if dram_total > 0:
                remote = run3.counters.link_bandwidth_total / dram_total
                demands = demands.with_locality(
                    local_fraction_from_remote(remote, n_active_sockets=2)
                )

            partial = WorkloadDescription(
                name=spec.name,
                machine_name=self.machine.name,
                t1=t1,
                demands=demands,
                parallel_fraction=p,
            )
            pred3 = self.predictor.predict(partial, placement3)
            k3 = pred3.relative_time
            f3 = mean(list(pred3.utilisations))
            r3 = run3.elapsed_s / t1
            u3 = r3 / k3
            os_value = max(0.0, (u3 - 1.0) * f3 / (n2 / 2.0))
            runs.append(RunRecord("run3", n2, run3.elapsed_s, r3, k3, u3))
        partial = WorkloadDescription(
            name=spec.name,
            machine_name=self.machine.name,
            t1=t1,
            demands=demands,
            parallel_fraction=p,
            inter_socket_overhead=os_value,
        )

        # ---- Runs 4 & 5: load-balancing factor ---------------------------
        l_value = 1.0 if max_step < 4 else 0.5
        if topo.threads_per_core >= 2 and max_step >= 4:
            siblings = self.osi.smt_siblings(placement2.hw_thread_ids)
            stress_all = [Job(cpu_stressor(), siblings)]
            run4 = self._run(spec, placement2.hw_thread_ids, tag="run4", stressors=stress_all)
            u4 = run4.elapsed_s / t1  # k4 = k2 = 1
            runs.append(RunRecord("run4", n2, run4.elapsed_s, u4, 1.0, u4))

            stress_one = [Job(cpu_stressor(), (siblings[0],))]
            run5 = self._run(spec, placement2.hw_thread_ids, tag="run5", stressors=stress_one)
            u5 = run5.elapsed_s / t1
            runs.append(RunRecord("run5", n2, run5.elapsed_s, u5, 1.0, u5))

            slowed = max(1.0, u4 / u2)
            sl = u5 / u2
            si = [1.0] * (n2 - 1) + [slowed]
            s_lock = lockstep_slowdown(p, si)
            s_bal = balanced_slowdown(p, si)
            l_value = solve_load_balance(sl, s_lock, s_bal)
        partial = WorkloadDescription(
            name=spec.name,
            machine_name=self.machine.name,
            t1=t1,
            demands=demands,
            parallel_fraction=p,
            inter_socket_overhead=os_value,
            load_balance=l_value,
        )

        # ---- Run 6: core burstiness --------------------------------------
        b_value = 0.0
        if topo.threads_per_core >= 2 and max_step >= 5:
            placement6 = Placement(topo, self.osi.packed_smt(n2, sockets=[0]))
            pred6 = self.predictor.predict(partial, placement6)
            k6 = pred6.relative_time
            f6 = mean(list(pred6.utilisations))
            run6 = self._run(spec, placement6.hw_thread_ids, tag="run6")
            r6 = run6.elapsed_s / t1
            u6 = r6 / k6
            # Run 2's unknown factor under the *current* partial model:
            # the steps-1..4 model now explains its Amdahl share, so the
            # u6/u2 comparison isolates what collocation alone adds.
            k2_now = self.predictor.predict(partial, placement2).relative_time
            u2_now = r2 / k2_now
            b_value = max(0.0, (u6 / u2_now - 1.0) / f6)
            runs.append(RunRecord("run6", n2, run6.elapsed_s, r6, k6, u6))

        return WorkloadDescription(
            name=spec.name,
            machine_name=self.machine.name,
            t1=t1,
            demands=demands,
            parallel_fraction=p,
            inter_socket_overhead=os_value,
            load_balance=l_value,
            burstiness=b_value,
            runs=tuple(runs),
        )

    # -- internals --------------------------------------------------------

    def _run(
        self,
        spec: WorkloadSpec,
        hw_thread_ids: Tuple[int, ...],
        tag: str,
        stressors: Optional[List[Job]] = None,
    ) -> TimedRun:
        return run_workload(
            self.machine,
            spec,
            hw_thread_ids,
            stressor_jobs=stressors or (),
            fill_idle_cores=True,
            noise=self.noise,
            run_tag=f"profile/{spec.name}/{tag}",
        )

    def _demand_vector(self, run1: TimedRun) -> DemandVector:
        counters = run1.counters
        cache_bw = {
            level: counters.cache_bandwidth(level)
            for level in self.machine_description.cache_levels
            if counters.cache_bandwidth(level) > 0
        }
        return DemandVector(
            inst_rate=counters.instruction_rate,
            cache_bw=cache_bw,
            dram_bw=counters.dram_bandwidth_total,
            io_bw=counters.nic_bandwidth,
        )

    def _choose_run2_threads(self, demands: DemandVector) -> int:
        """Largest even one-per-core single-socket count with no contention."""
        topo = self.machine.topology
        best = 2
        max_even = topo.cores_per_socket - (topo.cores_per_socket % 2)
        for n in range(max_even, 1, -2):
            placement = Placement(topo, self.osi.one_thread_per_core(n, sockets=[0]))
            if _max_oversubscription(self.predictor, demands, placement) <= 1.0:
                best = n
                break
        return best
