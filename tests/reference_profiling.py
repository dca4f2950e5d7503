"""The oracle for workload profiling (Section 4's six runs).

``WorkloadDescriptionGenerator.generate`` scores Run 2's whole
thread-count ladder in one kernel call and Run 6's two predictions in
one ``predict_batch`` call.  ``ReferenceGenerator`` keeps the version
this replaced, verbatim: its ``generate`` predicts Run 6's placements
one ``predict`` call at a time, and its ``_choose_run2_threads`` builds
one population per ladder candidate through ``_max_oversubscription``
(also verbatim).  Run under ``tests.reference_sim.simulate`` (see
:func:`reference_pipeline`), it gives the descriptions the simulator
and profiler of that version measured; today's descriptions must equal
them field for field (``tests/core/test_profiling_oracle.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

from repro.core.amdahl import (
    balanced_slowdown,
    lockstep_slowdown,
    solve_load_balance,
    solve_parallel_fraction,
)
from repro.core.description import DemandVector, RunRecord, WorkloadDescription
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.errors import ProfilingError
from repro.numa import local_fraction_from_remote
from repro.sim import run
from repro.sim.engine import Job
from repro.sim.stressors import cpu_stressor
from repro.units import mean
from repro.workloads.spec import WorkloadSpec
from tests import reference_sim


@contextmanager
def reference_pipeline() -> Iterator[None]:
    """Every timed run inside the block goes through the oracle
    ``simulate`` (``tests/reference_sim.py``)."""
    saved = run.simulate
    run.simulate = reference_sim.simulate
    try:
        yield
    finally:
        run.simulate = saved


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


class ReferenceGenerator(WorkloadDescriptionGenerator):
    """The generator with the per-candidate Run-2 ladder and per-call Run 6."""

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
