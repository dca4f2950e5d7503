"""The oracle for kernel results built on demand.

``PandiaPredictor._solve`` returns columns, and a kernel-built
:class:`Prediction` or :class:`CoSchedulePrediction` builds its
per-thread tuples and per-resource dictionaries when first read.  The
functions here are the packaging the kernel used to do eagerly: every
field of every job built at once, the resource dictionaries from one
:meth:`_Population.resource_dicts` call over the whole population.
Lazy results must equal them field for field under ``==``, with the
same types and the same dictionary key order.

:func:`eager_oracle` installs them alongside the kernel: every kernel
call inside the ``with`` block also packages its final state eagerly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields
from itertools import islice
from typing import Iterator, List, Sequence

import numpy as np

from repro.core.coscheduling import CoSchedulePrediction, WorkloadOutcome
from repro.core.predictor import IterationTrace, Prediction, _Population


def eager_predictions(
    self: _Population,
    final: np.ndarray,
    iterations: np.ndarray,
    converged: np.ndarray,
    trace: List[IterationTrace],
) -> List[List[Prediction]]:
    """One :class:`Prediction` per job, grouped by row."""
    valid = self.valid
    f_init_t = self.per_thread(self.f_init)
    slowdown = np.where(valid, final, 1.0)
    futil = np.where(valid, f_init_t / slowdown, 0.0)
    loads, caps = self.resource_dicts(futil)
    inv = np.where(valid, 1.0 / slowdown, 0.0)
    inv_total = np.bincount(
        self.seg_job.ravel(), inv.ravel(), minlength=self.pop * self.J
    )[self.job_row * self.J + self.job_pos]
    speedup = self.amdahl * (inv_total / self.n_job)
    time = self.t1 / speedup

    # Valid threads in row-major order are the jobs' threads in job
    # order, so each job's values are the next n of these streams.
    slowdowns = iter(final[valid].tolist())
    utilisations = iter(futil[valid].tolist())
    per_job = zip(
        self.n_job.tolist(), self.amdahl.tolist(), speedup.tolist(), time.tolist()
    )
    machine = self.md.machine_name
    out: List[List[Prediction]] = []
    for row, it, conv, row_loads, row_caps in zip(
        self.rows, iterations.tolist(), converged.tolist(), loads, caps
    ):
        preds: List[Prediction] = []
        for (wd, placement), (n, amdahl, speedup_j, time_j) in zip(row, per_job):
            preds.append(
                Prediction(
                    workload_name=wd.name,
                    machine_name=machine,
                    placement=placement,
                    amdahl=amdahl,
                    speedup=speedup_j,
                    predicted_time_s=time_j,
                    slowdowns=tuple(islice(slowdowns, n)),
                    utilisations=tuple(islice(utilisations, n)),
                    iterations=it,
                    converged=conv,
                    resource_loads=row_loads,
                    resource_capacities=row_caps,
                )
            )
        out.append(preds)
    out[0][0].trace = trace
    return out


def eager_joint(row: Sequence[Prediction]) -> CoSchedulePrediction:
    """Package one kernel row's per-job predictions."""
    return CoSchedulePrediction(
        outcomes=[
            WorkloadOutcome(
                workload_name=p.workload_name,
                amdahl=p.amdahl,
                speedup=p.speedup,
                predicted_time_s=p.predicted_time_s,
                slowdowns=p.slowdowns,
            )
            for p in row
        ],
        iterations=row[0].iterations,
        converged=row[0].converged,
        resource_loads=row[0].resource_loads,
        resource_capacities=row[0].resource_capacities,
    )


@contextmanager
def eager_oracle() -> Iterator[List[List[List[Prediction]]]]:
    """Within the block, every kernel call also packages its results
    eagerly; yields the list of those packagings, one per call."""
    calls: List[List[List[Prediction]]] = []
    columns = _Population.columns

    def both(self, final, iterations, converged, trace):
        calls.append(eager_predictions(self, final, iterations, converged, trace))
        return columns(self, final, iterations, converged, trace)

    _Population.columns = both
    try:
        yield calls
    finally:
        _Population.columns = columns


def assert_same_result(lazy, eager) -> None:
    """*lazy* equals *eager* under ``==`` and field by field, with the
    same types and dictionary key order; outcomes are compared the same
    way."""
    assert type(lazy) is type(eager)
    assert lazy == eager
    for f in fields(eager):
        got, want = getattr(lazy, f.name), getattr(eager, f.name)
        assert type(got) is type(want), f.name
        assert got == want, f.name
        if isinstance(want, dict):
            assert list(got) == list(want), f.name
        if f.name == "outcomes":
            for a, b in zip(got, want):
                assert_same_result(a, b)
