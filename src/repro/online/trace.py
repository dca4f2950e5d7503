"""Reproducible job-arrival traces: Poisson, bursty/diurnal, replay.

A :class:`Job` is one arrival: a profiled
:class:`~repro.core.description.WorkloadDescription` cloned under a
unique per-job name (the joint predictor and the residency model key
on names, so two concurrent instances of the same profiled workload
must not collide), plus an arrival time.

Every generator takes an explicit seed and draws from its own
``random.Random`` — the same seed and pool always yield the identical
trace, which the determinism tests rely on.  Traces round-trip through
plain records (``to_records`` / :func:`replay_trace`), so a trace can
be saved as JSON and replayed against a different policy or fleet.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.description import WorkloadDescription
from repro.errors import ReproError

__all__ = ["ArrivalTrace", "Job", "diurnal_trace", "poisson_trace", "replay_trace"]


@dataclass(frozen=True)
class Job:
    """One arrival in the stream."""

    workload: WorkloadDescription
    arrival_s: float
    spec_name: str  # the pool workload this job was cloned from

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ReproError(
                f"job {self.workload.name!r}: arrival time cannot be negative"
            )

    @property
    def name(self) -> str:
        return self.workload.name


@dataclass(frozen=True)
class ArrivalTrace:
    """A finite, time-ordered job stream with its generation metadata."""

    jobs: Tuple[Job, ...]
    kind: str = "replay"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ReproError("an arrival trace needs at least one job")
        names = [j.name for j in self.jobs]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate job names in trace: {sorted(names)}")
        for before, job in zip(self.jobs, self.jobs[1:]):
            if job.arrival_s < before.arrival_s:
                raise ReproError(
                    f"trace jobs must be ordered by arrival time: job "
                    f"{job.name!r} arrives at {job.arrival_s} s, before "
                    f"{before.name!r} at {before.arrival_s} s"
                )

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def duration_s(self) -> float:
        """Span from first to last arrival."""
        return self.jobs[-1].arrival_s - self.jobs[0].arrival_s

    def to_records(self) -> List[Dict[str, object]]:
        """Plain JSON-able records; replay with :func:`replay_trace`."""
        return [
            {"job": j.name, "workload": j.spec_name, "arrival_s": j.arrival_s}
            for j in self.jobs
        ]


def _clone(workload: WorkloadDescription, job_name: str) -> WorkloadDescription:
    """The pool description under a unique per-job name.

    Predictions never read the name, so clones predict identically to
    the original (and the scheduler's name-free solo-estimate memo
    still hits).
    """
    return dataclasses.replace(workload, name=job_name)


def _job(pool_entry: WorkloadDescription, index: int, arrival: float) -> Job:
    name = f"{pool_entry.name}-{index:05d}"
    return Job(
        workload=_clone(pool_entry, name),
        arrival_s=arrival,
        spec_name=pool_entry.name,
    )


def _check_pool(pool: Sequence[WorkloadDescription]) -> None:
    if not pool:
        raise ReproError("trace generation needs a non-empty workload pool")
    names = [w.name for w in pool]
    if len(set(names)) != len(names):
        raise ReproError(f"duplicate workload names in pool: {names}")


def _check_n_jobs(n_jobs: int) -> None:
    if n_jobs < 1:
        raise ReproError(f"a trace needs at least one job, got n_jobs={n_jobs}")


def poisson_trace(
    pool: Sequence[WorkloadDescription],
    n_jobs: int,
    rate_per_s: float,
    seed: int = 0,
) -> ArrivalTrace:
    """Memoryless arrivals at a constant mean rate (jobs/second)."""
    import random

    _check_pool(pool)
    _check_n_jobs(n_jobs)
    if rate_per_s <= 0:
        raise ReproError(f"arrival rate must be positive, got {rate_per_s}")
    rng = random.Random(seed)
    t = 0.0
    jobs = []
    for i in range(n_jobs):
        t += rng.expovariate(rate_per_s)
        jobs.append(_job(rng.choice(list(pool)), i, t))
    return ArrivalTrace(jobs=tuple(jobs), kind="poisson", seed=seed)


def diurnal_trace(
    pool: Sequence[WorkloadDescription],
    n_jobs: int,
    mean_rate_per_s: float,
    period_s: float,
    amplitude: float = 0.8,
    seed: int = 0,
) -> ArrivalTrace:
    """Bursty arrivals: a Poisson process whose rate swings sinusoidally.

    ``rate(t) = mean * (1 + amplitude * sin(2*pi*t / period))`` — the
    classic diurnal load shape (datacenter day/night traffic).  With
    ``amplitude`` close to 1 the trough nearly idles and the peak runs
    at almost twice the mean rate.  Gaps are drawn from an exponential
    at the instantaneous rate (a step-wise approximation of the
    non-homogeneous process; adequate for scheduling studies and fully
    deterministic under the seed).
    """
    import random

    _check_pool(pool)
    _check_n_jobs(n_jobs)
    if mean_rate_per_s <= 0:
        raise ReproError(
            f"mean arrival rate must be positive, got {mean_rate_per_s}"
        )
    if period_s <= 0:
        raise ReproError(f"diurnal period must be positive, got {period_s}")
    if not 0.0 <= amplitude < 1.0:
        raise ReproError(f"amplitude must be in [0, 1), got {amplitude}")
    rng = random.Random(seed)
    t = 0.0
    jobs = []
    for i in range(n_jobs):
        rate = mean_rate_per_s * (
            1.0 + amplitude * math.sin(2.0 * math.pi * t / period_s)
        )
        t += rng.expovariate(rate)
        jobs.append(_job(rng.choice(list(pool)), i, t))
    return ArrivalTrace(jobs=tuple(jobs), kind="diurnal", seed=seed)


def replay_trace(
    records: Sequence[Mapping[str, object]],
    pool: Mapping[str, WorkloadDescription],
) -> ArrivalTrace:
    """Rebuild a fixed trace from ``to_records`` output (or hand-written
    records): each record names a pool workload and an arrival time;
    ``job`` is optional and defaults to ``<workload>-<index>``."""
    if not records:
        raise ReproError("a trace needs at least one job")
    jobs = []
    for i, record in enumerate(records):
        try:
            spec_name = str(record["workload"])
            arrival = float(record["arrival_s"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            raise ReproError(
                f"trace record {i} needs 'workload' and 'arrival_s' fields, "
                f"got {record!r}"
            ) from None
        if spec_name not in pool:
            known = ", ".join(sorted(pool))
            raise ReproError(
                f"trace record {i}: no pool workload {spec_name!r}; pool has: "
                f"{known}"
            )
        job_name = str(record.get("job") or f"{spec_name}-{i:05d}")
        jobs.append(
            Job(
                workload=_clone(pool[spec_name], job_name),
                arrival_s=arrival,
                spec_name=spec_name,
            )
        )
    return ArrivalTrace(jobs=tuple(jobs), kind="replay", seed=None)
