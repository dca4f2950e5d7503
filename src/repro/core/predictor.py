"""The Pandia performance predictor (paper Section 5).

Given a machine description, a workload description and a proposed
thread placement, predict the workload's performance.  The prediction
combines an Amdahl's-law speedup with per-thread slowdowns computed by
iterating three penalty calculations until stable (Figure 8):

1. **resource contention** — each thread is slowed by the largest
   oversubscription among the resources it touches, plus a burstiness
   penalty when it shares a core (Section 5.1);
2. **inter-socket communication** — the measured per-remote-peer
   overhead, interpolated between lock-step and work-weighted extremes
   by the load-balance factor (Section 5.2);
3. **load balancing** — threads are dragged toward the slowest thread
   to the degree the workload cannot rebalance (Section 5.3).

Thread-utilisation factors scale every demand ("a thread busy 50% of
the time demands 50% less") and carry information between iterations
(Section 5.4).  The worked example of Figures 7 and 9 is reproduced
number-for-number by the test suite.

One kernel evaluates the model: :meth:`PandiaPredictor._solve` runs
the fixed point as masked NumPy operations over a population of rows,
each row a co-schedule of one or more (workload, placement) jobs on the
machine, with converged rows dropping out of further iterations.
:meth:`PandiaPredictor.predict` and :meth:`PandiaPredictor.predict_batch`
are one-job rows; :class:`repro.core.coscheduling.CoSchedulePredictor`
submits joint rows.  The golden oracle, the same fixed point as plain
Python loops, lives in ``tests/reference_kernel.py``; the kernel must
match it within 1e-12 (``tests/core/test_predictor_batch.py``,
``tests/search/test_golden_equivalence.py``,
``tests/properties/test_joint_kernel.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.amdahl import amdahl_speedup
from repro.core.description import DemandVector, WorkloadDescription
from repro.core.machine_desc import MachineDescription
from repro.core.placement import Placement
from repro.errors import PlacementError, PredictionError
from repro.numa import dram_shares
from repro.obs.records import ConvergenceRecord
from repro.units import near_zero

ResourceKey = Tuple[str, Hashable]

#: Histogram bucket bounds for convergence residual magnitudes
#: (log decades spanning tolerance scales to first-iteration jumps).
RESIDUAL_BUCKETS = tuple(10.0 ** e for e in range(-9, 3))
#: Histogram bucket bounds for the batch kernel's per-iteration
#: active-set size (powers of two up to the chunk bound).
ALIVE_BUCKETS = tuple(2 ** e for e in range(0, 10))

#: Iteration count after which the dampening function engages
#: (Section 5.4: "To prevent oscillation a dampening function engages
#: after a 100 iterations").
DAMPEN_AFTER = 100

#: Placements evaluated per stacked population chunk in
#: :meth:`PandiaPredictor.predict_batch` — bounds the padded arrays to
#: a few tens of megabytes on the largest catalog machine.
BATCH_CHUNK = 512

#: Settle iterations between Aitken extrapolation jumps in warm-started
#: runs.  Three is the minimum history a component-wise delta-squared
#: step needs; warm trajectories contract geometrically near the
#: attractor, which is exactly the regime Aitken accelerates.
AITKEN_CYCLE = 3
#: Denominator guard for the Aitken step: components whose second
#: difference is smaller keep their plain iterate (already converged in
#: that coordinate, or not yet geometric).
_AITKEN_GUARD = 1e-14
#: Seeds whose source prediction converged in fewer iterations than
#: this are not worth warm-starting from: the cold fixed point already
#: stops in ~2 iterations and a warm run can never beat that (it pays
#: the same first iteration to reproduce the Section-5.4 cap).  Callers
#: (the search engine, the rack scheduler) gate on this.
WARM_MIN_SEED_ITERATIONS = 4

#: One thread's symmetry class within a placement: its socket's shape
#: (single-thread cores, SMT-dual cores) plus whether the thread shares
#: its core.  Threads of one class are interchangeable under the
#: topology's symmetry group, so their converged state is identical —
#: which is what makes per-class means an exact per-thread transfer.
ShapeClass = Tuple[Tuple[int, int], bool]


def shape_class_keys(placement: Placement) -> List[ShapeClass]:
    """Per-thread :data:`ShapeClass` keys, in thread order."""
    topo = placement.topology
    per_core: Dict[int, int] = {}
    for t in placement.hw_thread_ids:
        core = topo.hw_thread(t).core_id
        per_core[core] = per_core.get(core, 0) + 1
    ones: Dict[int, int] = {}
    twos: Dict[int, int] = {}
    for core, count in per_core.items():
        socket = topo.core(core).socket_id
        bucket = twos if count > 1 else ones
        bucket[socket] = bucket.get(socket, 0) + 1
    keys: List[ShapeClass] = []
    for t in placement.hw_thread_ids:
        hw = topo.hw_thread(t)
        socket = hw.socket_id
        keys.append(
            (
                (ones.get(socket, 0), twos.get(socket, 0)),
                per_core[hw.core_id] > 1,
            )
        )
    return keys


@dataclass(frozen=True)
class SeedState:
    """A converged prediction's iteration state, transferable to
    neighbouring placements.

    Carries the *trajectory* state of the fixed point at its stopping
    iteration — the normalised starting utilisation ``f_start /
    f_initial`` and the clipped overall slowdowns — summarised as one
    ``(f_norm, overall)`` mean per :data:`ShapeClass`.  Threads within
    a class are symmetric, so the class mean loses nothing; collapsing
    to classes is what lets a seed map onto any placement shape (the
    candidate's threads are matched by class, falling back to the
    nearest class of the same core-sharing kind, then the global mean).

    Seeding is *advisory*: a warm-started run reproduces the cold
    reference's Section-5.4 slowdown cap from the same uniform first
    iteration and applies the identical stopping rule, so any seed —
    including a completely wrong one — converges to the same fixed
    point; a good seed only gets there in fewer iterations.
    """

    classes: Tuple[Tuple[ShapeClass, Tuple[float, float]], ...]
    mean: Tuple[float, float]
    iterations: int
    n_threads: int

    @staticmethod
    def from_vectors(
        placement: Placement,
        f_norm: Sequence[float],
        overall: Sequence[float],
        iterations: int,
    ) -> "SeedState":
        """Summarise one converged run's state into class means."""
        sums: Dict[ShapeClass, List[float]] = {}
        for key, fn, ov in zip(shape_class_keys(placement), f_norm, overall):
            entry = sums.setdefault(key, [0.0, 0.0, 0.0])
            entry[0] += float(fn)
            entry[1] += float(ov)
            entry[2] += 1.0
        classes = tuple(
            (key, (entry[0] / entry[2], entry[1] / entry[2]))
            for key, entry in sorted(sums.items())
        )
        n = max(1, len(list(f_norm)))
        mean = (
            float(sum(float(v) for v in f_norm)) / n,
            float(sum(float(v) for v in overall)) / n,
        )
        return SeedState(
            classes=classes,
            mean=mean,
            iterations=int(iterations),
            n_threads=int(n),
        )

    def map_to(self, placement: Placement) -> Tuple[np.ndarray, np.ndarray]:
        """Per-thread ``(f_norm, overall)`` arrays for *placement*.

        Exact class matches transfer their mean; unmatched classes fall
        back to the nearest stored class with the same core-sharing
        flag (by socket thread count), then to the global mean.
        """
        table = dict(self.classes)
        keys = shape_class_keys(placement)
        f_out = np.empty(len(keys))
        o_out = np.empty(len(keys))
        for i, key in enumerate(keys):
            hit = table.get(key)
            if hit is None:
                (ones, twos), shared = key
                weight = ones + 2 * twos
                nearest = min(
                    (
                        (abs(ko + 2 * kt - weight), (ko, kt), value)
                        for ((ko, kt), ks), value in self.classes
                        if ks == shared
                    ),
                    default=None,
                )
                hit = nearest[2] if nearest is not None else self.mean
            f_out[i], o_out[i] = hit
        return f_out, o_out

    # -- serialisation (the prediction store) ---------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "classes": [
                [[list(shape), shared], list(value)]
                for (shape, shared), value in self.classes
            ],
            "mean": list(self.mean),
            "iterations": self.iterations,
            "n_threads": self.n_threads,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "SeedState":
        classes = tuple(
            (
                ((int(shape[0]), int(shape[1])), bool(shared)),
                (float(value[0]), float(value[1])),
            )
            for (shape, shared), value in data["classes"]
        )
        mean = (float(data["mean"][0]), float(data["mean"][1]))
        return SeedState(
            classes=classes,
            mean=mean,
            iterations=int(data["iterations"]),
            n_threads=int(data["n_threads"]),
        )


def _aitken_jump(
    history: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Component-wise Aitken delta-squared extrapolation of the settle
    trajectory: from three consecutive ``(f, overall)`` states, jump
    each coordinate to the limit of its geometric tail.  Guarded —
    coordinates whose second difference is below :data:`_AITKEN_GUARD`
    keep their latest plain iterate."""
    (f0, o0), (f1, o1), (f2, o2) = history
    d2f = f2 - f1
    den_f = d2f - (f1 - f0)
    safe_f = np.abs(den_f) > _AITKEN_GUARD
    f_jump = np.where(
        safe_f,
        f2 - np.where(safe_f, d2f, 0.0) ** 2 / np.where(safe_f, den_f, 1.0),
        f2,
    )
    d2o = o2 - o1
    den_o = d2o - (o1 - o0)
    safe_o = np.abs(den_o) > _AITKEN_GUARD
    o_jump = np.where(
        safe_o,
        o2 - np.where(safe_o, d2o, 0.0) ** 2 / np.where(safe_o, den_o, 1.0),
        o2,
    )
    return f_jump, o_jump


#: Per-thread vector columns recorded for each traced iteration, in
#: Figure 7 order.  These remain readable as attributes on
#: :class:`IterationTrace` for backwards compatibility.
_TRACE_VECTORS = (
    "resource_slowdown",  # after the burstiness penalty
    "comm_penalty",
    "balance_penalty",
    "overall_slowdown",
    "start_utilisation",
    "end_utilisation",
)


class IterationTrace(ConvergenceRecord):
    """Intermediate values of one predictor iteration (Figure 7 rows).

    An :class:`repro.obs.records.ConvergenceRecord` whose ``vectors``
    hold the six per-thread columns; the historical column attributes
    (``trace.overall_slowdown`` etc.) are thin aliases into ``vectors``
    kept for existing callers — new code should read
    ``record.vectors[...]`` or the scalar telemetry fields
    (``iteration``, ``max_residual``).
    """

    def __init__(
        self,
        iteration: int = 0,
        max_residual: float = math.inf,
        alive: int = 1,
        compacted: int = 0,
        vectors: Optional[Dict[str, Tuple[float, ...]]] = None,
        **columns: Sequence[float],
    ) -> None:
        merged: Dict[str, Tuple[float, ...]] = dict(vectors) if vectors else {}
        for name, values in columns.items():
            if name not in _TRACE_VECTORS:
                raise TypeError(f"unknown trace column {name!r}")
            merged[name] = tuple(values)
        super().__init__(
            iteration=iteration,
            max_residual=max_residual,
            alive=alive,
            compacted=compacted,
            vectors=merged,
        )

    def __getattr__(self, name: str):
        # Only reached for names not set in __init__: resolve the six
        # legacy column aliases out of .vectors, fail for the rest.
        if name in _TRACE_VECTORS:
            try:
                return self.__dict__["vectors"][name]
            except KeyError:
                pass
        raise AttributeError(name)


@dataclass
class Prediction:
    """Pandia's output for one (workload, machine, placement) triple."""

    workload_name: str
    machine_name: str
    placement: Placement
    amdahl: float
    speedup: float
    predicted_time_s: float
    slowdowns: Tuple[float, ...]
    utilisations: Tuple[float, ...]
    iterations: int
    converged: bool
    trace: List[IterationTrace] = field(default_factory=list)
    #: Predicted aggregate demand on each resource at convergence,
    #: alongside its capacity — Pandia "provides predictions of
    #: resource consumption as well as predictions of performance"
    #: (Section 6.3); this is what co-scheduling builds on.
    resource_loads: Dict[ResourceKey, float] = field(default_factory=dict)
    resource_capacities: Dict[ResourceKey, float] = field(default_factory=dict)
    #: Normalised starting utilisation ``f_start / f_initial`` at the
    #: stopping iteration — the trajectory state that, together with
    #: ``slowdowns``, warm-starts a neighbouring placement's fixed
    #: point.  ``None`` on predictions rebuilt from records that
    #: predate warm-starting.
    final_f_norm: Optional[Tuple[float, ...]] = None
    _seed_state: Optional["SeedState"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def seed_state(self) -> Optional["SeedState"]:
        """This prediction's converged state as a transferable
        :class:`SeedState`, or ``None`` when the trajectory state was
        not recorded.  Cached — search loops call this once per
        neighbour expansion round."""
        if self.final_f_norm is None:
            return None
        if self._seed_state is None:
            self._seed_state = SeedState.from_vectors(
                self.placement, self.final_f_norm, self.slowdowns, self.iterations
            )
        return self._seed_state

    def resource_utilisation(self) -> Dict[ResourceKey, float]:
        """Predicted load/capacity ratio per resource."""
        ratios: Dict[ResourceKey, float] = {}
        for key in self.resource_loads:
            capacity = self.resource_capacities.get(key, 0.0)
            if near_zero(capacity):
                raise PredictionError(
                    f"resource {key!r} has zero capacity; "
                    "cannot compute its utilisation"
                )
            ratios[key] = self.resource_loads[key] / capacity
        return ratios

    def bottleneck(self) -> Optional[ResourceKey]:
        """The most-utilised resource, or ``None`` if nothing is loaded."""
        ratios = self.resource_utilisation()
        if not ratios:
            return None
        return max(ratios, key=ratios.get)

    @property
    def convergence(self) -> List[IterationTrace]:
        """The per-iteration convergence records (alias of ``trace``,
        which is kept under its historical name)."""
        return self.trace

    @property
    def n_threads(self) -> int:
        return self.placement.n_threads

    @property
    def relative_time(self) -> float:
        """Predicted time relative to the single-thread run (r = 1/speedup)."""
        return 1.0 / self.speedup


#: One job of a kernel row: a workload pinned to a placement.  A row is
#: a co-schedule of one or more jobs on the predictor's machine; a solo
#: prediction is the one-job row.
Job = Tuple[WorkloadDescription, Placement]


def _demand_key(demands: DemandVector) -> Tuple[Hashable, ...]:
    """Hashable identity of every demand field the template reads."""
    return (
        demands.inst_rate,
        tuple(sorted(demands.cache_bw.items())),
        demands.dram_bw,
        demands.numa_local_fraction,
        demands.io_bw,
    )


class _MachineLayout:
    """The machine's resource classes and its resource-key table.

    Per-core classes are the instruction rate and one cache link per
    measured level; per-socket classes are the cache aggregates with a
    measured capacity, then the DRAM node.  Keys are numbered
    core-major, then socket-major, then interconnect links, then the
    NIC, so a row's resource dictionaries are one gather from this
    table.
    """

    def __init__(self, md: MachineDescription) -> None:
        topo = md.topology
        self.topology = topo
        self.shape = topo.shape()
        self.n_hw = topo.n_hw_threads
        self.n_cores = topo.n_cores
        self.n_sockets = topo.n_sockets
        self.core_map = np.array(
            [topo.hw_thread(t).core_id for t in range(self.n_hw)], dtype=np.intp
        )
        self.socket_map = np.array(
            [topo.hw_thread(t).socket_id for t in range(self.n_hw)], dtype=np.intp
        )
        self.levels: Tuple[str, ...] = tuple(md.cache_link_bw)
        self.link_caps = np.array([md.cache_link_bw[lv] for lv in self.levels])
        self.agg_levels = np.array(
            [i for i, lv in enumerate(self.levels) if md.cache_agg_bw.get(lv)],
            dtype=np.intp,
        )
        self.agg_caps = np.array(
            [md.cache_agg_bw[self.levels[i]] for i in self.agg_levels]
        )
        self.pairs: List[Tuple[int, int]] = list(topo.interconnect_links())
        self.pair_u = np.array([u for u, _ in self.pairs], dtype=np.intp)
        self.pair_v = np.array([v for _, v in self.pairs], dtype=np.intp)

        keys: List[ResourceKey] = []
        caps: List[float] = []
        for c in range(self.n_cores):
            keys.append(("core", c))
            keys += [("cache_link", (lv, c)) for lv in self.levels]
            caps += [md.core_rate, *self.link_caps]
        for s in range(self.n_sockets):
            keys += [("cache_agg", (self.levels[i], s)) for i in self.agg_levels]
            keys.append(("dram", s))
            caps += [*self.agg_caps, md.dram_bw_per_node]
        keys += [("link", pair) for pair in self.pairs]
        keys.append(("nic", 0))
        caps += [md.interconnect_bw] * len(self.pairs) + [md.nic_bw]
        self.keys = keys
        #: Every resource's capacity; core entries are per row (SMT).
        self.caps = np.array(caps)
        #: DRAM nodes, then interconnect links: the memory resources a
        #: thread reaches from its socket.
        self.mem_caps = np.array(
            [md.dram_bw_per_node] * self.n_sockets
            + [md.interconnect_bw] * len(self.pairs)
        )
        self.core_keys = np.arange(self.n_cores) * (1 + len(self.levels))
        self.socket_bits = 1 << np.arange(self.n_sockets)
        sockets = np.arange(self.n_sockets)[:, None]
        #: ``[s, p]``: socket s is link p's u (v) end.
        self.at_u = sockets == self.pair_u
        self.at_v = sockets == self.pair_v


class _DemandTemplate:
    """One workload's demand on each resource class, cached per demands.

    ``params`` holds the kernel's per-job demand columns: instruction
    rate, DRAM, NIC, the two folds, then one bandwidth per measured cache
    level (zero where the workload demands none).  The folds are the
    largest per-link and per-aggregate demand-to-capacity ratios: for a
    job alone on the machine, the worst of the classes that scale one
    utilisation sum is that sum times the largest ratio.
    """

    __slots__ = ("params", "dram_bw", "local_fraction")

    def __init__(
        self, md: MachineDescription, m: _MachineLayout, demands: DemandVector
    ) -> None:
        level_bw = np.array(
            [max(demands.cache_bw.get(lv, 0.0), 0.0) for lv in m.levels]
        )
        self.dram_bw = max(demands.dram_bw, 0.0)
        self.local_fraction = demands.numa_local_fraction
        io_bw = demands.io_bw if demands.io_bw > 0 and md.nic_bw > 0 else 0.0
        self.params = (
            demands.inst_rate,
            self.dram_bw,
            io_bw,
            float((level_bw / m.link_caps).max(initial=0.0)),
            float((level_bw[m.agg_levels] / m.agg_caps).max(initial=0.0)),
            *level_bw.tolist(),
        )


#: ``np.maximum.reduce`` called directly: on the kernel's small arrays
#: the ``ndarray.max`` wrapper costs more than the reduction itself.
_max_along = np.maximum.reduce


def _job_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 1 (the job axis), adding one job at a time.

    Padded jobs contribute exact zeros at the end, so a row's total does
    not depend on how many job columns its batch carries (``ndarray.sum``
    may regroup the adds by width)."""
    total = terms[:, 0]
    for j in range(1, terms.shape[1]):
        total = total + terms[:, j]
    return total


def _memory_loads(
    fs_sock: np.ndarray, mem_share: np.ndarray, mem_scale: np.ndarray
) -> np.ndarray:
    """Load on every DRAM node and interconnect link, ``(rows, S + P)``,
    from per-(row, job, socket) utilisation sums."""
    return _job_sum(
        mem_scale * np.add.reduce(fs_sock[:, :, :, None] * mem_share, axis=2)
    )


class _Rows:
    """Row-indexed kernel arrays, compacted together as rows converge."""

    def __init__(self, **arrays: np.ndarray) -> None:
        self.__dict__.update(arrays)

    def take(self, keep: np.ndarray) -> "_Rows":
        return _Rows(**{name: a[keep] for name, a in self.__dict__.items()})


class _Population:
    """The static layout of one kernel call: a population of rows.

    Per-job parameters are ``(pop, J)`` arrays, jobs padded to the row
    with the most jobs; padded jobs have no threads, so they are inert.
    Threads are ``(pop, T)`` arrays, each row's jobs side by side and
    padded to the widest row.  Every per-(row, job) utilisation sum is
    one ``bincount`` over the flat segment ids ``seg_job`` (per job),
    ``seg_core`` (per job and core) and ``seg_sock`` (per job and
    socket).
    """

    def __init__(self, predictor: "PandiaPredictor", rows: Sequence[Sequence[Job]]):
        m = self.m = predictor._machine
        md = self.md = predictor.md
        self.rows = rows
        pop = self.pop = len(rows)
        S, NC = m.n_sockets, m.n_cores
        jobs = [job for row in rows for job in row]
        per_row = np.array([len(row) for row in rows], dtype=np.intp)
        J = self.J = max(map(len, rows))
        for wd, placement in jobs:
            if placement.topology is not m.topology and (
                placement.topology.shape() != m.shape
            ):
                raise PlacementError(
                    f"workload {wd.name} is placed on a machine shape other "
                    f"than {md.machine_name}'s {m.shape}"
                )

        # -- per-job parameters ----------------------------------------
        first_job = np.cumsum(per_row) - per_row
        job_row = self.job_row = np.repeat(np.arange(pop), per_row)
        job_pos = self.job_pos = np.arange(len(jobs)) - first_job[job_row]
        n_list = [placement.n_threads for _, placement in jobs]
        n_job = self.n_job = np.array(n_list, dtype=np.intp)
        amdahl = [
            amdahl_speedup(wd.parallel_fraction, n) for (wd, _), n in zip(jobs, n_list)
        ]
        self.amdahl = np.array(amdahl)
        index: Dict[int, int] = {}
        which = [index.setdefault(id(wd), len(index)) for wd, _ in jobs]
        distinct = list({id(wd): wd for wd, _ in jobs}.values())
        temps = [predictor._demand_template(wd) for wd in distinct]
        params = [
            (wd.inter_socket_overhead, wd.load_balance, wd.burstiness, wd.t1)
            + t.params
            for wd, t in zip(distinct, temps)
        ]
        columns = np.array(
            [(n, a / n) + params[w] for n, a, w in zip(n_list, amdahl, which)]
        )
        self.t1 = columns[:, 5]
        per_job = np.zeros((pop, J, columns.shape[1]))
        per_job[job_row, job_pos] = columns
        (
            self.n, self.f_init, self.os, self.l, self.b, _,
            self.inst, self.dram, self.io, self.link_fold, self.agg_fold,
        ) = per_job[:, :, :11].transpose(2, 0, 1)
        self.level_bw = per_job[:, :, 11:]
        self.has_os = any(wd.inter_socket_overhead > 0 for wd in distinct)

        # -- threads ---------------------------------------------------
        total = sum(n_list)
        job_start = np.cumsum(n_job) - n_job
        t_job = np.repeat(np.arange(len(jobs)), n_job)
        t_row = job_row[t_job]
        t_col = np.arange(total) - job_start[first_job][t_row]
        T = self.T = int(t_col.max()) + 1
        ids = np.zeros((pop, T), dtype=np.intp)
        ids[t_row, t_col] = np.fromiter(
            chain.from_iterable(p.hw_thread_ids for _, p in jobs), np.intp, total
        )
        self.job_of = np.zeros((pop, T), dtype=np.intp)
        self.job_of[t_row, t_col] = job_pos[t_job]
        valid = self.valid = np.zeros((pop, T), dtype=bool)
        valid[t_row, t_col] = True
        row = np.arange(pop)[:, None]
        if J > 1:
            claims = np.bincount((row * m.n_hw + ids)[valid], minlength=pop * m.n_hw)
            if claims.max() > 1:
                r, tid = divmod(int(np.argmax(claims > 1)), m.n_hw)
                owners = [wd.name for wd, p in rows[r] if tid in p.hw_thread_ids]
                raise PlacementError(
                    f"hardware thread {tid} claimed by workloads "
                    f"{owners[0]} and {owners[1]}"
                )

        # -- cores and sockets, shared by every job on them -------------
        self.core_ids = m.core_map[ids]
        self.sock_ids = m.socket_map[ids]
        seg_job = self.seg_job = row * J + self.job_of
        self.seg_core = seg_job * NC + self.core_ids
        self.seg_sock = seg_job * S + self.sock_ids
        row_core = row * NC + self.core_ids
        core_n = np.bincount(row_core[valid], minlength=pop * NC)
        self.shared = valid & (core_n[row_core] > 1)
        self.core_cap = np.where(
            core_n.reshape(pop, NC) > 1, md.core_rate_smt, md.core_rate
        )
        self.job_sock_n = np.bincount(self.seg_sock[valid], minlength=pop * J * S)
        self.active = self.job_sock_n.reshape(pop, J, S) > 0

        # DRAM shares per job: a job's traffic interleaves over its own
        # active sockets (one matrix per distinct locality and socket
        # set); remote shares load the interconnect links.
        self.has_dram = any(t.dram_bw > 0 for t in temps)
        self.has_io = any(t.params[2] > 0 for t in temps)
        self.share = np.zeros((pop, J, S, S))
        if self.has_dram:
            kinds: Dict[Tuple[int, int], int] = {}
            sets = (self.active[job_row, job_pos] @ m.socket_bits).tolist()
            inverse = [kinds.setdefault(kind, len(kinds)) for kind in zip(which, sets)]
            mats = np.zeros((len(kinds), S, S))
            for (w, bits), i in kinds.items():
                if temps[w].dram_bw > 0:
                    mats[i] = predictor._share_matrix(
                        temps[w].local_fraction,
                        tuple(s for s in range(S) if bits >> s & 1),
                    )
            self.share[job_row, job_pos] = mats[inverse]
        # The memory resources a thread reaches from its socket: DRAM
        # nodes, by its job's share to each, then interconnect links.
        # Each link carries both directions' remote traffic: a thread at
        # either end loads it by its job's DRAM demand times its share
        # toward the far end.  Node loads scale by that demand after
        # summing (``mem_scale``); link coefficients already carry it.
        if self.has_dram:
            pu, pv = m.pair_u, m.pair_v
            demand = self.dram[:, :, None, None]
            toward_v = demand * self.share[:, :, pu, pv][:, :, None]
            toward_u = demand * self.share[:, :, pv, pu][:, :, None]
            links = np.where(m.at_u, toward_v, np.where(m.at_v, toward_u, 0.0))
            self.mem_share = np.concatenate([self.share, links], axis=3)
            self.mem_scale = np.concatenate(
                [
                    np.broadcast_to(self.dram[:, :, None], (pop, J, S)),
                    np.ones((pop, J, len(m.pairs))),
                ],
                axis=2,
            )

    def per_thread(self, per_job: np.ndarray) -> np.ndarray:
        """Gather a ``(pop, J)`` array onto each thread's job."""
        return per_job.ravel()[self.seg_job.ravel()].reshape(self.pop, self.T)

    def resource_dicts(
        self, futil: np.ndarray
    ) -> Tuple[List[Dict[ResourceKey, float]], List[Dict[ResourceKey, float]]]:
        """Per-row resource loads and capacities at utilisation *futil*.

        Loads are demand times utilisation, summed per job and then over
        the job axis, laid out in the machine's key order.  A resource
        is in a row's dictionaries when one of the row's jobs touches it:
        its core, a cache link or aggregate it demands, its job's DRAM
        nodes and the links between them, the NIC.
        """
        m, pop, J = self.m, self.pop, self.J
        S, NC, agg = m.n_sockets, m.n_cores, m.agg_levels
        pu, pv = m.pair_u, m.pair_v
        fw = futil.ravel()
        fs_core = np.bincount(
            self.seg_core.ravel(), fw, minlength=pop * J * NC
        ).reshape(pop, J, NC)
        fs_sock = np.bincount(
            self.seg_sock.ravel(), fw, minlength=pop * J * S
        ).reshape(pop, J, S)
        core_demand = np.concatenate([self.inst[:, :, None], self.level_bw], axis=2)
        agg_demand = self.level_bw[:, :, agg]
        mem_load = np.zeros((pop, len(m.mem_caps)))
        if self.has_dram:
            mem_load = _memory_loads(fs_sock, self.mem_share, self.mem_scale)
        nic_load = np.zeros(pop)
        if self.has_io:
            f_job = np.bincount(
                self.seg_job.ravel(), fw, minlength=pop * J
            ).reshape(pop, J)
            nic_load = _job_sum(self.io * f_job)
        loads = np.concatenate(
            [
                _job_sum(core_demand[:, :, None, :] * fs_core[:, :, :, None])
                .reshape(pop, -1),
                np.concatenate(
                    [
                        _job_sum(agg_demand[:, :, None, :] * fs_sock[:, :, :, None]),
                        mem_load[:, :S, None],
                    ],
                    axis=2,
                ).reshape(pop, -1),
                mem_load[:, S:],
                nic_load[:, None],
            ],
            axis=1,
        )

        any_job = np.logical_or.reduce
        on_core = np.bincount(
            self.seg_core[self.valid], minlength=pop * J * NC
        ).reshape(pop, J, NC, 1) > 0
        touches = core_demand > 0
        touches[:, :, 0] = True
        dram_on = (self.dram > 0)[:, :, None]
        sock_touches = np.concatenate([agg_demand > 0, dram_on], axis=2)
        present = np.concatenate(
            [
                any_job(on_core & touches[:, :, None, :], axis=1).reshape(pop, -1),
                any_job(
                    self.active[:, :, :, None] & sock_touches[:, :, None, :], axis=1
                ).reshape(pop, -1),
                any_job(
                    self.active[:, :, pu] & self.active[:, :, pv] & dram_on, axis=1
                ),
                any_job(self.io > 0, axis=1)[:, None],
            ],
            axis=1,
        )
        caps = np.empty(present.shape)
        caps[:] = m.caps
        caps[:, m.core_keys] = self.core_cap

        names = iter(list(map(m.keys.__getitem__, np.nonzero(present)[1].tolist())))
        load_values = iter(loads[present].tolist())
        cap_values = iter(caps[present].tolist())
        out_loads: List[Dict[ResourceKey, float]] = []
        out_caps: List[Dict[ResourceKey, float]] = []
        for count in np.count_nonzero(present, axis=1).tolist():
            row_keys = list(islice(names, count))
            out_loads.append(dict(zip(row_keys, islice(load_values, count))))
            out_caps.append(dict(zip(row_keys, islice(cap_values, count))))
        return out_loads, out_caps

    def predictions(
        self,
        final: np.ndarray,
        final_f: np.ndarray,
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
        f_norms = iter((final_f[valid] / f_init_t[valid]).tolist())
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
                        final_f_norm=tuple(islice(f_norms, n)),
                    )
                )
            out.append(preds)
        out[0][0].trace = trace
        return out


def _trace_row(
    iteration: int,
    residual: float,
    resource: np.ndarray,
    comm: Optional[np.ndarray],
    balance: np.ndarray,
    overall: np.ndarray,
    f_start: np.ndarray,
    f_init: np.ndarray,
) -> IterationTrace:
    """The Figure-7 columns of a one-row population's iteration."""
    return IterationTrace(
        iteration=iteration,
        max_residual=residual,
        resource_slowdown=resource[0].tolist(),
        comm_penalty=(np.zeros_like(resource) if comm is None else comm)[0].tolist(),
        balance_penalty=balance[0].tolist(),
        overall_slowdown=overall[0].tolist(),
        start_utilisation=f_start[0].tolist(),
        end_utilisation=(f_init[0] / overall[0]).tolist(),
    )


class PandiaPredictor:
    """Performance predictor bound to one machine description."""

    def __init__(
        self,
        machine_description: MachineDescription,
        max_iterations: int = 500,
        tolerance: float = 1e-6,
    ) -> None:
        if max_iterations < 1:
            raise PredictionError(
                f"machine {machine_description.machine_name}: need at least "
                f"one fixed-point iteration, got max_iterations={max_iterations}"
            )
        self.md = machine_description
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self._machine = _MachineLayout(machine_description)
        self._templates: Dict[Tuple[Hashable, ...], _DemandTemplate] = {}
        self._share_cache: Dict[Tuple[float, Tuple[int, ...]], np.ndarray] = {}

    # -- public API ------------------------------------------------------

    def predict(
        self,
        workload: WorkloadDescription,
        placement: Placement,
        keep_trace: bool = False,
        seed: Optional[SeedState] = None,
    ) -> Prediction:
        """Predict the performance of *workload* under *placement*.

        When *seed* is given (a neighbouring placement's converged
        :class:`SeedState`) the fixed point warm-starts: the first
        iteration still runs from the uniform ``f_initial`` so the
        Section-5.4 slowdown cap is *identical* to the cold reference's,
        then the trajectory jumps to the seed's state and the settle
        iterations are Aitken-accelerated.  The stopping rule and the
        attractor are unchanged, so the result matches the cold run to
        within the convergence tolerance — the seed only changes how
        many iterations it takes to get there.

        With *keep_trace* the prediction carries one
        :class:`IterationTrace` (the Figure-7 columns) per iteration.
        """
        (row,) = self._solve(
            [[(workload, placement)]], "predictor.predict", seed, keep_trace
        )
        return row[0]

    def predict_batch(
        self,
        workload: WorkloadDescription,
        placements: Sequence[Placement],
        seed: Optional[SeedState] = None,
    ) -> List[Prediction]:
        """Predict every placement in one vectorised fixed point.

        The kernel of :meth:`predict`, over one-job rows in chunks of
        :data:`BATCH_CHUNK`; each prediction is bit-identical to
        :meth:`predict` on its placement, whatever else shares the
        chunk.  *seed* warm-starts every row from one shared
        :class:`SeedState`, mapped onto each placement's shape.
        """
        rows = [[(workload, p)] for p in placements]
        return [
            row[0]
            for start in range(0, len(rows), BATCH_CHUNK)
            for row in self._solve(
                rows[start : start + BATCH_CHUNK], "predictor.predict_batch", seed
            )
        ]

    def predict_time(self, workload: WorkloadDescription, placement: Placement) -> float:
        """Convenience: predicted absolute execution time in seconds."""
        return self.predict(workload, placement).predicted_time_s

    def full_load_ratios(
        self, workload: WorkloadDescription, placement: Placement
    ) -> Dict[ResourceKey, float]:
        """Load/capacity of each resource *placement* touches with every
        thread fully busy (``f = 1``): Section 4.2's no-contention test
        for Run 2's thread count."""
        population = _Population(self, [[(workload, placement)]])
        (loads,), (caps,) = population.resource_dicts(
            population.valid.astype(float)
        )
        return {key: load / caps[key] for key, load in loads.items()}

    # -- the kernel --------------------------------------------------------

    def _demand_template(self, workload: WorkloadDescription) -> _DemandTemplate:
        key = _demand_key(workload.demands)
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = _DemandTemplate(
                self.md, self._machine, workload.demands
            )
        return template

    def _share_matrix(
        self, local_fraction: float, active: Tuple[int, ...]
    ) -> np.ndarray:
        """DRAM share matrix for one active-socket set, memoised.

        ``mat[s, d]`` is the fraction of a socket-``s`` thread's DRAM
        traffic that lands on node ``d`` — `lambda` to its own node, the
        remainder interleaved over the job's active sockets.  Only a
        handful of active sets exist per machine, so rows reuse these.
        """
        key = (local_fraction, active)
        mat = self._share_cache.get(key)
        if mat is None:
            n = self._machine.n_sockets
            mat = np.zeros((n, n))
            for s in active:
                for node, fraction in dram_shares(local_fraction, s, active).items():
                    mat[s, node] = fraction
            self._share_cache[key] = mat
        return mat

    def _solve(
        self,
        rows: Sequence[Sequence[Job]],
        span: str,
        seed: Optional[SeedState] = None,
        keep_trace: bool = False,
    ) -> List[List[Prediction]]:
        """Figure 8's fixed point over a population of co-schedules.

        Each row is a list of jobs sharing the machine; the result holds
        one :class:`Prediction` per job, grouped by row, and a row's
        jobs share its iteration count, convergence flag and resource
        dictionaries.  Per job: Amdahl speedup, ``f_initial``,
        burstiness, communication and load balance.  Per (row, job):
        utilisation sums per core and per socket.  Resource loads are
        summed over the job axis, and each thread takes its own job's
        worst class ratio.  Per row: the Section-5.4 cap and the
        convergence test; converged rows are compacted out while
        stragglers iterate on.

        Every sum over threads or jobs is sequential, so a row's result
        is bit-identical whatever else shares its call.  *seed* and
        *keep_trace* are for one-job rows (*keep_trace* for one row).
        """
        if not rows:
            return []
        p = _Population(self, rows)
        m, pop, J, T = p.m, p.pop, p.J, p.T
        S, NC = m.n_sockets, m.n_cores
        # A job's parameters reach its threads by a gather; with one job
        # per row they are (pop, 1) columns that broadcast instead.
        job_param = p.per_thread if J > 1 else (lambda column: column)
        l_t = job_param(p.l)
        a = _Rows(
            valid=p.valid,
            shared=p.shared,
            job_of=p.job_of,
            core_ids=p.core_ids,
            sock_ids=p.sock_ids,
            job_mask=p.valid[:, None, :]
            if J == 1
            else (p.job_of[:, None, :] == np.arange(J)[:, None])
            & p.valid[:, None, :],
            f_init_t=job_param(p.f_init),
            b_t=job_param(p.b),
            l_t=l_t,
            rest_t=1.0 - l_t,
        )
        agg = m.agg_levels
        if J == 1:
            # One job per row: the classes that scale one utilisation
            # sum fold into one coefficient (exactly — rounding is
            # monotone, so the max commutes with the positive factor).
            a.core_fold = np.maximum(
                p.inst[:, :, None] / p.core_cap[:, None, :], p.link_fold[:, :, None]
            )
            a.agg_fold = p.agg_fold[:, :, None]
        else:
            # Per resource class, each job's demand over its capacity;
            # a thread sees the classes its own job demands.
            core_caps = np.concatenate(
                [
                    p.core_cap[:, None, :],
                    np.broadcast_to(m.link_caps[:, None], (pop, len(m.levels), NC)),
                ],
                axis=1,
            )
            demand = np.concatenate([p.inst[:, :, None], p.level_bw], axis=2)
            a.core_coef = demand[:, :, :, None] / core_caps[:, None]
            a.core_used = (demand > 0)[:, :, :, None]
            a.core_used[:, :, 0] = True
            a.agg_coef = (p.level_bw[:, :, agg] / m.agg_caps)[:, :, :, None]
            a.agg_used = a.agg_coef > 0
        if p.has_dram:
            # A thread's memory resources are those its job sends it
            # traffic to from the thread's socket.
            a.mem_share = p.mem_share
            a.mem_scale = p.mem_scale
            a.mem_uses = p.mem_share > 0
        has_io = p.has_io
        if has_io:
            a.io = p.io
            a.io_t = job_param(p.io > 0)
        comm_on = False
        if p.has_os:
            has_comm = (p.os > 0) & (np.add.reduce(p.active, axis=2) > 1)
            comm_on = bool(np.count_nonzero(has_comm))
        if comm_on:
            # Lock-step cost: the job's overhead times its remote peers.
            n_t = job_param(p.n)
            os_t = job_param(p.os)
            own = p.job_sock_n[p.seg_sock.ravel()].reshape(pop, T)
            a.n_os_t = n_t * os_t
            a.lock_t = np.where(p.valid, os_t * (n_t - own), 0.0)
            a.comm_t = job_param(has_comm)
        # The burstiness penalty is a no-op (x * 1.0) unless some thread
        # both shares its core and belongs to a bursty job.
        bursty = bool(np.count_nonzero(p.shared & (a.b_t > 0)))

        warm: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if seed is not None:
            warm_f = np.zeros((pop, T))
            warm_o = np.ones((pop, T))
            for k, ((_, placement),) in enumerate(rows):
                n = placement.n_threads
                warm_f[k, :n], warm_o[k, :n] = seed.map_to(placement)
            warm = (warm_f, warm_o)

        # Telemetry: one hoisted branch; when disabled the loop pays a
        # single `if obs_on` per iteration and no per-row work.
        obs_on = obs.enabled()
        if obs_on:
            _tracer = obs.tracer()
            _m = obs.metrics()
            alive_hist = _m.histogram("predictor.batch.alive_rows", ALIVE_BUCKETS)
            res_hist = _m.histogram("predictor.residual", RESIDUAL_BUCKETS)
            compactions = _m.counter("predictor.batch.compactions")
            _m.counter("predictor.batch.chunks").inc()
            if seed is not None:
                _m.counter("predictor.warm.predictions").inc(pop)
            call_span = _tracer.start(
                span,
                attrs={
                    "workload": "+".join(wd.name for wd, _ in rows[0]),
                    "machine": self.md.machine_name,
                    "population": pop,
                    "jobs": len(p.n_job),
                    "threads": T,
                    "seeded": seed is not None,
                },
            )
            convergence: List[ConvergenceRecord] = []

            def _end_iteration(it_span, iteration, cur, delta_max, retired):
                alive_hist.observe(cur)
                if math.isfinite(delta_max):
                    res_hist.observe(delta_max)
                if retired:
                    compactions.inc()
                convergence.append(
                    ConvergenceRecord(
                        iteration=iteration,
                        max_residual=delta_max,
                        alive=cur,
                        compacted=retired,
                    )
                )
                it_span.attrs["max_residual"] = delta_max
                it_span.attrs["compacted"] = retired
                _tracer.end(it_span)

        # -- the fixed point, over the shrinking active set ------------
        alive = np.arange(pop)
        iterations = np.zeros(pop, dtype=np.intp)
        converged = np.zeros(pop, dtype=bool)
        final = np.zeros((pop, T))
        final_f = np.zeros((pop, T))
        trace: List[IterationTrace] = []
        settle_hist: List[Tuple[np.ndarray, np.ndarray]] = []
        # Seed injection and Aitken jumps fire for all live rows at once,
        # so one flag covers the population: while it is set, prev holds
        # injected values and no row may retire against them — an
        # injected overall can coincide with overall(f), both pinned at
        # the cap, without (f, overall) being a fixed point.
        synthetic_prev = False
        f = np.where(a.valid, a.f_init_t, 0.0)
        prev: Optional[np.ndarray] = None
        cap: Optional[np.ndarray] = None
        sj, sc, ss = p.seg_job.ravel(), p.seg_core.ravel(), p.seg_sock.ravel()

        for iteration in range(1, self.max_iterations + 1):
            cur = alive.size
            if obs_on:
                it_span = _tracer.start(
                    "predictor.iteration",
                    attrs={"iteration": iteration, "alive": cur},
                )
                delta_max, retired = math.inf, 0

            # Step 1: resource contention (Section 5.1).  Padded threads
            # carry f = 0, so they add nothing to any sum.
            fw = f.ravel()
            fs_core = np.bincount(sc, fw, minlength=cur * J * NC).reshape(cur, J, NC)
            fs_sock = np.bincount(ss, fw, minlength=cur * J * S).reshape(cur, J, S)
            if J == 1:
                core_stat = a.core_fold * fs_core
                sock_stat = a.agg_fold * fs_sock
            else:
                ratio = _job_sum(a.core_coef * fs_core[:, :, None, :])[:, None]
                core_stat = _max_along(np.where(a.core_used, ratio, 0.0), axis=2)
                ratio = _job_sum(a.agg_coef * fs_sock[:, :, None, :])[:, None]
                sock_stat = _max_along(
                    np.where(a.agg_used, ratio, 0.0), axis=2, initial=0.0
                )
            if p.has_dram:
                load = _memory_loads(fs_sock, a.mem_share, a.mem_scale)
                ratio = (load / m.mem_caps)[:, None, None, :]
                sock_stat = np.maximum(
                    sock_stat, _max_along(np.where(a.mem_uses, ratio, 0.0), axis=3)
                )
            worst = np.maximum(
                core_stat.ravel()[sc].reshape(cur, T),
                sock_stat.ravel()[ss].reshape(cur, T),
            )
            if has_io:
                f_job = np.bincount(sj, fw, minlength=cur * J).reshape(cur, J)
                nic = _job_sum(a.io * f_job) / self.md.nic_bw
                worst = np.maximum(worst, np.where(a.io_t, nic[:, None], 0.0))
            base = np.maximum(worst, 1.0)
            resource = (
                np.where(a.shared, base * (1.0 + a.b_t * f), base) if bursty else base
            )
            f_cur = a.f_init_t / resource

            # Step 2: off-socket communication among each job's own
            # threads (Section 5.2).
            comm = None
            overall = resource
            if comm_on:
                work = np.where(a.valid, 1.0 / resource, 0.0)
                work_total = np.bincount(sj, work.ravel(), minlength=cur * J)
                weights = work / work_total[sj].reshape(cur, T)
                w_total = np.bincount(sj, weights.ravel(), minlength=cur * J)
                w_sock = np.bincount(ss, weights.ravel(), minlength=cur * J * S)
                remote_w = (w_total[sj] - w_sock[ss]).reshape(cur, T)
                independent = a.n_os_t * remote_w
                comm = (a.l_t * independent + a.rest_t * a.lock_t) * f_cur
                overall = np.where(a.comm_t, resource + comm, resource)

            # Step 3: each job's threads are dragged toward its slowest
            # (Section 5.3), then the first-iteration cap (Section 5.4).
            peak = _max_along(
                np.where(a.job_mask, overall[:, None, :], -np.inf), axis=2
            )
            if J > 1:
                peak = peak.ravel()[sj].reshape(cur, T)
            balanced = a.l_t * overall + a.rest_t * peak
            balance = balanced - overall if keep_trace else None
            overall = balanced
            if cap is None:
                cap = _max_along(np.where(a.valid, overall, -np.inf), axis=1)
                if warm is not None:
                    # Warm start: the uniform first iteration fixed the
                    # cold cap; every row now jumps to its mapped seed
                    # state.  No row can have retired yet.
                    overall = np.clip(overall, 1.0, cap[:, None])
                    if keep_trace:
                        trace.append(
                            _trace_row(
                                iteration, math.inf, resource, comm, balance,
                                overall, f, a.f_init_t,
                            )
                        )
                    prev = np.where(
                        a.valid, np.clip(warm[1], 1.0, cap[:, None]), overall
                    )
                    f = np.where(
                        a.valid, a.f_init_t * np.clip(warm[0], 0.0, 1.0), 0.0
                    )
                    synthetic_prev = True
                    if obs_on:
                        _end_iteration(it_span, iteration, cur, math.inf, 0)
                    continue
            overall = np.minimum(np.maximum(overall, 1.0), cap[:, None])

            delta = None
            if prev is not None:
                delta = _max_along(
                    np.where(a.valid, np.abs(overall - prev), 0.0), axis=1
                )
            if keep_trace:
                residual = math.inf if delta is None else float(delta[0])
                trace.append(
                    _trace_row(
                        iteration, residual, resource, comm, balance, overall, f,
                        a.f_init_t,
                    )
                )
            if delta is not None:
                if obs_on:
                    delta_max = float(delta.max())
                done = delta < self.tolerance
                if synthetic_prev:
                    done[:] = False
                if np.count_nonzero(done):
                    if obs_on:
                        retired = int(np.count_nonzero(done))
                    finished = alive[done]
                    iterations[finished] = iteration
                    converged[finished] = True
                    final[finished] = overall[done]
                    final_f[finished] = f[done]
                    keep = ~done
                    alive = alive[keep]
                    if not alive.size:
                        if obs_on:
                            _end_iteration(
                                it_span, iteration, cur, delta_max, retired
                            )
                        break
                    a = a.take(keep)
                    comm_on = comm_on and bool(np.count_nonzero(a.comm_t))
                    resource, overall, f, cap = (
                        resource[keep], overall[keep], f[keep], cap[keep]
                    )
                    settle_hist = [(hf[keep], ho[keep]) for hf, ho in settle_hist]
                    seg = np.arange(alive.size)[:, None] * J + a.job_of
                    sj = seg.ravel()
                    sc = (seg * NC + a.core_ids).ravel()
                    ss = (seg * S + a.sock_ids).ravel()
            prev = overall
            synthetic_prev = False

            # Feed the penalty ratio into the next iteration's starting
            # utilisation (Section 5.4), damped after DAMPEN_AFTER.
            f_next = a.f_init_t * np.minimum(resource / overall, 1.0)
            if iteration > DAMPEN_AFTER:
                f_next = 0.5 * (f + f_next)
            f = np.where(a.valid, f_next, 0.0)
            if warm is not None:
                # Warm settle is Aitken-accelerated: near the attractor
                # the contraction is geometric, so every AITKEN_CYCLE
                # iterates a delta-squared jump extrapolates both
                # trajectories to their limit.  Clipping keeps the jump
                # inside the iteration's invariants; a bad jump corrects
                # itself because the plain iteration resumes from it.
                settle_hist.append((f, overall))
                if len(settle_hist) == AITKEN_CYCLE:
                    f_jump, o_jump = _aitken_jump(settle_hist)
                    f = np.where(a.valid, np.clip(f_jump, 0.0, a.f_init_t), 0.0)
                    prev = np.clip(o_jump, 1.0, cap[:, None])
                    synthetic_prev = True
                    settle_hist = []
            if obs_on:
                _end_iteration(it_span, iteration, cur, delta_max, retired)

        if alive.size:  # stragglers that hit max_iterations
            iterations[alive] = self.max_iterations
            final[alive] = overall
            final_f[alive] = f

        if obs_on:
            _m.histogram("predictor.iterations").observe_many(
                int(v) for v in iterations
            )
            call_span.attrs["iterations_max"] = int(iterations.max())
            call_span.attrs["converged_rows"] = int(np.count_nonzero(converged))
            call_span.attrs["convergence"] = [r.to_dict() for r in convergence]
            _tracer.end(call_span)
        return p.predictions(final, final_f, iterations, converged, trace)
