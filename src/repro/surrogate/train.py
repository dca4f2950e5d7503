"""Training-data generation and end-to-end surrogate training.

Training data is what the batch kernel already produces: exact
predictions over a deterministic sample of each machine's canonical
placement space, for a set of catalog workloads.  The target is the log
contention excess over Amdahl (see :mod:`repro.surrogate.model`), so
one model can span machines and workloads of different scales.

Like the paper's profiling runs, training cost is paid once per
machine set and amortised over every later search; three catalog
machines × three workloads × a few hundred placements train in seconds
through ``predict_batch``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.description import WorkloadDescription
from repro.core.machine_desc import MachineDescription, generate_machine_description
from repro.core.placement import Placement, sample_canonical
from repro.core.predictor import PandiaPredictor
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.errors import ModelError
from repro.surrogate.features import PlacementFeaturizer
from repro.surrogate.model import SurrogateModel, fit_ridge, fit_stumps

#: Default machines the CLI and the tests train on — two 2-socket boxes
#: plus the 4-socket X2-4, so the model sees both topology regimes.
DEFAULT_TRAIN_MACHINES: Tuple[str, ...] = ("X3-2", "X4-2", "X2-4")
DEFAULT_TRAIN_WORKLOADS: Tuple[str, ...] = ("MD", "CG", "EP")


def training_table(
    md: MachineDescription,
    workload: WorkloadDescription,
    placements: Sequence[Placement],
    predictor: Optional[PandiaPredictor] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(features, targets) from exact batch predictions of *placements*."""
    if not placements:
        raise ModelError("training table needs at least one placement")
    predictor = predictor if predictor is not None else PandiaPredictor(md)
    X = PlacementFeaturizer(md, workload).matrix(placements)
    predictions = predictor.predict_batch(workload, placements)
    # y = log(relative_time * amdahl_speedup): the slowdown the fixed
    # point attributes to contention, beyond Amdahl serialisation.
    y = np.array(
        [math.log(p.amdahl / p.speedup) for p in predictions], dtype=np.float64
    )
    return X, y


def train_surrogate(
    machine_names: Iterable[str] = DEFAULT_TRAIN_MACHINES,
    workload_names: Iterable[str] = DEFAULT_TRAIN_WORKLOADS,
    *,
    kind: str = "stumps",
    sample: int = 300,
    seed: int = 0,
    noise=None,
    descriptions: Optional[
        Dict[str, Tuple[MachineDescription, Dict[str, WorkloadDescription]]]
    ] = None,
) -> SurrogateModel:
    """Measure, profile, predict and fit — the full training pipeline.

    *descriptions* short-circuits measurement/profiling with
    pre-computed ``{machine: (md, {workload: wd})}`` pairs (tests reuse
    their cached setups); otherwise machines come from
    the hardware catalog and workloads from the workload catalog,
    simulated under *noise* (``None`` = noise-free).
    """
    from repro.hardware import machines as machine_catalog
    from repro.sim.noise import NO_NOISE
    from repro.workloads import catalog as workload_catalog

    machine_names = tuple(machine_names)
    workload_names = tuple(workload_names)
    if not machine_names or not workload_names:
        raise ModelError("surrogate training needs machines and workloads")
    if sample < 2:
        raise ModelError("surrogate training sample must be >= 2")
    noise = noise if noise is not None else NO_NOISE

    blocks_X: List[np.ndarray] = []
    blocks_y: List[np.ndarray] = []
    for m_name in machine_names:
        if descriptions is not None and m_name in descriptions:
            md, wds = descriptions[m_name]
        else:
            spec = machine_catalog.get(m_name)
            md = generate_machine_description(spec, noise=noise)
            gen = WorkloadDescriptionGenerator(spec, md, noise=noise)
            wds = {w: gen.generate(workload_catalog.get(w)) for w in workload_names}
        predictor = PandiaPredictor(md)
        placements = sample_canonical(md.topology, sample, seed=seed)
        for w_name in workload_names:
            X, y = training_table(md, wds[w_name], placements, predictor)
            blocks_X.append(X)
            blocks_y.append(y)

    X = np.vstack(blocks_X)
    y = np.concatenate(blocks_y)
    meta = {
        "machines": list(machine_names),
        "workloads": list(workload_names),
        "sample": int(sample),
        "seed": int(seed),
        "n_samples": int(X.shape[0]),
    }
    if kind == "ridge":
        return fit_ridge(X, y, meta=meta)
    if kind == "stumps":
        return fit_stumps(X, y, meta=meta)
    raise ModelError(f"unknown surrogate kind {kind!r} (ridge|stumps)")
