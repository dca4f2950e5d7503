"""Exception hierarchy for the Pandia reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subtypes mirror the three
Pandia components (machine description, workload description, prediction)
plus the simulation substrate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class TopologyError(ReproError):
    """A machine topology is malformed or an entity lookup failed."""


class PlacementError(ReproError):
    """A thread placement is invalid for the target machine."""


class SimulationError(ReproError):
    """The ground-truth simulator was driven with inconsistent inputs."""


class ProfilingError(ReproError):
    """A profiling run could not produce the measurement it was built for."""


class ModelError(ReproError):
    """A Pandia model (machine or workload description) is inconsistent."""


class PredictionError(ReproError):
    """The performance predictor failed to produce a stable prediction."""


class LintError(ReproError):
    """The static invariant checker was misconfigured or cannot run.

    Raised for unknown rule selections, unreadable/malformed baseline
    files and unparseable source — *not* for findings, which are data,
    not exceptions.
    """
