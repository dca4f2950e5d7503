"""Deterministic measurement noise.

Real timed runs vary by a few percent between repetitions.  We reproduce
that with a multiplicative perturbation that is *deterministic* in the
identity of the run (machine, workload, placement, run tag), so that the
whole evaluation is reproducible bit-for-bit while still exhibiting
realistic scatter across placements.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass


def _unit_uniform(material: str) -> float:
    """Map a string to a uniform value in [0, 1) via SHA-256."""
    # Imported on the first noisy draw: hashlib loads OpenSSL, which a
    # noise-free run never needs.
    import hashlib

    digest = hashlib.sha256(material.encode("utf-8")).digest()
    (value,) = struct.unpack(">Q", digest[:8])
    return value / float(1 << 64)


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative noise with half-width *sigma* (default 1.5%).

    ``factor`` returns a value in [1-sigma, 1+sigma].  A ``seed`` allows
    independent noise streams (e.g. repeated timed runs of the same
    placement).
    """

    sigma: float = 0.015
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("noise sigma must be >= 0")

    def factor(self, *identity: object) -> float:
        """Noise multiplier for the run identified by *identity*."""
        if self.sigma == 0:
            return 1.0
        material = "\x1f".join([str(self.seed)] + [repr(part) for part in identity])
        offset = 2.0 * _unit_uniform(material) - 1.0
        return 1.0 + self.sigma * offset

    def silent(self) -> "NoiseModel":
        """A copy of this model with noise switched off."""
        return NoiseModel(sigma=0.0, seed=self.seed)

    def reseeded(self, seed: int) -> "NoiseModel":
        """A copy with a different seed (independent noise stream)."""
        return NoiseModel(sigma=self.sigma, seed=seed)


#: Noise-free model used by unit tests that check exact fixed points.
NO_NOISE = NoiseModel(sigma=0.0)
