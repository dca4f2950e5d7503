"""Persistence for machine and workload descriptions, and surrogates.

Machine descriptions are workload-independent and "created once for
each machine" (Section 3); workload descriptions cost six profiling
runs (Section 4).  Both are meant to be stored and reused — this
package provides stable JSON serialisation and a small on-disk store,
plus save/load for trained placement surrogates.  Predictions are not
persisted: the fixed point is cheaper to recompute than to read back.
"""

from repro.io.serialization import (
    description_from_json,
    description_to_json,
    machine_description_from_json,
    machine_description_to_json,
)
from repro.io.store import DescriptionStore
from repro.io.surrogate import load_surrogate, save_surrogate

__all__ = [
    "description_from_json",
    "description_to_json",
    "machine_description_from_json",
    "machine_description_to_json",
    "DescriptionStore",
    "load_surrogate",
    "save_surrogate",
]
