"""Save/load for trained surrogate models.

One model, one JSON file.  Writes are atomic (temp file + rename);
corrupt, truncated or wrong-shape files raise
:class:`~repro.errors.ModelError` naming the offending path.  A
surrogate model is an explicitly named artifact, so a version or
feature-layout mismatch is an error telling the user to retrain.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from repro.errors import ModelError
from repro.surrogate.model import SurrogateModel

#: Bump when the serialised model schema or the feature layout changes.
SURROGATE_VERSION = 1


def save_surrogate(model: SurrogateModel, path: Union[str, Path]) -> Path:
    """Write *model* to *path* atomically; returns the resolved path."""
    path = Path(path).expanduser()
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"version": SURROGATE_VERSION, "model": model.to_dict()}
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)
    return path


def load_surrogate(path: Union[str, Path]) -> SurrogateModel:
    """Read a model back; raises :class:`ModelError` naming the path."""
    path = Path(path).expanduser()
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ModelError(f"no surrogate model at {path}")
    except (OSError, ValueError) as exc:
        raise ModelError(f"corrupt surrogate model file {path}: {exc}") from exc
    if not isinstance(data, dict) or "model" not in data:
        raise ModelError(f"corrupt surrogate model file {path}: not a model object")
    if data.get("version") != SURROGATE_VERSION:
        raise ModelError(
            f"surrogate model {path} has version {data.get('version')!r}, "
            f"expected {SURROGATE_VERSION}; retrain it (pandia surrogate train)"
        )
    try:
        return SurrogateModel.from_dict(data["model"])
    except ModelError as exc:
        raise ModelError(f"corrupt surrogate model file {path}: {exc}") from exc
