"""Bounded LRU cache for predictions.

A plain ``OrderedDict`` LRU: hits move the entry to the back, overflow
evicts from the front.  The cache itself is policy-free — hit/miss
accounting lives in :class:`~repro.search.stats.SearchStats`, owned by
the engine, so one stats object can span several caches if needed.

Thread-safe: a lock keeps the structure safe should two engines ever
share one cache from different threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

from repro.errors import ReproError

V = TypeVar("V")

_MISSING = object()


class PredictionCache(Generic[V]):
    """LRU mapping of ``(workload fingerprint, canonical key)`` to predictions."""

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize < 1:
            raise ReproError(f"cache size must be >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[V]:
        """The cached value, refreshed as most-recently-used, or ``None``."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return None
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: V) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
