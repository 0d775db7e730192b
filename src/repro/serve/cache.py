"""Content-hash result cache for wafer-map inference.

Wafer maps are tiny discrete uint8 grids (three die states, see
:mod:`repro.data.wafer`), so *exact-duplicate* detection is simply the
grid's raw bytes — hashing one 64x64 map costs microseconds against the
milliseconds of a CNN forward.  Fabs re-test and re-inspect wafers, and
process excursions produce runs of near-identical maps, so duplicate
traffic is common enough for a small cache to pay for itself.

The key is ``shape + raw bytes``: a hit returns a result computed on
byte-identical input, so serving stays bit-identical to uncached
inference.

Eviction is LRU under a byte budget; entries are costed by their
stored probability vector plus key bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["CachedResult", "ResultCache", "exact_key"]


class CachedResult:
    """One cached model output: class probabilities + selection score.

    The accept/reject decision is *not* stored — it is re-derived from
    the score at lookup time, so a cache survives threshold
    re-calibration (:mod:`repro.core.calibration`) without invalidation.
    """

    __slots__ = ("probabilities", "score")

    def __init__(self, probabilities: np.ndarray, score: float) -> None:
        self.probabilities = probabilities
        self.score = float(score)

    @property
    def nbytes(self) -> int:
        return self.probabilities.nbytes + 16


def exact_key(grid: np.ndarray) -> bytes:
    """Byte-exact cache key of a die grid (shape-prefixed raw bytes)."""
    h, w = grid.shape
    prefix = h.to_bytes(4, "little") + w.to_bytes(4, "little")
    if not grid.flags.c_contiguous:
        grid = np.ascontiguousarray(grid)
    return prefix + grid.tobytes()


class ResultCache:
    """Thread-safe LRU result cache under a byte budget.

    Parameters
    ----------
    max_bytes:
        Eviction threshold for stored results (keys + probability
        vectors).  ``0`` disables storage entirely (every ``get``
        misses, every ``put`` is dropped), which lets callers keep one
        code path for cache-on and cache-off serving.
    """

    def __init__(self, max_bytes: int = 8 * 1024 * 1024) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[bytes, CachedResult]" = OrderedDict()
        self._nbytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def key(self, grid: np.ndarray) -> bytes:
        """Cache key of a die grid (:func:`exact_key`)."""
        return exact_key(grid)

    def get(self, key: bytes) -> Optional[CachedResult]:
        """Look up a key, refreshing its recency; ``None`` on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: bytes, probabilities: np.ndarray, score: float) -> None:
        """Store one result (copying the probability vector)."""
        if self.max_bytes == 0:
            return
        entry = CachedResult(np.array(probabilities, copy=True), score)
        cost = entry.nbytes + len(key)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._nbytes -= previous.nbytes + len(key)
            self._entries[key] = entry
            self._nbytes += cost
            while self._nbytes > self.max_bytes and len(self._entries) > 1:
                old_key, old = self._entries.popitem(last=False)
                self._nbytes -= old.nbytes + len(old_key)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def hit_rate(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Plain-dict counters for logs and benchmark payloads."""
        return {
            "entries": len(self._entries),
            "nbytes": self._nbytes,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "hit_rate": self.hit_rate,
        }
