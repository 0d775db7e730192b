"""Cross-process telemetry aggregation: fleet-merged metric snapshots.

Data-parallel training runs in worker processes, each with its own
:class:`~repro.obs.metrics.MetricsRegistry`, and the parent's registry
alone under-counts everything that happens inside them.  This module
defines the *mergeable snapshot* — the wire format workers ship to
their supervisor — and the merge algebra:

* **counters** add;
* **gauges** are last-writer-wins (each snapshot carries a timestamp;
  the freshest publication of a name survives the merge);
* **histograms** merge their exact moments (count/sum/min/max) and add
  their log-spaced bucket tables (:func:`merge_histogram_states`) —
  bucket addition is exactly associative and commutative, so
  ``merge(a, b, c)`` is order-invariant, and
  :func:`state_quantile` reads quantiles off the merged buckets with a
  bounded relative error set by the bucket width.

:class:`FleetAggregator` is the supervisor-side accumulator: workers
``publish`` snapshots under a source key (``rank0``, ``rank1``); a
worker that dies is ``retire``\\ d, folding its last-published snapshot
into a permanent baseline so a respawned worker restarting its
registries from zero never loses the fleet totals (the
crash/respawn-metrics-loss fix).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from .metrics import MetricsRegistry, bucket_value

__all__ = [
    "AGGREGATE_SCHEMA_VERSION",
    "mergeable_snapshot",
    "merge_snapshots",
    "merge_histogram_states",
    "state_quantile",
    "summarize_snapshot",
    "FleetAggregator",
]

AGGREGATE_SCHEMA_VERSION = 1

_EMPTY_HIST: Dict[str, Any] = {
    "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "buckets": {},
}


def mergeable_snapshot(
    registry: MetricsRegistry, source: Optional[str] = None
) -> Dict[str, Any]:
    """Export ``registry`` in the mergeable wire format.

    The snapshot is JSON-safe (plain ints/floats/strs) so it can ride
    a worker pipe, a shared-memory blob, or a run-log record
    unchanged.
    """
    snapshot = {
        "schema": AGGREGATE_SCHEMA_VERSION,
        "ts": time.time(),
        "source": source,
        "counters": {
            name: counter.snapshot()
            for name, counter in registry._counters.items()
        },
        "gauges": {
            name: gauge.snapshot() for name, gauge in registry._gauges.items()
        },
        "histograms": {
            name: histogram.mergeable_state()
            for name, histogram in registry._histograms.items()
        },
    }
    return snapshot


def merge_histogram_states(states: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum bucket tables and combine exact moments; order-invariant."""
    merged: Dict[str, Any] = {
        "count": 0, "sum": 0.0, "min": math.inf, "max": -math.inf, "buckets": {},
    }
    for state in states:
        count = int(state.get("count", 0))
        if count == 0:
            continue
        merged["count"] += count
        merged["sum"] += float(state.get("sum", 0.0))
        merged["min"] = min(merged["min"], float(state.get("min", 0.0)))
        merged["max"] = max(merged["max"], float(state.get("max", 0.0)))
        buckets = merged["buckets"]
        for key, bucket_count in state.get("buckets", {}).items():
            buckets[key] = buckets.get(key, 0) + int(bucket_count)
    if merged["count"] == 0:
        merged["min"] = 0.0
        merged["max"] = 0.0
    return merged


def state_quantile(state: Dict[str, Any], q: float) -> float:
    """Quantile ``q`` in [0, 1] read off a (merged) histogram state.

    Walks the buckets in value order to the target rank and returns the
    bucket's geometric-center value, clamped to the exact observed
    ``[min, max]`` — so ``q=0``/``q=1`` are exact and interior
    quantiles carry at most half a bucket of relative error.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    count = int(state.get("count", 0))
    if count == 0:
        return 0.0
    low = float(state.get("min", 0.0))
    high = float(state.get("max", 0.0))
    if q == 0.0:
        return low
    if q == 1.0:
        return high
    ordered = sorted(
        ((bucket_value(key), int(n)) for key, n in state.get("buckets", {}).items()),
        key=lambda pair: pair[0],
    )
    target = q * (count - 1)
    cumulative = 0
    for value, bucket_count in ordered:
        cumulative += bucket_count
        if cumulative > target:
            return min(max(value, low), high)
    return high


def summarize_snapshot(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Render a mergeable snapshot in ``MetricsRegistry.snapshot`` form.

    Histogram states become the familiar summary dicts
    (count/sum/mean/min/max/p50/p95/p99, quantiles read off the
    buckets), so every consumer of plain registry snapshots — the
    exporters, the ops console — works on fleet-merged data unchanged.
    """
    histograms: Dict[str, Dict[str, float]] = {}
    for name, state in snapshot.get("histograms", {}).items():
        count = int(state.get("count", 0))
        total = float(state.get("sum", 0.0))
        histograms[name] = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": float(state.get("min", 0.0)),
            "max": float(state.get("max", 0.0)),
            "p50": state_quantile(state, 0.50),
            "p95": state_quantile(state, 0.95),
            "p99": state_quantile(state, 0.99),
        }
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": {
            name: value for name, value in snapshot.get("gauges", {}).items()
        },
        "histograms": histograms,
    }


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge mergeable snapshots: counters add, gauges freshest-wins,
    histogram states merge bucket-wise.  Returns a mergeable snapshot
    whose ``ts`` is the newest input timestamp."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    gauge_ts: Dict[str, float] = {}
    histogram_states: Dict[str, List[Dict[str, Any]]] = {}
    newest = 0.0
    for snapshot in snapshots:
        ts = float(snapshot.get("ts", 0.0))
        newest = max(newest, ts)
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snapshot.get("gauges", {}).items():
            if name not in gauge_ts or ts >= gauge_ts[name]:
                gauge_ts[name] = ts
                gauges[name] = value
        for name, state in snapshot.get("histograms", {}).items():
            histogram_states.setdefault(name, []).append(state)
    return {
        "schema": AGGREGATE_SCHEMA_VERSION,
        "ts": newest,
        "source": "merged",
        "counters": counters,
        "gauges": gauges,
        "histograms": {
            name: merge_histogram_states(states)
            for name, states in histogram_states.items()
        },
    }


class FleetAggregator:
    """Supervisor-side accumulator of per-worker snapshots.

    ``publish(source, snapshot)`` stores the worker's latest snapshot;
    ``merged(extra=...)`` combines every live source, every retired
    baseline, and any extra snapshots (typically the parent's own
    registry) into one fleet view.

    Retirement is the crash-consistency half: a worker that dies took
    its registry with it, and its replacement restarts from zero.
    ``retire(source)`` folds the casualty's **last-published** snapshot
    into a monotonic baseline before the replacement's first publish,
    so fleet counters never move backwards across a respawn.  (Metrics
    the casualty accumulated after its final publish are lost — that
    window is bounded by the publish cadence.)
    """

    def __init__(self) -> None:
        self._live: Dict[str, Dict[str, Any]] = {}
        self._retired_baseline: Optional[Dict[str, Any]] = None
        self._retired_count = 0
        self._lock = threading.Lock()

    def publish(self, source: str, snapshot: Dict[str, Any]) -> None:
        """Store ``source``'s latest snapshot (replacing the previous)."""
        with self._lock:
            self._live[str(source)] = snapshot

    def retire(self, source: str) -> None:
        """Fold ``source``'s last snapshot into the permanent baseline."""
        with self._lock:
            snapshot = self._live.pop(str(source), None)
            if snapshot is None:
                return
            self._retired_count += 1
            if self._retired_baseline is None:
                self._retired_baseline = snapshot
            else:
                self._retired_baseline = merge_snapshots(
                    [self._retired_baseline, snapshot]
                )

    def sources(self) -> Dict[str, Dict[str, Any]]:
        """Latest snapshot per live source (shallow copy)."""
        with self._lock:
            return dict(self._live)

    @property
    def retired(self) -> int:
        """How many sources have been folded into the baseline."""
        return self._retired_count

    def merged(
        self, extra: Iterable[Dict[str, Any]] = ()
    ) -> Dict[str, Any]:
        """Fleet-wide mergeable snapshot: live + retired + ``extra``."""
        with self._lock:
            parts = list(self._live.values())
            if self._retired_baseline is not None:
                parts.append(self._retired_baseline)
        parts.extend(extra)
        return merge_snapshots(parts)
