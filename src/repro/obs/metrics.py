"""Metrics registry: counters, gauges, and streaming histograms.

The registry is the numeric half of the observability layer (the JSONL
run log in :mod:`repro.obs.events` is the structured half).  Producers
— the trainer, the selective monitor, the profiler — get or create
named instruments and update them; consumers call
:meth:`MetricsRegistry.snapshot` to export everything as plain dicts.

A process-global default registry (:func:`default_registry`) serves the
common single-process case; components that need isolation (tests,
multi-model services) accept an injectable ``registry=`` instead.

>>> from repro.obs.metrics import MetricsRegistry
>>> reg = MetricsRegistry()
>>> reg.counter("inference.requests").inc()
>>> reg.histogram("inference.latency_s").observe(0.012)
>>> reg.snapshot()["counters"]["inference.requests"]
1
"""

from __future__ import annotations

import math
import random
import threading
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "reset_default_registry",
]


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A value that can move in either direction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Streaming distribution summary with quantile estimates.

    Keeps exact ``count`` / ``sum`` / ``min`` / ``max`` and a bounded
    uniform reservoir for quantiles: while fewer than ``reservoir_size``
    values have been observed the quantiles are exact; beyond that the
    reservoir is a uniform sample (Vitter's algorithm R) so estimates
    stay unbiased at O(1) memory per histogram.  Sampling uses a
    dedicated seeded :class:`random.Random` so snapshots are
    reproducible run-to-run.

    The reservoir is the only quantile estimator: a histogram is read
    in the process that records it.
    """

    def __init__(self, name: str, reservoir_size: int = 2048, seed: int = 0) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self.name = name
        self.reservoir_size = reservoir_size
        self._reservoir: List[float] = []
        self._rng = random.Random(seed)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._reservoir) < self.reservoir_size:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self.reservoir_size:
                    self._reservoir[slot] = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile ``q`` in [0, 1] over the reservoir."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            data = sorted(self._reservoir)
        if not data:
            return 0.0
        if len(data) == 1:
            return data[0]
        position = q * (len(data) - 1)
        low = int(math.floor(position))
        high = min(low + 1, len(data) - 1)
        fraction = position - low
        return data[low] * (1.0 - fraction) + data[high] * fraction

    def snapshot(self) -> Dict[str, float]:
        """Summary dict with count/sum/mean/min/max and p50/p95/p99."""
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named instruments, get-or-create, with a plain-dict export.

    Names are dotted strings (``trainer.epoch_seconds``); re-requesting
    a name returns the same instrument, and requesting an existing name
    as a different instrument type raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- get-or-create -------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, self._counters, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, self._gauges, Gauge)

    def histogram(self, name: str, reservoir_size: int = 2048) -> Histogram:
        with self._lock:
            self._check_name_free(name, skip=self._histograms)
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, reservoir_size=reservoir_size)
            return self._histograms[name]

    def _get_or_create(self, name: str, table: dict, factory):
        with self._lock:
            self._check_name_free(name, skip=table)
            if name not in table:
                table[name] = factory(name)
            return table[name]

    def _check_name_free(self, name: str, skip: dict) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not skip and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a different type"
                )

    # -- export --------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(
                list(self._counters) + list(self._gauges) + list(self._histograms)
            )

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Export every instrument as ``{kind: {name: value-or-summary}}``."""
        with self._lock:
            return {
                "counters": {n: c.snapshot() for n, c in self._counters.items()},
                "gauges": {n: g.snapshot() for n, g in self._gauges.items()},
                "histograms": {n: h.snapshot() for n, h in self._histograms.items()},
            }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_default_registry: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-global registry, created on first use."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry()
        return _default_registry


def reset_default_registry() -> None:
    """Drop the global registry (tests / between independent runs)."""
    global _default_registry
    with _default_lock:
        _default_registry = None
