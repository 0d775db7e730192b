"""Pure statistics of the benchmark: quantiles, latency summaries, tallies.

Kept free of I/O and of ``repro`` imports so the harness self-tests can
exercise it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

INF = float("inf")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; ``inf`` entries sort last (late requests)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Outcome:
    """One scheduled request as the generator saw it.

    ``latency_s`` counts from the request's *due* time, so a stalled
    generator or server charges every request queued behind the stall.
    ``ok`` means answered with a decision equal to the reference; a
    refused, errored, timed-out or wrong request has latency ``inf``.
    """

    tenant: str
    due_s: float
    latency_s: float
    ok: bool


def latency_summary(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """p50 and p99 in ms, and how many samples lie beyond the p99."""
    latencies = [o.latency_s for o in outcomes]
    return {
        "latency_p50_ms": 1000.0 * quantile(latencies, 0.50),
        "latency_p99_ms": 1000.0 * quantile(latencies, 0.99),
        "samples_beyond_p99": len(latencies) - math.ceil(0.99 * len(latencies)),
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
