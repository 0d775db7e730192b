"""Seeded gateway traffic traces and their deterministic admission replay.

Two pieces:

* **arrival processes** — :func:`poisson_trace` (memoryless, the
  classic open-loop model) and :func:`bursty_trace` (on/off modulated
  Poisson: bursts at ``rate_on`` separated by quiet spells), both
  seeded, multi-tenant, and serialized as replayable JSONL traces
  (:func:`save_trace` / :func:`load_trace`);
* **deterministic admission replay** — :func:`replay_admission` runs a
  trace through a fresh :class:`~repro.serve.admission.AdmissionController`
  under a :class:`~repro.serve.admission.ManualClock` pinned to the
  trace's own timestamps.  Same trace, same policy → byte-identical
  admit/shed decisions (:func:`decision_digest`), independent of wall
  clock, load, or host.

Live open-loop load against a running gateway is the repository
benchmark's job (``fabbench``, workload ``serve_frontdoor``): its
generator times each request from its due time, and it refuses to
record a run whose lateness or thread count is out of bounds.  The
gateway's saturation shape is pinned without a wall clock in
``tests/serve/test_gateway.py`` by driving these traces through a
``ManualClock`` gateway.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .admission import AdmissionController, ManualClock, TenantPolicy

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Arrival",
    "poisson_trace",
    "bursty_trace",
    "save_trace",
    "load_trace",
    "trace_digest",
    "replay_admission",
    "decision_digest",
]

TRACE_SCHEMA_VERSION = 1

#: Default multi-tenant mix: two fabs on one screening stage.
DEFAULT_TENANTS: Dict[str, float] = {"fab-a": 0.7, "fab-b": 0.3}


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: time offset, tenant, and grid index."""

    t: float
    tenant: str
    grid_id: int


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def _assign_tenants(
    rng: np.random.Generator, count: int, tenants: Dict[str, float]
) -> List[str]:
    names = sorted(tenants)
    weights = np.array([tenants[name] for name in names], dtype=np.float64)
    weights = weights / weights.sum()
    picks = rng.choice(len(names), size=count, p=weights)
    return [names[i] for i in picks]


def poisson_trace(
    rate_qps: float,
    duration_s: float,
    seed: int,
    tenants: Optional[Dict[str, float]] = None,
    grid_pool: int = 64,
) -> List[Arrival]:
    """Seeded Poisson arrivals: exponential gaps at ``rate_qps``."""
    if rate_qps <= 0 or duration_s <= 0:
        raise ValueError("rate_qps and duration_s must be positive")
    tenants = tenants or dict(DEFAULT_TENANTS)
    rng = np.random.default_rng(seed)
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_qps)
        if t >= duration_s:
            break
        times.append(t)
    names = _assign_tenants(rng, len(times), tenants)
    grid_ids = rng.integers(0, grid_pool, size=len(times))
    return [
        Arrival(round(times[i], 9), names[i], int(grid_ids[i]))
        for i in range(len(times))
    ]


def bursty_trace(
    rate_on_qps: float,
    duration_s: float,
    seed: int,
    rate_off_qps: float = 0.0,
    period_s: float = 0.25,
    duty: float = 0.5,
    tenants: Optional[Dict[str, float]] = None,
    grid_pool: int = 64,
) -> List[Arrival]:
    """On/off modulated Poisson: ``duty`` of each period at
    ``rate_on_qps``, the rest at ``rate_off_qps`` — the lot-arrival
    burstiness of a fab line, where a carrier's wafers land together."""
    if not 0.0 < duty <= 1.0:
        raise ValueError("duty must be in (0, 1]")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    tenants = tenants or dict(DEFAULT_TENANTS)
    rng = np.random.default_rng(seed)
    times: List[float] = []
    # Exact windowing: Poisson arrivals generated within each on/off
    # window independently, so an on-window burst can never spill an
    # arrival past the duty edge.
    window_start = 0.0
    while window_start < duration_s:
        edge = window_start + duty * period_s
        for start, end, rate in (
            (window_start, edge, rate_on_qps),
            (edge, window_start + period_s, rate_off_qps),
        ):
            if rate <= 0:
                continue
            t = start
            while True:
                t += rng.exponential(1.0 / rate)
                if t >= min(end, duration_s):
                    break
                times.append(t)
        window_start += period_s
    names = _assign_tenants(rng, len(times), tenants)
    grid_ids = rng.integers(0, grid_pool, size=len(times))
    return [
        Arrival(round(times[i], 9), names[i], int(grid_ids[i]))
        for i in range(len(times))
    ]


# ----------------------------------------------------------------------
# Trace persistence (replayable JSONL)
# ----------------------------------------------------------------------
def save_trace(
    path: str, arrivals: Sequence[Arrival], meta: Optional[Dict[str, Any]] = None
) -> str:
    """Write a trace: one header line, then one JSON line per arrival."""
    header = {
        "schema": TRACE_SCHEMA_VERSION,
        "kind": "gateway_trace",
        "arrivals": len(arrivals),
        **(meta or {}),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for arrival in arrivals:
            handle.write(json.dumps(
                {"t": arrival.t, "tenant": arrival.tenant, "grid": arrival.grid_id},
                sort_keys=True,
            ) + "\n")
    return path


def load_trace(path: str) -> Tuple[List[Arrival], Dict[str, Any]]:
    """Load a saved trace; returns ``(arrivals, header_meta)``."""
    with open(path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        if header.get("schema") != TRACE_SCHEMA_VERSION or header.get(
            "kind"
        ) != "gateway_trace":
            raise ValueError(f"{path} is not a schema-v{TRACE_SCHEMA_VERSION} trace")
        arrivals = [
            Arrival(record["t"], record["tenant"], record["grid"])
            for record in map(json.loads, handle)
        ]
    return arrivals, header


def trace_digest(arrivals: Sequence[Arrival]) -> str:
    """Content digest of a trace (order-sensitive)."""
    digest = hashlib.sha256()
    for arrival in arrivals:
        digest.update(
            f"{arrival.t!r}|{arrival.tenant}|{arrival.grid_id}\n".encode()
        )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Deterministic admission replay
# ----------------------------------------------------------------------
def replay_admission(
    arrivals: Sequence[Arrival],
    default_policy: TenantPolicy,
    per_tenant: Optional[Dict[str, TenantPolicy]] = None,
) -> bytes:
    """Admit/shed decisions of a trace under a virtual clock.

    The controller's clock is *the trace's own timestamps*, so the
    result depends only on ``(trace, policy)`` — replaying the same
    seeded trace yields byte-identical decisions on any machine, which
    is the property the traffic-test wall pins.  Returns one byte per
    arrival: ``1`` admitted, ``0`` shed.
    """
    clock = ManualClock()
    controller = AdmissionController(
        default_policy, per_tenant=per_tenant, clock=clock
    )
    decisions = bytearray()
    for arrival in arrivals:
        clock.set(arrival.t)
        decisions.append(1 if controller.admit(arrival.tenant) is None else 0)
    return bytes(decisions)


def decision_digest(decisions: bytes) -> str:
    return hashlib.sha256(decisions).hexdigest()
