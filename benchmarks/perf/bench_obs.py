"""Observability benchmarks: disarmed-tracing overhead and exporter cost.

Case groups (``BENCH_obs.json``):

* ``trace_probe`` — the raw cost of ``current_tracer()``, the single
  module-global read that is the *entire* hot-path footprint of
  disarmed tracing (one probe per submit, one per batch, one per
  parallel step);
* ``serve_qps_disarmed`` — engine throughput with tracing disarmed
  (the shipped hot path).  Its ``disarmed_overhead_pct`` metric is the
  headline acceptance number: probes-per-request x probe cost as a
  percentage of the measured per-request serve time.  The gate in
  ``scripts/check.sh`` asserts it stays under 1%;
* ``serve_qps_armed`` — the same workload with tracing armed (ring
  sink, no exporter), with ``armed_overhead_pct`` vs the disarmed run
  — the price of turning the flashlight on;
* ``export_render`` — Prometheus text rendering of a summary snapshot;
* ``flight_dump`` — filling and dumping the flight ring to disk.

Overhead arithmetic, not A/B timing, for the headline number: the
probe costs tens of nanoseconds against a per-request serve time of
hundreds of microseconds, a ratio of ~1e-4.  An A/B of two full QPS
runs has run-to-run noise orders of magnitude above that, so the
honest measurement is (probes/request x probe cost) / per-request
time — both factors measured, neither assumed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import List

import numpy as np

from repro.core.cnn import BackboneConfig
from repro.core.selective import SelectiveNet
from repro.obs.export import to_prometheus
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import arm_tracing, current_tracer, disarm_tracing
from repro.serve import ServeConfig, ServeEngine

from .harness import CaseResult, run_case

__all__ = ["run_obs_suite"]

#: Architecture label stamped into every case's params.
ARCH = "deploy-16-16-32"

#: Hot-path probes per served request: one in ``submit`` plus the
#: batch probe amortized across the batch (see ``ServeEngine``).
PROBES_PER_REQUEST = 2.0


def _model(size: int) -> SelectiveNet:
    return SelectiveNet(
        9,
        BackboneConfig(
            input_size=size, conv_channels=(16, 16, 32), conv_kernels=(3, 3, 3),
            fc_units=128, seed=3,
        ),
    )


def _grids(count: int, size: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=(count, size, size)).astype(np.uint8)


def _probe_case(repeats: int) -> CaseResult:
    loops = 100_000

    def run() -> None:
        probe = current_tracer
        for _ in range(loops):
            probe()

    case = run_case(
        "trace_probe", run, repeats=repeats, warmup=1, params={"loops": loops}
    )
    case.metrics["probe_ns"] = case.wall_s_min / loops * 1e9
    return case


def _serve_case(
    name: str, model, grids, repeats: int, armed: bool
) -> CaseResult:
    config = ServeConfig(
        max_batch_size=8, queue_limit=4 * len(grids), cache_bytes=0,
    )
    tracer = arm_tracing(capacity=4 * len(grids), recorder=False) if armed else None
    try:
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:

            def run() -> None:
                if tracer is not None:
                    tracer.clear()
                engine.classify_many(list(grids), timeout=300.0)

            case = run_case(
                name, run, repeats=repeats, warmup=1,
                params={
                    "requests": len(grids), "input_size": grids.shape[1],
                    "arch": ARCH, "max_batch_size": 8, "armed": armed,
                },
            )
    finally:
        if armed:
            disarm_tracing()
    case.metrics["qps"] = len(grids) / case.wall_s_median
    return case


def _export_case(repeats: int) -> CaseResult:
    registry = MetricsRegistry()
    for i in range(20):
        registry.counter(f"serve.counter{i}").inc(i)
        registry.gauge(f"serve.gauge{i}").set(float(i))
    hist = registry.histogram("serve.latency_s")
    for i in range(1000):
        hist.observe(0.001 + 0.0001 * (i % 50))
    snapshot = registry.snapshot()

    def run() -> None:
        to_prometheus(snapshot)

    case = run_case(
        "export_render", run, repeats=repeats, warmup=1,
        params={"counters": 20, "gauges": 20, "histograms": 1},
    )
    case.metrics["renders_per_s"] = 1.0 / case.wall_s_median
    return case


def _flight_dump_case(repeats: int) -> CaseResult:
    recorder = FlightRecorder(capacity=2048)
    for i in range(2048):
        recorder.record_event("bench_event", index=i, detail="x" * 32)
    tmpdir = tempfile.mkdtemp(prefix="bench_obs_flight_")
    counter = [0]
    try:

        def run() -> None:
            counter[0] += 1
            recorder.dump(
                os.path.join(tmpdir, f"dump{counter[0]}.json"), reason="bench"
            )

        case = run_case(
            "flight_dump", run, repeats=repeats, warmup=1,
            params={"entries": 2048},
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    case.metrics["dump_ms"] = case.wall_s_median * 1e3
    return case


def run_obs_suite(smoke: bool = False, repeats: int = 3) -> List[CaseResult]:
    """Run the observability suite; returns its :class:`CaseResult` list."""
    size = 16 if smoke else 32
    requests = 24 if smoke else 96
    repeats = max(2, min(repeats, 3)) if smoke else repeats

    cases: List[CaseResult] = []
    probe = _probe_case(repeats)
    cases.append(probe)

    model = _model(size)
    grids = _grids(requests, size)
    disarmed = _serve_case("serve_qps_disarmed", model, grids, repeats, armed=False)
    per_request_s = disarmed.wall_s_median / requests
    probe_s = probe.metrics["probe_ns"] * 1e-9
    disarmed.metrics["disarmed_overhead_pct"] = (
        PROBES_PER_REQUEST * probe_s / per_request_s * 100.0
    )
    cases.append(disarmed)

    armed = _serve_case("serve_qps_armed", model, grids, repeats, armed=True)
    armed.metrics["armed_overhead_pct"] = max(
        0.0,
        (disarmed.metrics["qps"] / max(armed.metrics["qps"], 1e-9) - 1.0) * 100.0,
    )
    cases.append(armed)

    cases.append(_export_case(repeats))
    cases.append(_flight_dump_case(repeats))
    return cases
