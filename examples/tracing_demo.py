"""Distributed tracing walkthrough: one wafer's journey, span by span.

Arms the process tracer, serves a handful of wafers through the
batching engine's in-process lane, runs one two-worker data-parallel
training step (when the platform supports fork + shared memory), then
prints:

1. the span tree of the first served request — enqueue, queue-wait,
   batch assembly, respond;
2. the span tree of the training step, whose shard spans were recorded
   in the worker processes — the only telemetry workers send home;
3. a Prometheus rendering of this process's registry snapshot;
4. a flight-recorder dump of the most recent spans/events.

Tracing is off by default everywhere; a disarmed probe on the serve
path costs ~40 ns per request, which is why the engine can afford to
check on every submit.

Run:  python examples/tracing_demo.py
"""

import json
import os
import tempfile

import numpy as np

from repro.core import BackboneConfig
from repro.core.cnn import WaferCNN
from repro.core.selective import SelectiveNet
from repro.obs import (
    MetricsRegistry,
    arm_tracing,
    disarm_tracing,
    dump_flight,
    format_span_tree,
    set_flight_dump_dir,
)
from repro.obs.export import lint_prometheus, to_prometheus
from repro.parallel import parallel_supported
from repro.parallel.engine import DataParallelEngine, ObjectiveSpec
from repro.serve import ServeConfig, ServeEngine

SIZE = 32


def _backbone() -> BackboneConfig:
    return BackboneConfig(
        input_size=SIZE, conv_channels=(8, 8), conv_kernels=(3, 3),
        fc_units=32, seed=11,
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-flight-") as flight_dir:
        set_flight_dump_dir(flight_dir)
        try:
            _tour()
        finally:
            set_flight_dump_dir(None)
            disarm_tracing()


def _tour() -> None:
    rng = np.random.default_rng(0)
    wafers = rng.integers(0, 3, size=(8, SIZE, SIZE)).astype(np.uint8)

    # ------------------------------------------------------------------
    # 1. Arm the tracer, serve, and walk the first request's trace.
    # ------------------------------------------------------------------
    print("== serving 8 wafers, traced, on the in-process lane ==")
    tracer = arm_tracing()  # also feeds the flight recorder's ring
    registry = MetricsRegistry()
    config = ServeConfig(max_batch_size=4, cache_bytes=0)
    with ServeEngine(SelectiveNet(4, _backbone()), config, registry=registry) as engine:
        results = engine.classify_many(list(wafers), timeout=120.0)
    accepted = sum(1 for r in results if r.accepted)
    print(f"served {len(results)} wafers ({accepted} accepted)\n")

    print("-- span tree of the first request --")
    print(format_span_tree(tracer.spans(tracer.trace_ids()[0])))
    print()

    # ------------------------------------------------------------------
    # 2. One training step on two workers: a trace across processes.
    # ------------------------------------------------------------------
    if parallel_supported(2):
        print("== one training step at batch 64 on 2 worker processes ==")
        inputs = rng.normal(size=(64, 1, SIZE, SIZE)).astype(np.float32)
        labels = rng.integers(0, 4, size=(64,)).astype(np.int64)
        trainer = DataParallelEngine(
            WaferCNN(4, _backbone()), ObjectiveSpec(), num_workers=2,
            max_batch=64, registry=registry,
        )
        tracer.clear()
        try:
            trainer.train_step(inputs, labels)
        finally:
            trainer.shutdown()
        spans = tracer.spans(tracer.trace_ids()[0])
        print(format_span_tree(spans))
        pids = sorted({record["pid"] for record in spans})
        print(f"processes in this trace: {pids}\n")
    else:
        print("(no fork + shared memory here: the cross-process step is skipped)\n")

    # ------------------------------------------------------------------
    # 3. Prometheus rendering of this process's registry.
    # ------------------------------------------------------------------
    text = to_prometheus(registry.snapshot())
    problems = lint_prometheus(text)
    print("-- prometheus exposition (first 12 lines, lint "
          f"{'clean' if not problems else problems}) --")
    print("\n".join(text.splitlines()[:12]))
    print()

    # ------------------------------------------------------------------
    # 4. Flight-recorder dump: the black box you read after a fault.
    # ------------------------------------------------------------------
    path = dump_flight("demo")
    with open(path) as handle:
        payload = json.load(handle)
    print(f"-- flight dump: {os.path.basename(path)} --")
    print(f"entries={len(payload['entries'])} reason={payload['reason']} "
          f"git_sha={payload['provenance']['git_sha'][:12]}")


if __name__ == "__main__":
    main()
