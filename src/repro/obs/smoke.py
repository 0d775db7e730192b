"""Observability smoke gate (``python -m repro.obs.smoke``).

Drives the obs v2 pillars end-to-end and exits non-zero unless every
contract holds:

1. **Serve trace.**  Requests served by a
   :class:`~repro.serve.ServeEngine` with tracing armed must yield the
   span chain ``serve.request`` → ``serve.queue`` / ``serve.batch`` →
   ``serve.respond``.
2. **Distributed trace across processes.**  One two-worker
   :class:`~repro.parallel.engine.DataParallelEngine` step at batch 64
   (two 32-row shards) must yield one ``parallel.step`` trace whose
   ``parallel.shard`` spans carry a worker's pid, not the parent's.
3. **Exporters.**  The registry's ``snapshot()`` rendered as
   Prometheus text must pass :func:`repro.obs.export.lint_prometheus`
   clean, and the ops console (:mod:`repro.obs.top`) must render a
   frame from it.
4. **Flight recorder.**  With a dump directory configured, a recorded
   fault event must produce an atomic, provenance-stamped dump file.

On platforms without multiprocessing support leg 2 is skipped.
``scripts/check.sh`` (and ``make check``) run this under a timeout.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np

from ..core.cnn import BackboneConfig, WaferCNN
from ..core.selective import SelectiveNet
from ..parallel import parallel_supported
from ..parallel.engine import DataParallelEngine, ObjectiveSpec
from ..serve import ServeConfig, ServeEngine
from .export import lint_prometheus, to_prometheus
from .flight import (
    record_flight_event,
    reset_default_flight_recorder,
    set_flight_dump_dir,
    dump_flight,
)
from .metrics import MetricsRegistry
from .top import render
from .trace import arm_tracing, disarm_tracing, format_span_tree

_SIZE = 16
#: One step at this batch is two 32-row shards, one per worker.
_BATCH = 64


def _backbone() -> BackboneConfig:
    return BackboneConfig(
        input_size=_SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
        fc_units=16, seed=11,
    )


def _serve_trace(registry: MetricsRegistry) -> bool:
    rng = np.random.default_rng(0)
    grids = [
        rng.integers(0, 3, size=(_SIZE, _SIZE)).astype(np.uint8)
        for _ in range(8)
    ]
    tracer = arm_tracing(recorder=False)
    try:
        config = ServeConfig(max_batch_size=4, cache_bytes=0)
        with ServeEngine(SelectiveNet(4, _backbone()), config, registry=registry) as engine:
            engine.classify_many(grids, timeout=120.0)
    finally:
        disarm_tracing()
    required = {"serve.request", "serve.queue", "serve.batch", "serve.respond"}
    names = {span["name"] for span in tracer.spans()}
    if not required <= names:
        print(f"FAIL: serve trace incomplete; missing {sorted(required - names)}")
        return False
    print(format_span_tree(tracer.spans(tracer.trace_ids()[0])))
    print("obs smoke: serve trace OK")
    return True


def _parallel_step(registry: MetricsRegistry) -> bool:
    """One traced two-worker step whose shard spans come from the workers."""
    rng = np.random.default_rng(1)
    inputs = rng.normal(size=(_BATCH, 1, _SIZE, _SIZE)).astype(np.float32)
    labels = rng.integers(0, 4, size=(_BATCH,)).astype(np.int64)
    engine = DataParallelEngine(
        WaferCNN(4, _backbone()), ObjectiveSpec(), num_workers=2,
        max_batch=_BATCH, registry=registry,
    )
    tracer = arm_tracing(recorder=False)
    try:
        engine.train_step(inputs, labels)
    finally:
        disarm_tracing()
        engine.shutdown()

    # 2. one step trace whose shard spans were recorded in the workers
    steps = [span for span in tracer.spans() if span["name"] == "parallel.step"]
    if len(steps) != 1:
        print(f"FAIL: expected one parallel.step trace, found {len(steps)}")
        return False
    spans = tracer.spans(steps[0]["trace_id"])
    shard_pids = [span["pid"] for span in spans if span["name"] == "parallel.shard"]
    if len(shard_pids) != 2 or os.getpid() in shard_pids:
        print(f"FAIL: parallel.shard spans carry pids {shard_pids}; "
              f"expected two from worker processes (parent {os.getpid()})")
        return False
    print(format_span_tree(spans))
    print(f"obs smoke: trace across {len(set(shard_pids)) + 1} processes OK")
    return True


def main() -> int:
    # One registry: the serve counters and the training engine's parent
    # counters meet in the same snapshot.
    registry = MetricsRegistry()
    if not _serve_trace(registry):
        return 1
    if parallel_supported(2):
        if not _parallel_step(registry):
            return 1
    else:
        print("obs smoke: parallel unsupported; cross-process leg SKIPPED")

    # 3. exporters: Prometheus lint + ops console frame
    snapshot = registry.snapshot()
    problems = lint_prometheus(to_prometheus(snapshot))
    if problems:
        print("FAIL: prometheus lint problems: " + "; ".join(problems))
        return 1
    frame = render(snapshot)
    if "qps" not in frame:
        print("FAIL: ops console frame rendered without a qps line")
        return 1
    print("obs smoke: prometheus exposition + ops console OK")

    # 4. flight recorder dump on a fault event
    tmpdir = tempfile.mkdtemp(prefix="obs_smoke_flight_")
    try:
        reset_default_flight_recorder()
        set_flight_dump_dir(tmpdir)
        record_flight_event("smoke_fault", detail="synthetic")
        path = dump_flight("smoke")
        if path is None or not os.path.exists(path):
            print("FAIL: flight dump produced no file")
            return 1
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        event_names = [
            entry["data"].get("name")
            for entry in payload["entries"] if entry["kind"] == "event"
        ]
        if "smoke_fault" not in event_names or "provenance" not in payload:
            print("FAIL: flight dump missing the fault event or provenance")
            return 1
    finally:
        reset_default_flight_recorder()
        shutil.rmtree(tmpdir, ignore_errors=True)
    print("obs smoke: flight recorder dump OK")

    print("obs smoke OK (serve trace, cross-process trace, exporters, "
          "flight recorder)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
