"""Telemetry of the data-parallel training lane.

Workers keep no metrics registry.  Covers the worker-side story of the
obs layer: shard spans coming home over the pipes into the parent
tracer, and the respawn bookkeeping the parent keeps on the raw pool.
"""

import os

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig, WaferCNN
from repro.obs.flight import default_flight_recorder, reset_default_flight_recorder
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import arm_tracing, disarm_tracing, span_tree
from repro.parallel import parallel_supported
from repro.parallel.engine import DataParallelEngine, ObjectiveSpec
from repro.parallel.pool import WorkerPool

SIZE = 16

needs_parallel = pytest.mark.skipif(
    not parallel_supported(2), reason="parallel execution unavailable"
)


def _model():
    return WaferCNN(
        4,
        BackboneConfig(
            input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=7,
        ),
    )


def _batch(n=64, seed=0):
    """Two 32-row shards: one per worker of a two-worker engine."""
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 1, SIZE, SIZE)).astype(np.float32)
    labels = rng.integers(0, 4, size=(n,)).astype(np.int64)
    weights = np.ones(n, dtype=np.float32)
    return inputs, labels, weights


@pytest.fixture(autouse=True)
def _disarmed():
    disarm_tracing()
    yield
    disarm_tracing()


@needs_parallel
class TestStepTracing:
    def test_step_and_shard_spans_form_one_trace(self):
        tracer = arm_tracing(recorder=False)
        engine = DataParallelEngine(
            _model(), ObjectiveSpec(), num_workers=2, max_batch=64,
            registry=MetricsRegistry(),
        )
        try:
            engine.train_step(*_batch())
        finally:
            engine.shutdown()
        spans = tracer.spans()
        steps = [r for r in spans if r["name"] == "parallel.step"]
        shards = [r for r in spans if r["name"] == "parallel.shard"]
        backwards = [r for r in spans if r["name"] == "parallel.shard.backward"]
        assert len(steps) == 1
        assert len(shards) == 2 and len(backwards) == 2
        step = steps[0]
        assert step["attrs"]["workers"] == 2
        for shard in shards + backwards:
            assert shard["parent_id"] == step["span_id"]
            assert shard["trace_id"] == step["trace_id"]
            assert shard["pid"] != os.getpid()  # recorded in the worker
        # Worker k takes shard k.
        assert {(s["attrs"]["rank"], s["attrs"]["shard"]) for s in shards} == {
            (0, 0), (1, 1)
        }
        roots = span_tree(spans)
        assert len(roots) == 1 and roots[0]["name"] == "parallel.step"

    def test_disarmed_steps_ship_no_span_records(self):
        engine = DataParallelEngine(
            _model(), ObjectiveSpec(), num_workers=2, max_batch=64,
            registry=MetricsRegistry(),
        )
        try:
            stats = engine.train_step(*_batch())
        finally:
            engine.shutdown()
        assert np.isfinite(stats.loss)


@needs_parallel
class TestRespawnBookkeeping:
    def test_respawn_counts_and_flight_records(self):
        reset_default_flight_recorder()
        respawns = default_registry().counter("parallel.worker.respawns")
        before = respawns.value

        def _idle_worker(rank, num_workers, pipe, payload):
            while True:
                message = pipe.recv()
                if message[0] == "stop":
                    return
                if message[0] == "ping":
                    pipe.send(("pong", rank))

        with WorkerPool(2, _idle_worker, timeout=30.0) as pool:
            pool.kill(1)
            pool.respawn(1)
            pool.ping(1, timeout=30.0)
        assert respawns.value == before + 1
        events = [
            entry["data"]
            for entry in default_flight_recorder().snapshot()
            if entry["kind"] == "event"
        ]
        respawn_events = [e for e in events if e["name"] == "worker_respawn"]
        assert respawn_events and respawn_events[-1]["rank"] == 1
