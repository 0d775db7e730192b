"""End-to-end serve tracing and the engine's telemetry.

One served request yields a single trace covering enqueue → batch →
respond, every batch names its flush trigger, and the engine's registry
renders in the ops console.  The cross-process half of the obs layer —
shard spans recorded in worker processes and sent home to the parent's
tracer — is covered on the data-parallel training lane
(``tests/parallel/test_telemetry.py``).
"""

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig
from repro.core.selective import SelectiveNet
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import arm_tracing, disarm_tracing, span_tree
from repro.serve import ServeConfig, ServeEngine

SIZE = 16


@pytest.fixture(scope="module")
def model():
    return SelectiveNet(
        4,
        BackboneConfig(
            input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=11,
        ),
    )


@pytest.fixture(scope="module")
def grids():
    rng = np.random.default_rng(0)
    return rng.integers(0, 3, size=(8, SIZE, SIZE)).astype(np.uint8)


@pytest.fixture(autouse=True)
def _disarmed():
    disarm_tracing()
    yield
    disarm_tracing()


def _serve(model, grids, **config_kwargs):
    config = ServeConfig(**config_kwargs)
    with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
        engine.classify_many(list(grids), timeout=120.0)
    return engine


class TestTracedServe:
    def test_in_process_lane_traced_without_replicas(self, model, grids):
        tracer = arm_tracing(recorder=False)
        _serve(model, grids[:4], max_batch_size=4, cache_bytes=0)
        spans = tracer.spans(tracer.trace_ids()[0])
        by_name = {record["name"]: record for record in spans}
        # The full chain, in one trace, wired under the request root.
        assert {"serve.request", "serve.queue", "serve.batch",
                "serve.respond"} <= set(by_name)
        root = by_name["serve.request"]
        assert root["parent_id"] is None
        for name in ("serve.queue", "serve.batch", "serve.respond"):
            assert by_name[name]["parent_id"] == root["span_id"]
        roots = span_tree(spans)
        assert len(roots) == 1 and roots[0]["name"] == "serve.request"

    def test_batch_span_carries_flush_reason_and_size(self, model, grids):
        tracer = arm_tracing(recorder=False)
        _serve(model, grids[:4], max_batch_size=4, cache_bytes=0)
        batches = [
            record for record in tracer.spans()
            if record["name"] == "serve.batch"
        ]
        assert batches
        assert batches[0]["attrs"]["flush"] in ("size", "immediate", "close")
        assert batches[0]["attrs"]["size"] >= 1

    def test_cache_hit_short_circuits_trace(self, model, grids):
        tracer = arm_tracing(recorder=False)
        config = ServeConfig(max_batch_size=4)
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
            engine.classify(grids[0], timeout=60.0)
            tracer.clear()
            engine.classify(grids[0], timeout=60.0)  # cache hit
        hits = [
            record for record in tracer.spans()
            if record["name"] == "serve.request"
            and record["attrs"].get("cache") == "hit"
        ]
        assert len(hits) == 1

    def test_disarmed_serving_records_nothing(self, model, grids):
        engine = _serve(model, grids[:4], max_batch_size=4, cache_bytes=0)
        # No tracer armed: nothing to assert on spans; the engine must
        # simply have served every request with trace fields unset.
        assert engine._registry.counter("serve.requests_total").value == 4


class TestFlushCounters:
    def test_flush_reasons_counted(self, model, grids):
        registry = MetricsRegistry()
        config = ServeConfig(max_batch_size=4, cache_bytes=0)
        with ServeEngine(model, config, registry=registry) as engine:
            engine.classify_many(list(grids[:4]), timeout=60.0)  # size flush
            engine.classify(grids[4], timeout=60.0)  # immediate flush
        counts = registry.snapshot()["counters"]
        assert counts["serve.batch.flush.size"] >= 1
        assert counts["serve.batch.flush.immediate"] >= 1
        total_batches = counts["serve.batches_total"]
        flushed = sum(
            counts.get(f"serve.batch.flush.{reason}", 0)
            for reason in ("size", "immediate", "close")
        )
        assert flushed == total_batches


class TestFleetTelemetry:
    def test_telemetry_summary_renders_in_ops_console(self, model, grids):
        from repro.obs.top import render

        registry = MetricsRegistry()
        config = ServeConfig(max_batch_size=4)
        with ServeEngine(model, config, registry=registry) as engine:
            engine.classify_many(list(grids[:4]), timeout=60.0)
        frame = render(registry.snapshot())
        assert "qps" in frame
        assert "flushes" in frame
