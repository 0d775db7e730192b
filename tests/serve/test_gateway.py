"""End-to-end gateway wall: admission, typed sheds, bridging, tracing.

Covers the acceptance contract of the serving front door:

* in-process and TCP paths serve real model results through the same
  admission/shed/trace code;
* every backpressure trigger surfaces as ``Overloaded`` with a
  machine-readable ``reason`` (``queue_full`` / ``bucket_exhausted``)
  — and the cached path keeps serving instead of shedding;
* a backend failure reaches the wire as a typed error and the
  connection keeps serving;
* under seeded traffic at multiples of a tenant contract, a
  ``ManualClock`` gateway makes exactly the trace's replayed admission
  decisions: no shed within the contract, only ``bucket_exhausted``
  sheds beyond it;
* a gateway-originated trace is one tree: ``gateway.request`` →
  admission → engine spans.
"""

import asyncio
import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig
from repro.core.selective import SelectiveNet
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import arm_tracing, disarm_tracing, span_tree
from repro.serve import (
    SHED_BUCKET_EXHAUSTED,
    SHED_QUEUE_FULL,
    Overloaded,
    ServeConfig,
    ServeEngine,
)
from repro.serve.admission import ManualClock, TenantPolicy
from repro.serve.gateway import (
    Gateway,
    GatewayConfig,
    InProcessGatewayClient,
    TCPGatewayClient,
)
from repro.serve.loadgen import bursty_trace, poisson_trace, replay_admission

SIZE = 16
NUM_CLASSES = 4

#: Saturation contract: 200 wafers/s joint, split by traffic share, and
#: a burst credit of 0.1 s of each tenant's rate.
CONTRACT_QPS = 200.0
TENANT_SHARES = {"fab-a": 0.7, "fab-b": 0.3}
BURST_S = 0.1


@pytest.fixture(scope="module")
def model():
    return SelectiveNet(
        NUM_CLASSES,
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


class _GatedBackend:
    """Backend that blocks in ``infer`` until released (shed tests)."""

    num_classes = NUM_CLASSES

    def __init__(self):
        self.gate = threading.Event()

    def infer(self, lane, inputs):
        self.gate.wait(timeout=30.0)
        count = len(inputs)
        probabilities = np.full(
            (count, NUM_CLASSES), 1.0 / NUM_CLASSES, dtype=np.float32
        )
        return probabilities, np.ones(count, dtype=np.float32)

    def reclaim(self):
        pass

    def close(self):
        pass


def _engine(model, registry, **overrides):
    defaults = dict(max_batch_size=8, queue_limit=64, cache_bytes=0)
    defaults.update(overrides)
    return ServeEngine(model, ServeConfig(**defaults), registry=registry)


class TestOverloadedReason:
    """Satellite regression: the typed ``reason`` field itself."""

    def test_reason_survives_pickling(self):
        for reason in (SHED_QUEUE_FULL, SHED_BUCKET_EXHAUSTED):
            error = pickle.loads(pickle.dumps(Overloaded("shed", reason=reason)))
            assert error.reason == reason
            assert isinstance(error, RuntimeError)

    def test_default_reason_is_queue_full(self):
        assert Overloaded("shed").reason == SHED_QUEUE_FULL

    def test_unknown_reason_refused(self):
        with pytest.raises(ValueError):
            Overloaded("shed", reason="because")


class TestEndToEnd:
    def test_inprocess_strict_round_trip(self, model, grids):
        registry = MetricsRegistry()
        with _engine(model, registry) as engine:
            gateway = Gateway(engine, registry=registry)
            client = InProcessGatewayClient(gateway, strict=True)

            async def scenario():
                return await asyncio.gather(
                    *[client.request(g, tenant="fab-a") for g in grids]
                )

            responses = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        result = responses[0]["result"]
        assert set(result) == {
            "label", "raw_label", "accepted", "selection_score",
            "confidence", "cached", "latency_s",
        }
        # Gateway answers match the engine's own classification.
        direct = model.predict_batch(
            np.stack([g for g in grids]).astype(np.float32)[..., None]
        ) if hasattr(model, "predict_batch") else None
        stats = gateway.stats()
        assert stats["admitted"] == len(grids)
        assert stats["rejected"] == 0

    def test_tcp_pipelined_demux(self, model, grids):
        registry = MetricsRegistry()
        with _engine(model, registry) as engine:
            gateway = Gateway(engine, registry=registry)

            async def scenario():
                host, port = await gateway.start()
                client = await TCPGatewayClient.connect(host, port)
                try:
                    responses = await asyncio.gather(*[
                        client.request(g, req_id=f"id-{i}", timeout=30.0)
                        for i, g in enumerate(grids)
                    ])
                finally:
                    await client.close()
                    await gateway.stop()
                return responses

            responses = asyncio.run(scenario())
        assert [r["id"] for r in responses] == [f"id-{i}" for i in range(len(grids))]
        assert all(r["ok"] for r in responses)

    def test_tcp_and_inprocess_agree(self, model, grids):
        registry = MetricsRegistry()
        with _engine(model, registry) as engine:
            gateway = Gateway(engine, registry=registry)

            async def scenario():
                inproc = InProcessGatewayClient(gateway, strict=True)
                local = [await inproc.request(g) for g in grids[:4]]
                host, port = await gateway.start()
                client = await TCPGatewayClient.connect(host, port)
                try:
                    wire = [
                        await client.request(g, timeout=30.0)
                        for g in grids[:4]
                    ]
                finally:
                    await client.close()
                    await gateway.stop()
                return local, wire

            local, wire = asyncio.run(scenario())
        for a, b in zip(local, wire):
            assert a["result"]["label"] == b["result"]["label"]
            assert a["result"]["selection_score"] == pytest.approx(
                b["result"]["selection_score"], abs=1e-6
            )


class TestTypedSheds:
    def test_bucket_exhausted_is_deterministic_under_manual_clock(
        self, model, grids
    ):
        registry = MetricsRegistry()
        clock = ManualClock()
        config = GatewayConfig(
            per_tenant={"fab-a": TenantPolicy(refill_per_s=1.0, burst=2.0)},
        )
        with _engine(model, registry) as engine:
            gateway = Gateway(engine, config, registry=registry, clock=clock)
            client = InProcessGatewayClient(gateway)

            async def scenario():
                first = [await client.request(grids[0], tenant="fab-a")
                         for _ in range(4)]
                clock.advance(1.0)  # one token refills
                after = await client.request(grids[0], tenant="fab-a")
                return first, after

            first, after = asyncio.run(scenario())
        assert [r["ok"] for r in first] == [True, True, False, False]
        for shed in first[2:]:
            assert shed["error"]["type"] == "Overloaded"
            assert shed["error"]["reason"] == SHED_BUCKET_EXHAUSTED
        assert after["ok"] is True
        assert registry.counter(
            "gateway.rejected.bucket_exhausted"
        ).value == 2

    @pytest.mark.parametrize(
        "process, multiplier",
        [("poisson", 0.5), ("poisson", 2.0), ("poisson", 4.0), ("bursty", 2.0)],
        ids=["poisson_0.5x", "poisson_2x", "poisson_4x", "bursty_2x"],
    )
    def test_saturation_sheds_exactly_the_excess(
        self, model, grids, process, multiplier
    ):
        """1 s of seeded traffic at a multiple of the contract, each
        arrival admitted at its own ``ManualClock`` reading: the gateway
        makes exactly the decisions of the trace's admission replay,
        sheds nothing within the contract, sheds the excess beyond it as
        ``bucket_exhausted`` only, and lets no more reach the engine than
        the contract's tokens allow."""
        rate, duration_s = multiplier * CONTRACT_QPS, 1.0
        if process == "poisson":
            trace = poisson_trace(
                rate, duration_s, seed=7, tenants=TENANT_SHARES,
                grid_pool=len(grids),
            )
        else:
            # On for half of each period at twice the mean rate.
            trace = bursty_trace(
                2.0 * rate, duration_s, seed=7, tenants=TENANT_SHARES,
                grid_pool=len(grids),
            )
        policies = {
            tenant: TenantPolicy(
                refill_per_s=CONTRACT_QPS * share,
                burst=BURST_S * CONTRACT_QPS * share,
            )
            for tenant, share in TENANT_SHARES.items()
        }
        # In-flight and engine-queue bounds above the trace length: the
        # token buckets are the only thing that may shed.
        config = GatewayConfig(max_inflight=len(trace) + 1, per_tenant=policies)
        registry = MetricsRegistry()
        clock = ManualClock()
        with _engine(model, registry, queue_limit=len(trace) + 1) as engine:
            gateway = Gateway(engine, config, registry=registry, clock=clock)
            client = InProcessGatewayClient(gateway)

            async def scenario():
                pending = []
                for arrival in trace:
                    clock.set(arrival.t)
                    pending.append(asyncio.ensure_future(client.request(
                        grids[arrival.grid_id], tenant=arrival.tenant
                    )))
                    await asyncio.sleep(0)  # admitted at this clock reading
                return await asyncio.gather(*pending)

            responses = asyncio.run(scenario())

        decisions = bytes(1 if r["ok"] else 0 for r in responses)
        assert decisions == replay_admission(
            trace, config.default_policy(), policies
        )
        shed = [r["error"] for r in responses if not r["ok"]]
        assert all(
            error["type"] == "Overloaded"
            and error["reason"] == SHED_BUCKET_EXHAUSTED
            for error in shed
        )
        assert bool(shed) == (multiplier > 1.0)
        admitted = len(trace) - len(shed)
        assert registry.counter("serve.requests_total").value == admitted
        assert admitted <= CONTRACT_QPS * duration_s + sum(
            policy.burst for policy in policies.values()
        )

    def test_inflight_bound_sheds_queue_full(self, grids):
        registry = MetricsRegistry()
        backend = _GatedBackend()
        engine = ServeEngine(
            config=ServeConfig(
                max_batch_size=1, queue_limit=64,
                cache_bytes=0,
            ),
            registry=registry, backend=backend,
            input_hw=(SIZE, SIZE), num_classes=NUM_CLASSES,
        )
        try:
            gateway = Gateway(
                engine, GatewayConfig(max_inflight=1), registry=registry
            )
            client = InProcessGatewayClient(gateway)

            async def scenario():
                blocked = asyncio.ensure_future(client.request(grids[0]))
                await asyncio.sleep(0.1)  # first request now in flight
                shed = await client.request(grids[1])
                backend.gate.set()
                return await blocked, shed

            served, shed = asyncio.run(scenario())
        finally:
            backend.gate.set()
            engine.close()
        assert served["ok"] is True
        assert shed["ok"] is False
        assert shed["error"]["reason"] == SHED_QUEUE_FULL
        assert registry.counter("gateway.rejected.queue_full").value == 1

    def test_engine_queue_overflow_maps_to_queue_full(self, grids):
        registry = MetricsRegistry()
        backend = _GatedBackend()
        engine = ServeEngine(
            config=ServeConfig(
                max_batch_size=1, queue_limit=1,
                cache_bytes=0,
            ),
            registry=registry, backend=backend,
            input_hw=(SIZE, SIZE), num_classes=NUM_CLASSES,
        )
        try:
            gateway = Gateway(engine, registry=registry)
            client = InProcessGatewayClient(gateway)

            async def scenario():
                pending = [
                    asyncio.ensure_future(client.request(grids[i % 8]))
                    for i in range(6)
                ]
                await asyncio.sleep(0.2)
                backend.gate.set()
                return await asyncio.gather(*pending)

            responses = asyncio.run(scenario())
        finally:
            backend.gate.set()
            engine.close()
        shed = [r for r in responses if not r["ok"]]
        assert shed, "engine queue of 1 must shed some of 6 requests"
        assert all(r["error"]["reason"] == SHED_QUEUE_FULL for r in shed)

    def test_backend_failure_reaches_the_wire(self, grids):
        """A backend failure fails only its own batch: the client gets
        a typed ``RuntimeError`` response, and the next request on the
        same connection is served."""

        class FailOnceBackend(_GatedBackend):
            def __init__(self):
                super().__init__()
                self.gate.set()
                self.failed = False

            def infer(self, lane, inputs):
                if not self.failed:
                    self.failed = True
                    raise RuntimeError("backend gone")
                return super().infer(lane, inputs)

        registry = MetricsRegistry()
        engine = ServeEngine(
            config=ServeConfig(max_batch_size=1, cache_bytes=0),
            registry=registry, backend=FailOnceBackend(),
            input_hw=(SIZE, SIZE), num_classes=NUM_CLASSES,
        )
        try:
            gateway = Gateway(engine, registry=registry)

            async def scenario():
                host, port = await gateway.start()
                client = await TCPGatewayClient.connect(host, port)
                try:
                    failed = await client.request(grids[0], timeout=30.0)
                    served = await client.request(grids[1], timeout=30.0)
                finally:
                    await client.close()
                    await gateway.stop()
                return failed, served

            failed, served = asyncio.run(scenario())
        finally:
            engine.close()
        assert failed["ok"] is False
        assert failed["error"]["type"] == "RuntimeError"
        assert "backend gone" in failed["error"]["message"]
        assert served["ok"] is True
        assert registry.counter("serve.errors_total").value == 1

    def test_cached_path_serves_while_engine_is_wedged(self, grids):
        """Satellite regression: a cache hit completes even when the
        backend is blocked and the queue is saturated — the cached
        path bypasses the batcher, so pressure cannot shed it."""
        registry = MetricsRegistry()
        backend = _GatedBackend()
        engine = ServeEngine(
            config=ServeConfig(
                max_batch_size=1, queue_limit=2,
                cache_bytes=1 << 20,
            ),
            registry=registry, backend=backend,
            input_hw=(SIZE, SIZE), num_classes=NUM_CLASSES,
        )
        try:
            gateway = Gateway(engine, registry=registry)
            client = InProcessGatewayClient(gateway)

            async def scenario():
                backend.gate.set()
                warm = await client.request(grids[0])   # populate cache
                backend.gate.clear()                     # wedge the engine
                wedged = asyncio.ensure_future(client.request(grids[1]))
                await asyncio.sleep(0.05)
                cached = await client.request(grids[0])  # cache hit
                backend.gate.set()
                return warm, cached, await wedged

            warm, cached, wedged = asyncio.run(scenario())
        finally:
            backend.gate.set()
            engine.close()
        assert warm["ok"] and wedged["ok"]
        assert cached["ok"] is True
        assert cached["result"]["cached"] is True
        assert cached["result"]["label"] == warm["result"]["label"]

    def test_request_timeout_is_typed(self, grids):
        registry = MetricsRegistry()
        backend = _GatedBackend()
        engine = ServeEngine(
            config=ServeConfig(
                max_batch_size=1, queue_limit=8,
                cache_bytes=0,
            ),
            registry=registry, backend=backend,
            input_hw=(SIZE, SIZE), num_classes=NUM_CLASSES,
        )
        try:
            gateway = Gateway(
                engine, GatewayConfig(request_timeout_s=0.2), registry=registry
            )
            client = InProcessGatewayClient(gateway)
            response = asyncio.run(client.request(grids[0]))
        finally:
            backend.gate.set()
            engine.close()
        assert response["ok"] is False
        assert response["error"]["type"] == "Timeout"
        assert registry.counter("gateway.timeouts_total").value == 1


class TestGatewayTracing:
    def test_gateway_trace_covers_admission_and_engine(self, model, grids):
        tracer = arm_tracing(recorder=False)
        registry = MetricsRegistry()
        with _engine(model, registry) as engine:
            gateway = Gateway(engine, registry=registry)
            client = InProcessGatewayClient(gateway)
            asyncio.run(client.request(grids[0], tenant="fab-a"))
        trace_id = tracer.trace_ids()[0]
        spans = tracer.spans(trace_id)
        by_name = {record["name"]: record for record in spans}
        assert {
            "gateway.request", "gateway.admission", "serve.request",
            "serve.queue", "serve.batch", "serve.respond",
        } <= set(by_name)
        root = by_name["gateway.request"]
        assert root["parent_id"] is None
        assert root["attrs"]["tenant"] == "fab-a"
        assert by_name["gateway.admission"]["parent_id"] == root["span_id"]
        assert by_name["gateway.admission"]["attrs"]["decision"] == "admit"
        # The engine's whole span tree hangs off the gateway root.
        assert by_name["serve.request"]["parent_id"] == root["span_id"]
        roots = span_tree(spans)
        assert len(roots) == 1 and roots[0]["name"] == "gateway.request"

    def test_shed_request_trace_records_reason(self, model, grids):
        tracer = arm_tracing(recorder=False)
        registry = MetricsRegistry()
        clock = ManualClock()
        config = GatewayConfig(
            per_tenant={"t": TenantPolicy(refill_per_s=1.0, burst=1.0)},
        )
        with _engine(model, registry) as engine:
            gateway = Gateway(engine, config, registry=registry, clock=clock)
            client = InProcessGatewayClient(gateway)

            async def scenario():
                await client.request(grids[0], tenant="t")
                return await client.request(grids[1], tenant="t")

            shed = asyncio.run(scenario())
        assert shed["error"]["reason"] == SHED_BUCKET_EXHAUSTED
        shed_spans = [
            record for record in tracer.spans()
            if record["name"] == "gateway.admission"
            and record["attrs"]["decision"] == SHED_BUCKET_EXHAUSTED
        ]
        assert len(shed_spans) == 1


class TestOpsSurface:
    def test_top_renders_gateway_row(self, model, grids):
        from repro.obs.top import render

        registry = MetricsRegistry()
        clock = ManualClock()
        config = GatewayConfig(
            per_tenant={"t": TenantPolicy(refill_per_s=1.0, burst=2.0)},
        )
        with _engine(model, registry) as engine:
            gateway = Gateway(engine, config, registry=registry, clock=clock)
            client = InProcessGatewayClient(gateway)

            async def scenario():
                for grid in grids[:4]:
                    await client.request(grid, tenant="t")

            asyncio.run(scenario())
        frame = render(registry.snapshot())
        assert "gateway" in frame
        assert "bucket_exhausted=2" in frame

    def test_top_omits_gateway_row_without_traffic(self):
        from repro.obs.top import render

        registry = MetricsRegistry()
        registry.counter("serve.requests_total").inc(5)
        assert "gateway" not in render(registry.snapshot())

    def test_stats_shape(self, model, grids):
        registry = MetricsRegistry()
        with _engine(model, registry) as engine:
            gateway = Gateway(engine, registry=registry)
            client = InProcessGatewayClient(gateway)
            asyncio.run(client.request(grids[0]))
            stats = gateway.stats()
        assert stats["requests"] == 1 and stats["admitted"] == 1
        from repro.serve.batcher import SHED_REASONS
        assert set(stats["rejected_by_reason"]) == set(SHED_REASONS)
        assert stats["tenants"] == ["default"]
