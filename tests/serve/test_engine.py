"""End-to-end tests for :class:`repro.serve.ServeEngine`.

The determinism suite is the contract the whole serving stack hangs on:
for every delivery path — batched and cached — the
served accept/reject decision and label must be *identical* to a direct
``predict_selective`` call, and probabilities must agree to float32
rounding (GEMM blocking differs with batch shape, so bitwise equality
is not attainable; see ``repro.serve.smoke.ATOL``).
"""

import threading
import time

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import ABSTAIN, SelectiveNet
from repro.data.wafer import grid_to_tensor
from repro.obs.metrics import MetricsRegistry
from repro.serve import Overloaded, ServeConfig, ServeEngine
from repro.serve.smoke import ATOL

SIZE = 16
NUM_CLASSES = 4


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
    return rng.integers(0, 3, size=(24, SIZE, SIZE)).astype(np.uint8)


@pytest.fixture(scope="module")
def reference(model, grids):
    tensors = np.stack([grid_to_tensor(g) for g in grids])
    return model.predict_selective(tensors)


def assert_matches_reference(results, reference):
    """Decisions and labels exact; probabilities to float32 rounding."""
    labels = np.array([r.label for r in results])
    accepted = np.array([r.accepted for r in results])
    np.testing.assert_array_equal(labels, reference.labels)
    np.testing.assert_array_equal(accepted, reference.accepted)
    probs = np.stack([r.probabilities for r in results])
    assert np.allclose(probs, reference.probabilities, atol=ATOL)


class _StubBackend:
    """Injectable backend: records calls, optionally blocks or raises."""

    def __init__(self, num_classes=NUM_CLASSES):
        self.num_classes = num_classes
        self.infer_calls = 0
        self.batch_sizes = []
        self.reclaims = 0
        self.closed = False
        self.gate = None  # set to an Event to block infer until set
        self.error = None  # set to an exception to raise once

    def infer(self, lane, inputs):
        self.infer_calls += 1
        self.batch_sizes.append(len(inputs))
        if self.gate is not None:
            self.gate.wait(timeout=30.0)
        if self.error is not None:
            error, self.error = self.error, None
            raise error
        count = len(inputs)
        probabilities = np.full((count, self.num_classes), 1.0 / self.num_classes,
                                dtype=np.float32)
        scores = np.ones(count, dtype=np.float32)
        return probabilities, scores

    def reclaim(self):
        self.reclaims += 1

    def close(self):
        self.closed = True


class TestDeterminism:
    def test_batched_path_matches_predict_selective(self, model, grids, reference):
        config = ServeConfig(max_batch_size=7)
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
            results = engine.classify_many(list(grids), timeout=60.0)
        assert_matches_reference(results, reference)
        assert all(not r.cached for r in results)

    def test_cached_path_matches_predict_selective(self, model, grids, reference):
        config = ServeConfig(max_batch_size=8)
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
            engine.classify_many(list(grids), timeout=60.0)  # warm the cache
            results = engine.classify_many(list(grids), timeout=60.0)
            assert engine.cache.hits == len(grids)
        assert all(r.cached for r in results)
        assert_matches_reference(results, reference)

    def test_single_request_matches_predict_selective(self, model, grids, reference):
        config = ServeConfig(max_batch_size=4, cache_bytes=0)
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
            result = engine.classify(grids[0], timeout=60.0)
        assert result.label == reference.labels[0]
        assert result.accepted == reference.accepted[0]
        assert result.latency_s > 0.0


class TestCompiledDeterminism:
    """Served decisions must not depend on the compiled fast path.

    ``predict_batched`` transparently compiles the served forward, so the
    whole-engine results must equal an explicitly *eager* reference —
    accept/reject and labels exactly, not merely within tolerance.
    """

    @pytest.fixture(scope="class")
    def eager_reference(self, model, grids):
        from repro.nn.compile import eager_only

        tensors = np.stack([grid_to_tensor(g) for g in grids])
        with eager_only():
            return model.predict_selective(tensors)

    def test_compiled_engine_matches_eager_reference(
        self, model, grids, eager_reference
    ):
        config = ServeConfig(max_batch_size=6, cache_bytes=0)
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
            results = engine.classify_many(list(grids), timeout=60.0)
        assert_matches_reference(results, eager_reference)

    def test_reclaim_releases_compiled_arenas_and_stays_exact(
        self, model, grids, eager_reference
    ):
        from repro.nn.compile import compiled_for

        config = ServeConfig(max_batch_size=6, cache_bytes=0)
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
            engine.classify_many(list(grids), timeout=60.0)
            engine._backend.reclaim()
            compiled = compiled_for(model)
            assert all(
                graph._arena is None for graph in compiled.graphs.values()
            )
            results = engine.classify_many(list(grids), timeout=60.0)
        assert_matches_reference(results, eager_reference)


class TestFullCoverageModel:
    def test_wafer_cnn_accepts_everything(self, grids):
        model = WaferCNN(
            NUM_CLASSES,
            BackboneConfig(
                input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
                fc_units=16, seed=5,
            ),
        )
        tensors = np.stack([grid_to_tensor(g) for g in grids[:8]])
        direct = model.predict_proba(tensors)
        config = ServeConfig(max_batch_size=4)
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
            results = engine.classify_many(list(grids[:8]), timeout=60.0)
        assert all(r.accepted for r in results)
        assert all(r.label != ABSTAIN for r in results)
        labels = np.array([r.label for r in results])
        np.testing.assert_array_equal(labels, np.argmax(direct, axis=1))


class TestThresholdOverride:
    def test_infinite_threshold_abstains_on_everything(self, model, grids):
        config = ServeConfig(
            max_batch_size=8, threshold=float("inf"),
            cache_bytes=0,
        )
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
            results = engine.classify_many(list(grids[:8]), timeout=60.0)
        assert all(r.label == ABSTAIN and not r.accepted for r in results)
        assert all(r.raw_label != ABSTAIN for r in results)


class TestBackpressure:
    def test_overloaded_shed_is_counted(self):
        backend = _StubBackend()
        backend.gate = threading.Event()  # wedge the runner mid-infer
        registry = MetricsRegistry()
        config = ServeConfig(
            max_batch_size=1, queue_limit=4, cache_bytes=0
        )
        engine = ServeEngine(
            config=config, registry=registry, backend=backend,
            input_hw=(SIZE, SIZE), num_classes=NUM_CLASSES,
        )
        try:
            grid = np.zeros((SIZE, SIZE), dtype=np.uint8)
            futures = []
            with pytest.raises(Overloaded):
                for _ in range(32):  # 1 in flight + 4 queued, then shed
                    futures.append(engine.submit(grid))
            assert registry.counter("serve.shed_total").value >= 1
            backend.gate.set()
            for future in futures:
                future.result(timeout=30.0)
        finally:
            backend.gate.set()
            engine.close()
        assert backend.closed

    def test_backend_error_fails_batch_but_lane_survives(self):
        backend = _StubBackend()
        backend.error = RuntimeError("backend died")
        registry = MetricsRegistry()
        config = ServeConfig(max_batch_size=4, cache_bytes=0)
        engine = ServeEngine(
            config=config, registry=registry, backend=backend,
            input_hw=(SIZE, SIZE), num_classes=NUM_CLASSES,
        )
        try:
            grid = np.zeros((SIZE, SIZE), dtype=np.uint8)
            future = engine.submit(grid)
            with pytest.raises(RuntimeError, match="backend died"):
                future.result(timeout=30.0)
            assert registry.counter("serve.errors_total").value == 1
            # The runner is still serving after the failure.
            result = engine.classify(grid, timeout=30.0)
            assert result.accepted
        finally:
            engine.close()

    def test_backend_error_ends_traced_spans_with_error(self):
        from repro.obs.trace import arm_tracing, disarm_tracing

        backend = _StubBackend()
        backend.error = RuntimeError("backend died")
        tracer = arm_tracing(recorder=False)
        try:
            engine = _stub_engine(backend, MetricsRegistry(), max_batch_size=4)
            try:
                grid = np.zeros((SIZE, SIZE), dtype=np.uint8)
                with pytest.raises(RuntimeError, match="backend died"):
                    engine.submit(grid).result(timeout=30.0)
            finally:
                engine.close()
        finally:
            disarm_tracing()
        spans = {record["name"]: record for record in tracer.spans()}
        assert spans["serve.queue"]["status"] == "ok"
        for name in ("serve.request", "serve.batch"):
            assert spans[name]["status"] == "error", name
            assert [(e["name"], e["data"]) for e in spans[name]["events"]] == [
                ("error", {"type": "RuntimeError"})
            ]
        assert spans["serve.batch"]["parent_id"] == spans["serve.request"]["span_id"]


def _stub_engine(backend, registry, **config):
    return ServeEngine(
        config=ServeConfig(cache_bytes=0, **config), registry=registry,
        backend=backend, input_hw=(SIZE, SIZE), num_classes=NUM_CLASSES,
    )


class TestWorkConservingDispatch:
    def test_group_call_on_idle_engine_is_one_batch(self, grids):
        backend = _StubBackend()
        engine = _stub_engine(backend, MetricsRegistry(), max_batch_size=8)
        try:
            for k in (1, 5, 8, 3):
                results = engine.classify_many(list(grids[:k]), timeout=30.0)
                assert len(results) == k
        finally:
            engine.close()
        assert backend.batch_sizes == [1, 5, 8, 3]

    def test_over_limit_group_enqueues_nothing(self, grids):
        backend = _StubBackend()
        registry = MetricsRegistry()
        engine = _stub_engine(backend, registry, max_batch_size=8, queue_limit=4)
        try:
            with pytest.raises(Overloaded):
                engine.classify_many(list(grids[:5]), timeout=30.0)
            assert engine.stats()["queue_depth"] == 0
            assert registry.counter("serve.shed_total").value == 5
            # The queue is untouched: a fitting group still serves whole.
            assert len(engine.classify_many(list(grids[:4]), timeout=30.0)) == 4
        finally:
            engine.close()
        assert backend.batch_sizes == [4]

    def test_lone_request_flushes_immediately(self, grids):
        registry = MetricsRegistry()
        engine = _stub_engine(_StubBackend(), registry, max_batch_size=8)
        try:
            engine.classify(grids[0], timeout=30.0)
        finally:
            engine.close()  # joins the runner: its counters are final
        counts = registry.snapshot()["counters"]
        assert counts["serve.batch.flush.immediate"] == 1
        assert counts["serve.batch.flush.size"] == 0


def _compile_counter(name):
    from repro.obs.metrics import default_registry

    return default_registry().counter(name).value


class TestCompileBeforeServe:
    @staticmethod
    def _model(seed):
        return SelectiveNet(
            NUM_CLASSES,
            BackboneConfig(
                input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
                fc_units=16, seed=seed,
            ),
        )

    def test_every_batch_size_served_on_one_compile(self, grids):
        from repro.nn.compile import compiled_for

        model = self._model(21)
        misses = _compile_counter("compile.cache_misses")
        graphs = _compile_counter("compile.graphs")
        registry = MetricsRegistry()
        config = ServeConfig(max_batch_size=8, cache_bytes=0)
        with ServeEngine(model, config, registry=registry) as engine:
            # Compiled at construction, before any request.
            assert _compile_counter("compile.cache_misses") == misses + 1
            for k in range(1, 9):
                engine.classify_many(list(grids[:k]), timeout=60.0)
        sizes = registry.histogram("serve.batch.size")
        assert (sizes.count, sizes.sum) == (8, sum(range(1, 9)))
        assert _compile_counter("compile.cache_misses") == misses + 1
        assert _compile_counter("compile.graphs") == graphs + 1
        (graph,) = compiled_for(model).graphs.values()
        assert graph.capacity == 8

    def test_first_request_after_swap_compiles_nothing(self, tmp_path, grids):
        from repro.resilience.chaos import ChaosPlan, active_plan, raise_error
        from repro.resilience.checkpoint import CheckpointManager
        from repro.serve.engine import SwapFailed

        manager = CheckpointManager(str(tmp_path), keep=0, registry=MetricsRegistry())
        checkpoint = str(manager.save(epoch=0, model=self._model(23)))
        config = ServeConfig(max_batch_size=8, cache_bytes=0)
        with ServeEngine(self._model(22), config, registry=MetricsRegistry()) as engine:
            engine.classify(grids[0], timeout=60.0)
            # The candidate compiles before the commit point: a swap
            # that fails at the commit has already compiled it.
            plan = ChaosPlan()
            plan.inject("serve.swap.commit", raise_error(RuntimeError("chaos")))
            misses = _compile_counter("compile.cache_misses")
            with active_plan(plan), pytest.raises(SwapFailed):
                engine.swap_model(checkpoint)
            assert _compile_counter("compile.cache_misses") == misses + 1

            engine.swap_model(checkpoint)
            swapped = _compile_counter("compile.cache_misses")
            assert swapped == misses + 2
            result = engine.classify(grids[0], timeout=60.0)
            engine.classify_many(list(grids[:8]), timeout=60.0)
        assert result.generation == 2
        assert _compile_counter("compile.cache_misses") == swapped


class TestValidationAndLifecycle:
    def test_rejects_wrong_rank_and_shape(self, model):
        config = ServeConfig(cache_bytes=0)
        with ServeEngine(model, config, registry=MetricsRegistry()) as engine:
            with pytest.raises(ValueError, match="2-D"):
                engine.submit(np.zeros((2, SIZE, SIZE), dtype=np.uint8))
            with pytest.raises(ValueError, match="does not match"):
                engine.submit(np.zeros((SIZE + 1, SIZE), dtype=np.uint8))

    def test_submit_after_close_raises(self, model):
        engine = ServeEngine(model, ServeConfig(), registry=MetricsRegistry())
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(np.zeros((SIZE, SIZE), dtype=np.uint8))
        engine.close()  # idempotent

    def test_requires_model_or_backend(self):
        with pytest.raises(ValueError, match="model or a backend"):
            ServeEngine(config=ServeConfig(), registry=MetricsRegistry())


class TestTelemetry:
    def test_counters_histograms_and_gauges_flow(self, model, grids):
        registry = MetricsRegistry()
        config = ServeConfig(max_batch_size=8)
        with ServeEngine(model, config, registry=registry) as engine:
            engine.classify_many(list(grids), timeout=60.0)
            engine.classify_many(list(grids[:4]), timeout=60.0)  # cache hits
        batches = registry.counter("serve.batches_total").value
        assert registry.counter("serve.requests_total").value == len(grids) + 4
        assert batches >= 1
        assert registry.counter("serve.cache.hits").value == 4
        assert registry.histogram("serve.latency_s").count == len(grids) + 4
        assert registry.histogram("serve.batch.size").count >= 1
        # Every batch is timed whole and through its forward.
        assert registry.histogram("serve.batch.total_s").count == batches
        assert registry.histogram("serve.batch.compute_s").count == batches
        assert registry.gauge("serve.cache.nbytes").value > 0
        assert registry.gauge("nn.index_cache_nbytes").value >= 0

    def test_idle_reclaim_frees_scratch_once(self):
        backend = _StubBackend()
        registry = MetricsRegistry()
        config = ServeConfig(
            max_batch_size=4, cache_bytes=0,
            idle_reclaim_s=0.05,
        )
        engine = ServeEngine(
            config=config, registry=registry, backend=backend,
            input_hw=(SIZE, SIZE), num_classes=NUM_CLASSES,
        )
        try:
            grid = np.zeros((SIZE, SIZE), dtype=np.uint8)
            engine.classify(grid, timeout=30.0)
            deadline = time.monotonic() + 5.0
            while backend.reclaims == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert backend.reclaims == 1
            # Stays at one reclaim while idle continues.
            time.sleep(0.2)
            assert backend.reclaims == 1
        finally:
            engine.close()
