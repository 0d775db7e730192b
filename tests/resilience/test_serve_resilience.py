"""Serving under bad input: non-finite grids are rejected, never cached."""

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig
from repro.core.selective import SelectiveNet
from repro.data.wafer import grid_to_tensor
from repro.obs.metrics import MetricsRegistry
from repro.serve import InvalidInput, ServeConfig, ServeEngine

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
    return rng.integers(0, 3, size=(16, SIZE, SIZE)).astype(np.uint8)


def assert_matches_model(results, model, grids):
    expected = model.predict_selective(
        np.stack([grid_to_tensor(g) for g in grids])
    )
    labels = np.array([r.label for r in results])
    np.testing.assert_array_equal(labels, expected.labels)


class TestInputRejection:
    def test_nan_and_inf_grids_rejected_and_never_cached(self, model):
        registry = MetricsRegistry()
        config = ServeConfig(max_batch_size=4)
        with ServeEngine(model, config, registry=registry) as engine:
            poisoned = np.zeros((SIZE, SIZE), dtype=np.float32)
            poisoned[3, 4] = np.nan
            with pytest.raises(InvalidInput, match="non-finite"):
                engine.submit(poisoned)
            poisoned[3, 4] = np.inf
            with pytest.raises(InvalidInput, match="non-finite"):
                engine.submit(poisoned)
            # Nothing reached the cache: resubmitting still rejects
            # (a cached entry would short-circuit before validation
            # only if the poisoned grid had been stored).
            assert len(engine.cache) == 0
            with pytest.raises(InvalidInput):
                engine.submit(poisoned)
            # The engine still serves clean grids afterwards.
            clean = np.zeros((SIZE, SIZE), dtype=np.uint8)
            result = engine.classify(clean, timeout=60.0)
            assert result.label is not None
        assert registry.counter("serve.rejected_total").value == 3
        assert registry.counter("serve.requests_total").value == 1

    def test_finite_integer_grids_unaffected(self, model, grids):
        registry = MetricsRegistry()
        config = ServeConfig(max_batch_size=8, cache_bytes=0)
        with ServeEngine(model, config, registry=registry) as engine:
            results = engine.classify_many(list(grids), timeout=60.0)
        assert_matches_model(results, model, grids)
        assert registry.counter("serve.rejected_total").value == 0
