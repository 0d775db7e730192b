"""Fallback semantics: anything uncovered returns ``None``, never raises.

``try_run`` degrading to ``None`` — with the ``compile.fallbacks``
counter bumped — is the whole failure contract; calling the
``CompiledModule`` then runs the same function eagerly.  These tests
also pin the compile telemetry counters.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet
from repro.nn.compile import (
    CompiledModule,
    compile_module,
    eager_only,
    is_enabled,
    set_enabled,
)
from repro.obs.metrics import default_registry, reset_default_registry

from .stacks import DTYPE_IDS, DTYPES, assert_same_array


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_default_registry()
    yield
    reset_default_registry()


def counter(name):
    return default_registry().counter(name).value


def _simple_model(rng=None):
    rng = rng or np.random.default_rng(0)
    model = nn.Sequential(nn.Conv2D(1, 4, 3, padding="same", rng=rng), nn.ReLU())
    model.eval()
    return model


X = np.zeros((2, 1, 8, 8), dtype=np.float32)


class _Unknown(nn.Module):
    def forward(self, x):
        return x * 2.0


class _SubclassedReLU(nn.ReLU):
    def forward(self, x):
        return super().forward(x) + 1.0


def test_unknown_module_falls_back():
    model = _Unknown()
    model.eval()
    compiled = compile_module(model)
    before = counter("compile.fallbacks")
    assert compiled.try_run(X) is None
    assert counter("compile.fallbacks") == before + 1


def test_layer_subclass_falls_back():
    # Exact-type dispatch: a subclass with an overridden forward would
    # silently mistrace, so it must not compile at all.
    model = nn.Sequential(nn.Conv2D(1, 4, 3, padding="same"), _SubclassedReLU())
    model.eval()
    assert compile_module(model).try_run(X) is None


def test_training_mode_falls_back():
    model = _simple_model()
    model.train()
    compiled = compile_module(model)
    assert compiled.try_run(X) is None
    model.eval()
    assert compiled.try_run(X) is not None


def test_disabled_scope_falls_back():
    model = _simple_model()
    compiled = compile_module(model)
    assert is_enabled()
    with eager_only():
        assert not is_enabled()
        assert compiled.try_run(X) is None
    assert compiled.try_run(X) is not None
    assert set_enabled(True) is True  # eager_only restored the switch


def test_hooked_module_falls_back():
    model = _simple_model()
    handle = model.register_hook(lambda **kwargs: None)
    try:
        assert compile_module(model).try_run(X) is None
    finally:
        handle.remove()
    assert compile_module(model).try_run(X) is not None


def test_state_fallback_is_retried_once_the_state_changes():
    # Hooks and training mode are transient: the same CompiledModule
    # compiles once they are gone (a shape mismatch, by contrast, is
    # remembered — see the next test).
    model = _simple_model()
    compiled = compile_module(model)
    handle = model.register_hook(lambda **kwargs: None)
    assert compiled.try_run(X) is None
    handle.remove()
    assert compiled.try_run(X) is not None


def test_shape_mismatch_falls_back_and_is_cached():
    model = nn.Sequential(nn.Dense(16, 4, rng=np.random.default_rng(0)))
    model.eval()
    compiled = compile_module(model)
    bad = np.zeros((2, 8), dtype=np.float32)
    assert compiled.try_run(bad) is None
    misses = counter("compile.cache_misses")
    # Second attempt hits the negative cache: no recompile attempt.
    assert compiled.try_run(bad) is None
    assert counter("compile.cache_misses") == misses
    # The failure is keyed by shape: the good shape still compiles.
    good = np.zeros((2, 16), dtype=np.float32)
    assert compiled.try_run(good) is not None


def test_call_falls_back_to_eager_result():
    model = _Unknown()
    model.eval()
    compiled = compile_module(model)
    x = np.arange(4, dtype=np.float32).reshape(2, 2)
    (result,) = compiled(x)
    np.testing.assert_array_equal(result, x * 2.0)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("model_type", [WaferCNN, SelectiveNet], ids=lambda t: t.__name__)
def test_call_falls_back_to_the_graph_function(model_type, dtype):
    """A factory-built graph's fallback is its eager twin, not forward:
    WaferCNN gives probabilities and SelectiveNet (probabilities,
    pre-sigmoid scores) either way."""
    with nn.default_dtype(dtype):
        config = BackboneConfig(
            input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=3,
        )
        model = model_type(4, config=config)
        model.eval()
        x = np.random.default_rng(2).normal(size=(5, 1, 16, 16)).astype(dtype)
        compiled = compile_module(model)
        expected = compiled(x)
        with eager_only():
            fallback = compiled(x)
    assert len(fallback) == len(expected)
    for got, want in zip(fallback, expected):
        assert_same_array(got, want)


def test_compiled_module_refuses_pickling():
    import pickle

    compiled = compile_module(_simple_model())
    with pytest.raises(TypeError):
        pickle.dumps(compiled)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_compile_counters_and_arena_gauge():
    model = _simple_model()
    compiled = compile_module(model)
    registry = default_registry()

    assert compiled.try_run(X) is not None  # cold: compile + miss
    assert registry.counter("compile.graphs").value == 1
    assert registry.counter("compile.cache_misses").value == 1
    assert registry.counter("compile.kernels_fused").value > 0

    assert compiled.try_run(X) is not None  # warm: cache hit
    assert registry.counter("compile.cache_hits").value == 1
    assert registry.counter("compile.graphs").value == 1

    # Batch size is not part of the key: a smaller batch runs on the
    # same graph, a larger one grows its capacity (one more compile).
    assert compiled.try_run(X[:1]) is not None
    assert registry.counter("compile.graphs").value == 1
    assert compiled.try_run(np.zeros((3, 1, 8, 8), dtype=np.float32)) is not None
    assert registry.counter("compile.graphs").value == 2
    assert len(compiled.graphs) == 1

    # A second per-sample shape is its own cache entry.
    assert compiled.try_run(np.zeros((2, 1, 6, 6), dtype=np.float32)) is not None
    assert registry.counter("compile.graphs").value == 3
    assert len(compiled.graphs) == 2

    gauge = registry.gauge("compile.arena_bytes").value
    assert gauge > 0
    freed = compiled.release()
    assert freed > 0
    assert registry.gauge("compile.arena_bytes").value == gauge - freed


def test_per_dtype_cache_keys():
    model = _simple_model()
    compiled = compile_module(model)
    assert compiled.try_run(X) is not None
    with nn.default_dtype(np.float64):
        # Same geometry, different dtype: the float32 weights no longer
        # match the (coerced) float64 input, so this shape/dtype key
        # lands in the negative cache instead of mistracing.
        assert compiled.try_run(X.astype(np.float64)) is None
    assert compiled.try_run(X) is not None


def test_wafer_cnn_falls_back_cleanly_when_disabled():
    config = BackboneConfig(
        input_size=8, conv_channels=(2,), conv_kernels=(3,), fc_units=8, seed=1
    )
    model = WaferCNN(3, config=config)
    x = np.random.default_rng(2).normal(size=(4, 1, 8, 8)).astype(np.float32)
    with eager_only():
        eager = model.predict_proba(x, batch_size=2)
    compiled = model.predict_proba(x, batch_size=2)
    np.testing.assert_array_equal(compiled, eager)
