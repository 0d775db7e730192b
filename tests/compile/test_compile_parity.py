"""Bit-identity wall: compiled outputs == the plain eager forward.

The compiler's core contract is that opting in changes *nothing* about
the numbers: every kernel replays the numpy arithmetic of its eager
twin, so outputs must be bit-identical, in values and memory layout, in
both float32 and the float64 verification mode.  The eager forward is
itself the tape's forward with recording off, so the wall also pins
tape == eager.  Stacks are drawn at random from the grammar in
:mod:`.stacks`; the named stacks are fixed regression cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet
from repro.nn.compile import compile_module, compiled_for, eager_only

from .stacks import (
    DTYPE_IDS,
    DTYPES,
    NAMED,
    assert_same_array,
    assert_tape_matches_eager,
    build,
    eager_forward,
    named_stack,
    stacks,
    tape_forward,
)


def compiled_outputs(model, x):
    compiled = compile_module(model)
    outputs = compiled.try_run(x)
    assert outputs is not None, "stack was expected to compile"
    return outputs


def check_stack(model, x):
    expected = eager_forward(model, x)
    (got,) = compiled_outputs(model, x)
    assert_same_array(got, expected)
    assert_tape_matches_eager(tape_forward(model, x), expected)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("stack", sorted(NAMED), ids=sorted(NAMED))
def test_layer_stack_bit_identical(stack, dtype):
    with nn.default_dtype(dtype):
        model, shape = named_stack(stack)
        x = np.random.default_rng(4).normal(size=shape).astype(dtype)
        check_stack(model, x)


@settings(max_examples=1000, deadline=None)
@given(
    stack=stacks(),
    batch=st.integers(1, 8),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_random_stack_bit_identical(stack, batch, dtype, seed):
    layers, sample_shape = stack
    with nn.default_dtype(dtype):
        rng = np.random.default_rng(seed)
        model = build(layers, sample_shape, rng)
        x = rng.normal(size=(batch,) + sample_shape).astype(dtype)
        check_stack(model, x)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
def test_wafer_cnn_predict_proba_bit_identical(dtype):
    with nn.default_dtype(dtype):
        config = BackboneConfig(
            input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=7,
        )
        model = WaferCNN(4, config=config)
        model.eval()
        x = np.random.default_rng(0).normal(size=(6, 1, 16, 16)).astype(dtype)
        outputs = compiled_outputs(model, x)
        with eager_only():
            expected = model.predict_proba(x, batch_size=6)
        assert_same_array(outputs[0], expected)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
def test_selective_net_predict_batched_bit_identical(dtype):
    with nn.default_dtype(dtype):
        config = BackboneConfig(
            input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=11,
        )
        model = SelectiveNet(4, config=config)
        model.eval()
        x = np.random.default_rng(1).normal(size=(5, 1, 16, 16)).astype(dtype)
        outputs = compiled_outputs(model, x)
        with eager_only():
            probabilities, scores = model.predict_batched(x, batch_size=5)
        assert_same_array(outputs[0], probabilities)
        assert_same_array(outputs[1], scores)


# ----------------------------------------------------------------------
# Run semantics
# ----------------------------------------------------------------------
def test_repeated_runs_stay_identical():
    """Arena reuse across runs must not leak state between batches."""
    model, shape = named_stack("conv_relu_maxpool")
    rng = np.random.default_rng(5)
    a = rng.normal(size=shape).astype(np.float32)
    b = rng.normal(size=shape).astype(np.float32)
    compiled = compile_module(model)
    first_a = compiled.try_run(a)[0].copy()
    compiled.try_run(b)
    again_a = compiled.try_run(a)[0]
    np.testing.assert_array_equal(again_a, first_a)


def test_outputs_are_fresh_per_run():
    """Returned arrays escape to the caller; later runs must not alias them."""
    model, shape = named_stack("dense_relu_head")
    rng = np.random.default_rng(6)
    x = rng.normal(size=shape).astype(np.float32)
    compiled = compile_module(model)
    first = compiled.try_run(x)[0]
    kept = first.copy()
    first[...] = -1.0  # caller scribbles on its result
    second = compiled.try_run(x)[0]
    np.testing.assert_array_equal(second, kept)


def test_bindings_pick_up_parameter_updates():
    """Parameters are bound by reference: no stale weights after a step."""
    rng = np.random.default_rng(9)
    conv = nn.Conv2D(1, 4, 3, padding="same", rng=rng)
    model = nn.Sequential(conv, nn.ReLU())
    model.eval()
    x = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
    compiled = compile_module(model)
    before = compiled.try_run(x)[0].copy()
    with nn.no_grad():
        conv.weight.data += 0.25  # what an optimizer step would do
    after = compiled.try_run(x)[0]
    assert not np.array_equal(after, before)
    assert_same_array(after, eager_forward(model, x))


def test_release_then_rerun_rebuilds_identically():
    model, shape = named_stack("conv_relu_maxpool")
    x = np.random.default_rng(7).normal(size=shape).astype(np.float32)
    compiled = compile_module(model)
    first = compiled.try_run(x)[0].copy()
    assert compiled.release() >= 0
    np.testing.assert_array_equal(compiled.try_run(x)[0], first)


def test_compiled_for_is_cached_per_model():
    model, _ = named_stack("dense_relu_head")
    assert compiled_for(model) is compiled_for(model)
