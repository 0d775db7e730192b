"""Differential wall for the tape's memory-order kernels.

The recording max-pool and ``col2im`` keep their input's memory order
(a conv's output stays in the GEMM's ``(N*H*W, C)`` row order) instead
of copying to NCHW at every op.  The kernels in ``reference_kernels``
are the earlier NCHW implementations; here both must agree exactly:
max-pool outputs and input gradients, and ``col2im`` images, under
``np.array_equal``, over random geometry, tie-heavy values, float32
and float64, and C-contiguous or channels-last inputs.  A short
``Trainer`` run through each set of kernels must end on the same bits,
and so must one whose stages apply ReLU before the pool instead of
after it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import selective
from repro.core.cnn import BackboneConfig, build_backbone
from repro.core.selective import SelectiveNet
from repro.core.trainer import TrainConfig, Trainer
from repro.data.dataset import WaferDataset
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from . import reference_kernels as R

DTYPES = (np.float32, np.float64)
#: Tie-heavy pool inputs; -0.0 and 0.0 tie under argmax as well.
TIES = (-0.0, 0.0, 0.5, 1.0)
#: Pre-ReLU values, so ReLU zeros fill whole windows.
PRE_RELU = (-1.0, -0.5, 0.0, 0.5, 1.0)


def _layout(array, channels_last):
    """``array`` (NCHW) with channels-last memory order if asked."""
    if channels_last:
        return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(array)


def _in_order(array, channels_last):
    if channels_last:
        return array.transpose(0, 2, 3, 1).flags.c_contiguous
    return array.flags.c_contiguous


def _pool(pool_fn, values, relu_first, kernel, stride, grad, dtype):
    with nn.default_dtype(dtype):
        x = Tensor(values, requires_grad=True)
        inner = x.relu() if relu_first else x
        out = pool_fn(inner, kernel, stride)
        out.backward(grad)
    return out.data, x.grad


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    relu_first=st.booleans(),
    channels_last=st.booleans(),
    grad_channels_last=st.booleans(),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_max_pool_matches_reference(
    n, c, kernel, stride, extra, relu_first, channels_last, grad_channels_last,
    dtype, seed,
):
    rng = np.random.default_rng(seed)
    h, w = kernel[0] + extra[0], kernel[1] + extra[1]
    choices = PRE_RELU if relu_first else TIES
    values = _layout(rng.choice(choices, size=(n, c, h, w)).astype(dtype), channels_last)
    out_h = (h - kernel[0]) // stride[0] + 1
    out_w = (w - kernel[1]) // stride[1] + 1
    grad = _layout(rng.normal(size=(n, c, out_h, out_w)).astype(dtype), grad_channels_last)

    out, grad_x = _pool(F.max_pool2d, values, relu_first, kernel, stride, grad, dtype)
    ref_out, ref_grad_x = _pool(R.max_pool2d, values, relu_first, kernel, stride, grad, dtype)

    assert out.dtype == ref_out.dtype == dtype
    assert np.array_equal(out, ref_out)
    assert np.array_equal(grad_x, ref_grad_x)
    # Output and gradient keep the input's memory order.
    assert _in_order(out, channels_last)
    assert _in_order(grad_x, channels_last)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    into_buffer=st.booleans(),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_col2im_matches_reference(n, c, kernel, stride, extra, pad, into_buffer, dtype, seed):
    kh, kw = kernel
    ph, pw = min(pad[0], kh - 1), min(pad[1], kw - 1)
    h, w = kh + extra[0], kw + extra[1]
    out_h = F.conv_output_size(h, kh, stride[0], ph)
    out_w = F.conv_output_size(w, kw, stride[1], pw)
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(n * out_h * out_w, c * kh * kw)).astype(dtype)
    geometry = ((n, c, h, w), kernel, stride, (ph, pw))

    expected = R.col2im(cols, *geometry)
    out = None
    if into_buffer:  # stale contents must not leak into the result
        out = np.full((n, h, w, c), np.nan, dtype=dtype)
    got = F.col2im(cols, *geometry, out=out)

    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    # Compact and channels-last in memory.
    assert got.transpose(0, 2, 3, 1).flags.c_contiguous


def _three_class_maps(count, size, seed):
    rng = np.random.default_rng(seed)
    grids = rng.integers(0, 3, size=(count, size, size)).astype(np.uint8)
    labels = np.arange(count) % 3
    return WaferDataset(grids, labels, ("A", "B", "C"))


def _train(dtype):
    # 4 -> 6 gathers its input gradient; 6 -> 4 narrows, so its forward
    # runs col2im.
    config = BackboneConfig(
        input_size=16, conv_channels=(4, 6, 4), conv_kernels=(3, 3, 3), fc_units=8,
        seed=2,
    )
    with nn.default_dtype(dtype):
        model = SelectiveNet(num_classes=3, config=config)
        trainer = Trainer(
            model, TrainConfig(epochs=3, batch_size=8, target_coverage=0.5, seed=4)
        )
        trainer.fit(_three_class_maps(32, 16, seed=9))
    return [p.data.copy() for p in model.parameters()]


@pytest.mark.parametrize("dtype", DTYPES)
def test_training_trajectory_matches_reference_kernels(dtype, monkeypatch):
    """Twelve Trainer steps end on the same parameter bits either way."""
    production = _train(dtype)

    calls = {"max_pool2d": 0, "col2im": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(F, "max_pool2d", counted("max_pool2d", R.max_pool2d))
    monkeypatch.setattr(F, "col2im", counted("col2im", R.col2im))
    reference = _train(dtype)

    assert calls["max_pool2d"] > 0 and calls["col2im"] > 0
    assert len(production) == len(reference)
    for got, want in zip(production, reference):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def _relu_first(backbone):
    """``backbone`` with each stage's ReLU moved back before its pool."""
    layers = list(backbone)
    for index in range(len(layers) - 1):
        if isinstance(layers[index], nn.MaxPool2D) and isinstance(layers[index + 1], nn.ReLU):
            layers[index], layers[index + 1] = layers[index + 1], layers[index]
    return nn.Sequential(*layers)


@pytest.mark.parametrize("dtype", DTYPES)
def test_stage_order_keeps_the_training_bytes(dtype, monkeypatch):
    """Pool → ReLU stages end a fit on the bits ReLU → pool ones do."""
    pooled_first = _train(dtype)

    built = []

    def relu_first(config):
        backbone = _relu_first(build_backbone(config))
        built.append([type(layer).__name__ for layer in backbone][:3])
        return backbone

    monkeypatch.setattr(selective, "build_backbone", relu_first)
    rectified_first = _train(dtype)

    assert built == [["Conv2D", "ReLU", "MaxPool2D"]]
    assert len(pooled_first) == len(rectified_first)
    for got, want in zip(pooled_first, rectified_first):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
