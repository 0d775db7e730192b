"""Generated walls for the conv column contract and the stage order.

:func:`repro.nn.functional.im2col` writes tap-major ``(kh, kw, c)``
columns from channels-last memory, and at stride 1 a conv's input
gradient is the mirrored convolution of its output gradient (an im2col
gather), where ``reference_kernels`` keeps channel-major columns and the
scatter path (GEMM, then ``col2im``).  Every stage pools before its
ReLU, which commutes with the window max.  Here, over random geometry,
float32 and float64, and contiguous or channels-last inputs:

* ``im2col`` equals the reference columns after the column
  permutation, exactly;
* a conv's output and gradients equal the reference within a bound
  fixed by the dtype;
* ``relu(max_pool2d(x))`` equals ``max_pool2d(relu(x))``, with the
  production and with the reference pool, in values and input gradient
  on tie-heavy windows holding -0.0, 0.0 and NaN.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from . import reference_kernels as R

DTYPES = (np.float32, np.float64)
#: Agreement bound, as a multiple of the summed magnitudes of the terms.
TOLERANCE = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}
#: Pool inputs: ties, both zeros, negatives (ReLU zeros whole windows)
#: and NaN.
POOL_VALUES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.nan)


def _layout(array, channels_last):
    """``array`` (NCHW) with channels-last memory order if asked."""
    if channels_last:
        return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(array)


@st.composite
def convs(draw):
    """``(x_shape, w_shape, stride, padding)`` with a non-empty output."""
    n = draw(st.integers(1, 3))
    c_in = draw(st.integers(1, 5))
    c_out = draw(st.integers(1, 5))
    kernel = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    padding = tuple(draw(st.integers(0, k - 1)) for k in kernel)
    hw = tuple(draw(st.integers(max(1, k - 2 * p), 10)) for k, p in zip(kernel, padding))
    return (n, c_in) + hw, (c_out, c_in) + kernel, stride, padding


@settings(max_examples=200, deadline=None)
@given(
    geometry=convs(),
    channels_last=st.booleans(),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_im2col_is_the_reference_in_tap_major_order(geometry, channels_last, dtype, seed):
    x_shape, (_, c, kh, kw), stride, padding = geometry
    x = _layout(np.random.default_rng(seed).normal(size=x_shape).astype(dtype), channels_last)

    cols = F.im2col(x, (kh, kw), stride, padding)
    reference = R.im2col(x, (kh, kw), stride, padding)  # (rows, c*kh*kw)
    rows = len(reference)
    tap_major = reference.reshape(rows, c, kh, kw).transpose(0, 2, 3, 1).reshape(rows, -1)

    assert cols.dtype == dtype
    assert np.array_equal(cols, tap_major)


def _run(conv, x, weight, bias, grad, stride, padding):
    """Output and ``(x, weight, bias)`` gradients of one recording call."""
    tensors = [
        None if value is None else Tensor(value, requires_grad=True)
        for value in (x, weight, bias)
    ]
    out = conv(*tensors, stride=stride, padding=padding)
    out.backward(grad)
    return out.data, [None if t is None else t.grad for t in tensors]


@settings(max_examples=200, deadline=None)
@given(
    geometry=convs(),
    with_bias=st.booleans(),
    channels_last=st.booleans(),
    grad_channels_last=st.booleans(),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_conv_gradients_match_the_scatter_reference(
    geometry, with_bias, channels_last, grad_channels_last, dtype, seed
):
    """Gathered input gradients (stride 1), scattered ones (stride 2)
    and the narrowing route all agree with the reference scatter path."""
    x_shape, w_shape, stride, padding = geometry
    rng = np.random.default_rng(seed)
    x = _layout(rng.normal(size=x_shape).astype(dtype), channels_last)
    weight = rng.normal(size=w_shape).astype(dtype)
    bias = rng.normal(size=w_shape[:1]).astype(dtype) if with_bias else None
    out_shape = (x_shape[0], w_shape[0]) + tuple(
        F.conv_output_size(size, k, s, p)
        for size, k, s, p in zip(x_shape[2:], w_shape[2:], stride, padding)
    )
    grad = _layout(rng.normal(size=out_shape).astype(dtype), grad_channels_last)

    with nn.default_dtype(dtype):
        got, got_grads = _run(F.conv2d, x, weight, bias, grad, stride, padding)
        want, want_grads = _run(R.conv2d, x, weight, bias, grad, stride, padding)
        # The same computation on magnitudes bounds each result's terms.
        absolute = [None if v is None else np.abs(v) for v in (x, weight, bias)]
        scale, scale_grads = _run(R.conv2d, *absolute, np.abs(grad), stride, padding)

    tol = TOLERANCE[np.dtype(dtype)]
    assert got.dtype == want.dtype == dtype
    assert got.shape == want.shape == out_shape
    assert np.abs(got - want).max() <= tol * scale.max()
    for got_g, want_g, scale_g in zip(got_grads, want_grads, scale_grads):
        assert (got_g is None) == (want_g is None)
        if want_g is not None:
            assert got_g.shape == want_g.shape and got_g.dtype == dtype
            assert np.abs(got_g - want_g).max() <= tol * scale_g.max()


def _stage(pool, values, grad, pool_first, kernel, stride, dtype):
    with nn.default_dtype(dtype):
        x = Tensor(values, requires_grad=True)
        if pool_first:
            out = pool(x, kernel, stride).relu()
        else:
            out = pool(x.relu(), kernel, stride)
        out.backward(grad)
    return out.data, x.grad


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    channels_last=st.booleans(),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_relu_commutes_with_max_pool(n, c, kernel, stride, extra, channels_last, dtype, seed):
    rng = np.random.default_rng(seed)
    h, w = kernel[0] + extra[0], kernel[1] + extra[1]
    values = _layout(rng.choice(POOL_VALUES, size=(n, c, h, w)).astype(dtype), channels_last)
    out_h = (h - kernel[0]) // stride[0] + 1
    out_w = (w - kernel[1]) // stride[1] + 1
    grad = rng.normal(size=(n, c, out_h, out_w)).astype(dtype)

    pooled, pooled_grad = _stage(F.max_pool2d, values, grad, True, kernel, stride, dtype)
    rectified, rectified_grad = _stage(F.max_pool2d, values, grad, False, kernel, stride, dtype)
    # The reference pool, in the order the stages used to run.
    reference, reference_grad = _stage(R.max_pool2d, values, grad, False, kernel, stride, dtype)

    assert pooled.dtype == rectified.dtype == reference.dtype == dtype
    assert np.array_equal(pooled, rectified, equal_nan=True)
    assert np.array_equal(pooled, reference, equal_nan=True)
    assert np.array_equal(pooled_grad, rectified_grad)
    assert np.array_equal(pooled_grad, reference_grad)
