"""Wall for the narrowing-convolution route.

A convolution with fewer output than input channels (at stride 1, with
padding at most ``k - 1``) runs as the transposed convolution of its
flipped filters (:func:`repro.nn.functional.narrows`).  Here the routed
:func:`~repro.nn.functional.conv2d` must agree with the im2col
convolution kept in ``reference_kernels``: forward, input, weight and
bias gradients, over random geometry, float32 and float64, contiguous or
channels-last inputs, and every mix of operands requiring grad.  The
route reads layer geometry only, and ``conv_transpose2d`` runs the same
kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.autoencoder import ConvAutoencoder
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from . import reference_kernels as R

#: Agreement bound, as a multiple of the summed magnitudes of the terms.
TOLERANCE = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}


def _layout(array, channels_last):
    if channels_last:
        return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(array)


def _run(conv, x, weight, bias, grad, padding, needs):
    """Output and ``(x, weight, bias)`` gradients of one conv call;
    ``needs`` says which operands require grad."""
    tensors = [
        None if value is None else Tensor(value, requires_grad=need)
        for value, need in zip((x, weight, bias), needs)
    ]
    out = conv(*tensors, padding=padding)
    if out.requires_grad:
        out.backward(grad)
    return out.data, [None if t is None else t.grad for t in tensors]


@st.composite
def narrowing_convs(draw):
    c_in = draw(st.integers(2, 8))
    c_out = draw(st.integers(1, c_in - 1))
    kernel = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    padding = tuple(draw(st.integers(0, k - 1)) for k in kernel)
    # H and W in 1..10 with a non-empty output.
    hw = tuple(
        draw(st.integers(max(1, k - 2 * p), 10)) for k, p in zip(kernel, padding)
    )
    n = draw(st.integers(1, 3))
    return (n, c_in) + hw, (c_out, c_in) + kernel, padding


@settings(max_examples=300, deadline=None)
@given(
    geometry=narrowing_convs(),
    with_bias=st.booleans(),
    needs=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    channels_last=st.booleans(),
    grad_channels_last=st.booleans(),
    dtype=st.sampled_from((np.float32, np.float64)),
    seed=st.integers(0, 2**16),
)
def test_routed_conv_matches_im2col_reference(
    geometry, with_bias, needs, channels_last, grad_channels_last, dtype, seed
):
    x_shape, w_shape, padding = geometry
    assert F.narrows(x_shape[1], w_shape[0], w_shape[2:], 1, padding)
    rng = np.random.default_rng(seed)
    x = _layout(rng.normal(size=x_shape).astype(dtype), channels_last)
    weight = rng.normal(size=w_shape).astype(dtype)
    bias = rng.normal(size=w_shape[:1]).astype(dtype) if with_bias else None
    out_shape = (x_shape[0], w_shape[0]) + tuple(
        F.conv_output_size(size, k, 1, p)
        for size, k, p in zip(x_shape[2:], w_shape[2:], padding)
    )
    grad = _layout(rng.normal(size=out_shape).astype(dtype), grad_channels_last)

    with nn.default_dtype(dtype):
        got, got_grads = _run(F.conv2d, x, weight, bias, grad, padding, needs)
        want, want_grads = _run(R.conv2d, x, weight, bias, grad, padding, needs)
        # The same computation on magnitudes bounds each result's terms.
        absolute = [None if v is None else np.abs(v) for v in (x, weight, bias)]
        scale, scale_grads = _run(
            R.conv2d, *absolute, np.abs(grad), padding, (True, True, True)
        )

    tol = TOLERANCE[np.dtype(dtype)]
    assert got.dtype == want.dtype == dtype
    assert got.shape == want.shape == out_shape
    assert got.transpose(0, 2, 3, 1).flags.c_contiguous  # compact channels-last
    assert np.abs(got - want).max() <= tol * scale.max()
    for got_g, want_g, scale_g in zip(got_grads, want_grads, scale_grads):
        assert (got_g is None) == (want_g is None)
        if want_g is not None:
            assert got_g.shape == want_g.shape and got_g.dtype == dtype
            assert np.abs(got_g - want_g).max() <= tol * scale_g.max()


@pytest.mark.parametrize(
    "c_in,c_out,kernel,stride,padding,expected",
    [
        (4, 2, 3, 1, 1, True),
        (16, 1, 5, 1, 2, True),
        (4, 3, (5, 1), 1, (4, 0), True),
        (4, 4, 3, 1, 1, False),  # not narrower
        (2, 4, 3, 1, 1, False),  # widening
        (4, 2, 3, 2, 1, False),  # strided
        (4, 2, 3, 1, 3, False),  # padding past k - 1
        (4, 2, (5, 1), 1, (2, 1), False),
    ],
)
def test_narrows_reads_channels_stride_and_padding(
    c_in, c_out, kernel, stride, padding, expected
):
    assert F.narrows(c_in, c_out, kernel, stride, padding) is expected


def test_route_depends_on_geometry_not_batch(monkeypatch):
    """Batch 1 and 64 take the route, other layers never do, and
    ``conv_transpose2d`` runs the same kernel."""
    calls = []
    shared = F._transposed_conv

    def spy(x, *args, **kwargs):
        calls.append(x.shape[0])
        return shared(x, *args, **kwargs)

    monkeypatch.setattr(F, "_transposed_conv", spy)
    rng = np.random.default_rng(0)
    narrowing = Tensor(rng.normal(size=(2, 4, 3, 3)))
    for n in (1, 64):
        F.conv2d(Tensor(rng.normal(size=(n, 4, 8, 8))), narrowing, padding=1)
    assert calls == [1, 64]

    x = Tensor(rng.normal(size=(2, 4, 8, 8)))
    F.conv2d(x, Tensor(rng.normal(size=(4, 4, 3, 3))), padding=1)
    F.conv2d(x, Tensor(rng.normal(size=(8, 4, 3, 3))), padding=1)
    F.conv2d(x, narrowing, stride=2, padding=1)
    assert calls == [1, 64]

    F.conv_transpose2d(x, Tensor(rng.normal(size=(4, 2, 3, 3))), stride=2)
    assert calls == [1, 64, 2]


def _routed(model):
    return [
        (layer.in_channels, layer.out_channels)
        for layer in model.modules()
        if isinstance(layer, nn.Conv2D)
        and F.narrows(layer.in_channels, layer.out_channels, layer.kernel_size,
                      layer.stride, layer.padding)
    ]


def test_paper_models_route_their_narrowing_layers():
    assert _routed(ConvAutoencoder()) == [(16, 8), (16, 1)]
    assert _routed(WaferCNN(9, config=BackboneConfig())) == [(64, 32)]
