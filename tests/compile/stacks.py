"""Layer stacks for the compile walls: a small grammar, a hypothesis
strategy over it, and the comparisons every wall shares.

A stack is ``(layers, sample_shape)``: a tuple of layer specs and the
per-sample input shape.  :func:`stacks` draws random valid stacks —
conv, ReLU/sigmoid, max pooling, upsampling and Table I's conv →
activation → max-pool stage, then optionally a flatten → dense head —
and :data:`NAMED` pins five hand-written stacks in the same grammar,
each with the batch of its regression run.

The contract the walls check, for every stack and float32/float64:

* compiled outputs equal the plain eager forward bit for bit, in values
  and memory layout (:func:`assert_same_array`);
* the tape forward equals the eager forward bit for bit
  (:func:`assert_tape_matches_eager`).
"""

import numpy as np
from hypothesis import strategies as st

from repro import nn
from repro.nn.compile import eager_only

DTYPES = [np.float32, np.float64]
DTYPE_IDS = ["float32", "float64"]

ACTIVATIONS = [("relu",), ("sigmoid",)]

#: name -> (layers, sample_shape, batch of the regression run).
NAMED = {
    "conv_relu_maxpool": (
        (("conv", 8, 5, 1, "same"), ("relu",), ("maxpool", 2, 2)), (1, 16, 16), 4,
    ),
    "conv_valid_sigmoid": ((("conv", 6, 3, 1, 0), ("sigmoid",)), (2, 12, 12), 3),
    # Pool stride != kernel: a standalone pool kernel, not folded into
    # the conv's GEMM-rows tiling.
    "conv_strided_pool": (
        (("conv", 4, 3, 1, "same"), ("relu",), ("maxpool", 3, 2)), (1, 11, 11), 2,
    ),
    "upsample_sigmoid": (
        (("conv", 3, 3, 1, "same"), ("upsample", 2), ("sigmoid",)), (1, 6, 6), 2,
    ),
    "dense_relu_head": (
        (("flatten",), ("dense", 16), ("relu",), ("dense", 4)), (2, 4, 4), 6,
    ),
}


def _layer(spec, shape, rng):
    """The module for ``spec`` on per-sample ``shape``, and its output shape."""
    kind = spec[0]
    if kind == "conv":
        _, out_channels, kernel, stride, padding = spec
        layer = nn.Conv2D(shape[0], out_channels, kernel, stride=stride,
                          padding=padding, rng=rng)
        return layer, (out_channels,) + layer.output_shape(shape[1:])
    if kind == "maxpool":
        _, kernel, stride = spec
        out_hw = tuple((size - kernel) // stride + 1 for size in shape[1:])
        return nn.MaxPool2D(kernel, stride), (shape[0],) + out_hw
    if kind == "upsample":
        return nn.UpSample2D(spec[1]), (shape[0],) + tuple(s * spec[1] for s in shape[1:])
    if kind == "flatten":
        return nn.Flatten(), (int(np.prod(shape)),)
    if kind == "dense":
        return nn.Dense(shape[0], spec[1], rng=rng), (spec[1],)
    return {"relu": nn.ReLU, "sigmoid": nn.Sigmoid}[kind](), shape


def build(layers, sample_shape, rng=None):
    """An eval-mode ``Sequential`` for ``layers`` in the current default
    dtype."""
    rng = np.random.default_rng(3) if rng is None else rng
    modules, shape = [], tuple(sample_shape)
    for spec in layers:
        module, shape = _layer(spec, shape, rng)
        modules.append(module)
    return nn.Sequential(*modules).eval()


def named_stack(name):
    """``(model, input_shape)`` of the named regression stack."""
    layers, sample_shape, batch = NAMED[name]
    return build(layers, sample_shape), (batch,) + sample_shape


def _conv_specs(shape):
    specs = []
    for kernel in range(1, 6):
        for stride in (1, 2):
            if kernel <= min(shape[1:]):
                specs.append((kernel, stride, 0))
        if kernel % 2:
            specs.append((kernel, 1, "same"))
    return specs


def _spatial_layer(draw, kind, shape):
    """One drawn layer spec of ``kind`` valid on ``shape``, or ``None``."""
    if kind == "conv":
        kernel, stride, padding = draw(st.sampled_from(_conv_specs(shape)))
        return ("conv", draw(st.integers(1, 6)), kernel, stride, padding)
    if kind == "act":
        return draw(st.sampled_from(ACTIVATIONS))
    if kind == "maxpool":
        kernel = draw(st.integers(2, 3))
        if kernel > min(shape[1:]):
            return None
        # Non-overlapping windows (stride == kernel) are what a conv
        # kernel can absorb, so draw them often.
        return (kind, kernel, draw(st.sampled_from([kernel, 1, 2, 3])))
    if kind == "tiling_pool":
        kernels = [k for k in (2, 3) if shape[1] % k == 0 and shape[2] % k == 0]
        if not kernels:
            return None
        kernel = draw(st.sampled_from(kernels))
        return ("maxpool", kernel, kernel)
    assert kind == "upsample", kind
    return ("upsample", 2) if max(shape[1:]) <= 8 else None


@st.composite
def stacks(draw, max_blocks=4):
    """A random valid ``(layers, sample_shape)`` stack."""
    layers = []
    if draw(st.integers(0, 3)):
        sizes = st.sampled_from([4, 6, 8, 12, 3, 5, 7, 9, 10, 11])
        sample_shape = (draw(st.integers(1, 3)), draw(sizes), draw(sizes))
        shape = sample_shape
        for _ in range(draw(st.integers(1, max_blocks))):
            kind = draw(st.sampled_from(
                ["stage", "stage", "stage", "act", "act", "conv", "maxpool", "upsample"]
            ))
            # A stage is Table I's conv -> activation -> tiling max-pool,
            # the pattern a conv kernel absorbs whole.
            kinds = ["conv", "act", "tiling_pool"] if kind == "stage" else [kind]
            for kind in kinds:
                spec = _spatial_layer(draw, kind, shape)
                if spec is not None:
                    layers.append(spec)
                    shape = _layer(spec, shape, np.random.default_rng(0))[1]
        if draw(st.integers(0, 2)):
            return tuple(layers), sample_shape
        layers.append(("flatten",))
    else:
        sample_shape = (draw(st.integers(1, 12)),)
    layers.append(("dense", draw(st.integers(1, 8))))
    middle = draw(st.sampled_from(ACTIVATIONS + [None]))
    if middle is not None:
        layers.append(middle)
    if draw(st.booleans()):
        layers.append(("dense", draw(st.integers(2, 5))))
    return tuple(layers), sample_shape


def eager_forward(model, x):
    """The plain eager forward: the tape's forward with recording off."""
    with eager_only(), nn.inference_mode():
        return model(nn.Tensor(x)).data


def tape_forward(model, x):
    """The forward as training records it."""
    return model(nn.Tensor(x, requires_grad=True)).data


def layout(array):
    """Strides of the axes longer than one: the array's memory layout.

    NumPy leaves the stride of a length-1 axis unspecified (a ufunc on a
    C-contiguous view may pick a different one than the view has), so
    those strides are not compared.
    """
    return tuple(s for s, n in zip(array.strides, array.shape) if n > 1)


def assert_same_array(got, want):
    """Equal dtype, shape, memory layout and bytes."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert layout(got) == layout(want), (got.strides, want.strides)
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros and NaN payloads too


def assert_tape_matches_eager(tape, eager):
    """The tape's forward and the eager forward agree byte for byte."""
    assert tape.dtype == eager.dtype
    assert tape.tobytes() == eager.tobytes()
