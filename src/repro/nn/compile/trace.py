"""Structural tracing: lower a module tree into a :class:`~.ir.Graph`.

Tracing walks the module structure (not a recorded execution), emitting
one or more :class:`~.ir.LazyOp` nodes per layer.  Dispatch is by
*exact* type through a registry — a subclass with an overridden
``forward`` would silently mistrace under ``isinstance`` dispatch, so
unknown types (including subclasses of known ones) raise
:class:`~.ir.UnsupportedOpError` and the caller falls back to eager.

New layer types plug in with :func:`register_tracer`; model classes
outside :mod:`repro.nn` (e.g. :class:`repro.core.cnn.WaferCNN`)
register their own tracers at import time.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple, Type

import numpy as np

from ..layers.activations import ReLU, Sigmoid
from ..layers.base import Module
from ..layers.container import Sequential
from ..layers.conv import Conv2D
from ..layers.dense import Dense, Flatten
from ..layers.pooling import MaxPool2D, UpSample2D
from .ir import Graph, GraphBuilder, ModuleStateError, UnsupportedOpError

__all__ = ["register_tracer", "trace_call", "trace_module"]

#: ``tracer(module, builder, x_id) -> output value id``
TracerFn = Callable[[Module, GraphBuilder, int], int]

_TRACERS: Dict[Type[Module], TracerFn] = {}


def register_tracer(module_type: Type[Module]):
    """Class decorator registering a tracer for an exact module type."""

    def decorator(fn: TracerFn) -> TracerFn:
        _TRACERS[module_type] = fn
        return fn

    return decorator


def trace_call(module: Module, builder: GraphBuilder, x_id: int) -> int:
    """Emit the ops of one module call; returns the output value id."""
    if module.__dict__.get("_hooks"):
        # Timing hooks need the real per-layer __call__ boundaries;
        # compiling away the layers would silence them.
        raise ModuleStateError(
            f"{type(module).__name__} carries timing hooks; profiling "
            "requires the eager path"
        )
    tracer = _TRACERS.get(type(module))
    if tracer is None:
        raise UnsupportedOpError(f"no tracer registered for {type(module).__name__}")
    return tracer(module, builder, x_id)


def trace_module(module: Module, input_shape: Sequence[int], dtype) -> Graph:
    """Whole-graph convenience: one input, one traced call, one output."""
    builder = GraphBuilder()
    x_id = builder.add_input(tuple(input_shape), dtype)
    out = trace_call(module, builder, x_id)
    builder.mark_output(out)
    return builder.graph


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _meta(builder: GraphBuilder, value_id: int) -> Tuple[Tuple[int, ...], np.dtype]:
    op = builder.graph.op(value_id)
    return op.shape, np.dtype(op.dtype)


def _param_leaf(builder: GraphBuilder, tensor, source: str) -> int:
    """Leaf bound to a live :class:`Parameter` — re-read every run."""
    return builder.add_param(
        lambda: tensor.data, tuple(tensor.shape), tensor.dtype, source=source
    )


def _name_of(module: Module) -> str:
    return type(module).__name__


# ----------------------------------------------------------------------
# Containers
# ----------------------------------------------------------------------
@register_tracer(Sequential)
def _trace_sequential(module: Sequential, builder: GraphBuilder, x_id: int) -> int:
    for layer in module:
        x_id = trace_call(layer, builder, x_id)
    return x_id


# ----------------------------------------------------------------------
# Convolution / dense
# ----------------------------------------------------------------------
@register_tracer(Conv2D)
def _trace_conv2d(module: Conv2D, builder: GraphBuilder, x_id: int) -> int:
    shape, dtype = _meta(builder, x_id)
    if len(shape) != 4 or shape[1] != module.in_channels:
        raise UnsupportedOpError(
            f"Conv2D expects (N, {module.in_channels}, H, W), traced input is {shape}"
        )
    n, _, h, w = shape
    out_h, out_w = module.output_shape((h, w))
    if out_h < 1 or out_w < 1:
        raise UnsupportedOpError(f"Conv2D output collapses to ({out_h}, {out_w})")
    if np.dtype(module.weight.dtype) != dtype:
        raise UnsupportedOpError(
            f"Conv2D weight dtype {module.weight.dtype} != input dtype {dtype}"
        )
    w_id = _param_leaf(builder, module.weight, f"{_name_of(module)}.weight")
    out = builder.add_op(
        "conv2d",
        (x_id, w_id),
        (n, module.out_channels, out_h, out_w),
        dtype,
        params={
            "stride": module.stride,
            "padding": module.padding,
            "kernel": module.kernel_size,
            "input_chw": (module.in_channels, h, w),
        },
        source=_name_of(module),
    )
    if module.bias is not None:
        b_id = _param_leaf(builder, module.bias, f"{_name_of(module)}.bias")
        out = builder.add_op(
            "bias_add",
            (out, b_id),
            (n, module.out_channels, out_h, out_w),
            dtype,
            params={"channel_axis": 1},
            source=_name_of(module),
        )
    return out


@register_tracer(Dense)
def _trace_dense(module: Dense, builder: GraphBuilder, x_id: int) -> int:
    shape, dtype = _meta(builder, x_id)
    if len(shape) != 2 or shape[-1] != module.in_features:
        raise UnsupportedOpError(
            f"Dense expects (N, {module.in_features}), traced input is {shape}"
        )
    if np.dtype(module.weight.dtype) != dtype:
        raise UnsupportedOpError(
            f"Dense weight dtype {module.weight.dtype} != input dtype {dtype}"
        )
    w_id = _param_leaf(builder, module.weight, f"{_name_of(module)}.weight")
    out = builder.add_op(
        "matmul",
        (x_id, w_id),
        (shape[0], module.out_features),
        dtype,
        source=_name_of(module),
    )
    if module.bias is not None:
        b_id = _param_leaf(builder, module.bias, f"{_name_of(module)}.bias")
        out = builder.add_op(
            "bias_add",
            (out, b_id),
            (shape[0], module.out_features),
            dtype,
            params={"channel_axis": -1},
            source=_name_of(module),
        )
    return out


@register_tracer(Flatten)
def _trace_flatten(module: Flatten, builder: GraphBuilder, x_id: int) -> int:
    shape, dtype = _meta(builder, x_id)
    flat = int(np.prod(shape[1:])) if len(shape) > 1 else 1
    return builder.add_op(
        "reshape", (x_id,), (shape[0], flat), dtype, source=_name_of(module)
    )


# ----------------------------------------------------------------------
# Elementwise activations
# ----------------------------------------------------------------------
def _elementwise(kind: str):
    def tracer(module: Module, builder: GraphBuilder, x_id: int) -> int:
        shape, dtype = _meta(builder, x_id)
        return builder.add_op(kind, (x_id,), shape, dtype, source=_name_of(module))

    return tracer


register_tracer(ReLU)(_elementwise("relu"))
register_tracer(Sigmoid)(_elementwise("sigmoid"))


# ----------------------------------------------------------------------
# Pooling / upsampling
# ----------------------------------------------------------------------
@register_tracer(MaxPool2D)
def _trace_maxpool(module: MaxPool2D, builder: GraphBuilder, x_id: int) -> int:
    shape, dtype = _meta(builder, x_id)
    if len(shape) != 4:
        raise UnsupportedOpError(f"MaxPool2D expects NCHW input, traced {shape}")
    n, c, h, w = shape
    kh, kw = module.kernel_size
    sh, sw = module.stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    if out_h < 1 or out_w < 1:
        raise UnsupportedOpError(f"MaxPool2D output collapses on input {shape}")
    return builder.add_op(
        "maxpool", (x_id,), (n, c, out_h, out_w), dtype,
        params={"kernel": (kh, kw), "stride": (sh, sw)},
        source=_name_of(module),
    )


@register_tracer(UpSample2D)
def _trace_upsample(module: UpSample2D, builder: GraphBuilder, x_id: int) -> int:
    shape, dtype = _meta(builder, x_id)
    if len(shape) != 4:
        raise UnsupportedOpError(f"UpSample2D expects NCHW input, traced {shape}")
    n, c, h, w = shape
    return builder.add_op(
        "upsample", (x_id,), (n, c, h * module.scale, w * module.scale), dtype,
        params={"scale": module.scale}, source=_name_of(module),
    )
