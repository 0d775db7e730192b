"""Spatial operations for the autograd engine.

Implements 2-D convolution, transposed convolution, max pooling, and
nearest-neighbour upsampling as tape-aware operations on
:class:`~repro.nn.tensor.Tensor`.  Convolution reduces to matrix
multiplication through im2col, the fastest strategy available in pure
numpy.  Every convolution shares one column contract: :func:`im2col`
writes **tap-major** ``(kh, kw, C)`` columns, read from channels-last
memory, and :func:`col2im` is its adjoint.  Convolutions gather their
columns from the narrower side: a convolution with fewer output than
input channels (:func:`narrows`) runs as the transposed convolution of
its flipped filters, whose GEMM materialises ``kh*kw*C_out`` columns
instead of ``kh*kw*C_in``.  Training gathers where it used to scatter:
at stride 1 a convolution's input gradient is the convolution of its
output gradient with the mirrored filters (an im2col and one GEMM), so
:func:`col2im` runs only in the forward of narrowing convolutions and
of :func:`conv_transpose2d`, and in the backward of strided ones.
These rules read layer geometry only, so tape, eager and compiled runs
of a layer take the same route at every batch size.

All spatial tensors have the NCHW shape ``(batch, channels, height,
width)``; their memory order may differ.  A convolution's output is an
NCHW view of its GEMM's ``(N*H*W, C)`` rows (channels-last in memory),
and on the tape it stays in that order: ReLU, max-pool and
:func:`col2im` write their results in their input's memory order, and
the conv backward takes a gradient already in row order as a zero-copy
GEMM operand.  So nothing in a conv → max-pool → ReLU stage is copied
to NCHW order, forward or backward, and the next conv pads its
channels-last input into channels-last columns with contiguous copies.

Every operator computes its forward once.  When gradients must flow
(grad enabled and some input requires grad) it also wires a backward
closure into the tape; otherwise it returns the same result with no
closure.  So eager inference is the tape's forward without the tape,
and it is the one eager twin the compiled backends
(:mod:`repro.nn.compile`) must match.

Single-channel inputs (every model's first convolution) unfold through
a cached **im2col index map** instead: a read-only gather-index matrix
keyed by ``(shape, kernel, stride, padding)`` that turns the window
extraction into a single ``np.take``, faster than the strided copy at
one channel, where both column orders coincide.  The map cache is
LRU-bounded by a byte budget (:data:`_INDEX_CACHE_BUDGET`) so a
long-running server seeing many input geometries cannot grow it
without limit; it is shared by every thread, under one lock.  Every
other array an operator makes, forward or backward, is allocated for
that call, so returned arrays are always freshly owned.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Tuple, Union

import numpy as np

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "conv_transpose2d",
    "max_pool2d",
    "upsample2d",
    "conv_output_size",
    "narrows",
    "clear_index_cache",
    "index_cache_nbytes",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


def _recording(*tensors: Optional[Tensor]) -> bool:
    """Whether an op over ``tensors`` must build backward closures."""
    return is_grad_enabled() and any(
        t is not None and t.requires_grad for t in tensors
    )


#: Read-only im2col gather maps keyed by (C, H, W, kernel, stride, pad),
#: in LRU order (oldest first) under :data:`_INDEX_CACHE_BUDGET`.
#: Every conv in every thread (a training thread beside the serve runner)
#: reads it, so lookup, insert and evict hold :data:`_INDEX_LOCK`, and
#: :data:`_INDEX_CACHE_NBYTES` keeps the byte total without iterating.
_INDEX_CACHE: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
_INDEX_LOCK = threading.Lock()
_INDEX_CACHE_NBYTES = 0

#: Byte budget for cached gather maps.  Only single-channel inputs (a
#: model's first conv) use a map, so a fixed-geometry training loop
#: needs one: 0.8 MB for Table I's 5x5 conv on 64x64 maps.  The budget
#: only matters for long-running servers seeing many input shapes,
#: where the cache would otherwise grow without limit.
_INDEX_CACHE_BUDGET = 64 * 1024 * 1024


def _im2col_index(
    c: int,
    h: int,
    w: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Cached gather map turning window unfolding into one ``np.take``.

    :func:`im2col` asks only for ``c == 1`` maps, whose columns are
    tap-major; for ``c > 1`` the map's columns would be channel-major.
    Returns a read-only ``(out_h * out_w, C * kh * kw)`` intp matrix
    whose entry ``[p, c*kh*kw + k]`` is the flat index (into the padded
    ``(C * H' * W')`` image of one sample) of kernel tap ``k`` of
    channel ``c`` at output position ``p``.  Building it is cheap but
    per-geometry; caching makes repeated convolutions of the same shape
    (every training step) index-computation free.

    An insert then drops least-recently-used maps until the cache is
    under :data:`_INDEX_CACHE_BUDGET`, except the new map itself, even
    when it alone exceeds the budget: the caller is about to use it.
    An evicted map stays alive for any caller still holding it.
    """
    global _INDEX_CACHE_NBYTES
    key = (c, h, w, kernel, stride, padding)
    with _INDEX_LOCK:
        cached = _INDEX_CACHE.get(key)
        if cached is not None:
            _INDEX_CACHE.move_to_end(key)
            return cached
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        padded_h, padded_w = h + 2 * ph, w + 2 * pw
        out_h = conv_output_size(h, kh, sh, ph)
        out_w = conv_output_size(w, kw, sw, pw)
        rows = (np.arange(out_h) * sh)[:, None, None, None] * padded_w
        cols = (np.arange(out_w) * sw)[None, :, None, None]
        krow = (np.arange(kh) * padded_w)[None, None, :, None]
        kcol = np.arange(kw)[None, None, None, :]
        spatial = (rows + cols + krow + kcol).reshape(out_h * out_w, kh * kw)
        channel = (np.arange(c) * (padded_h * padded_w))[None, :, None]
        index = (spatial[:, None, :] + channel).reshape(out_h * out_w, c * kh * kw)
        index = np.ascontiguousarray(index, dtype=np.intp)
        index.setflags(write=False)
        _INDEX_CACHE[key] = index
        _INDEX_CACHE_NBYTES += index.nbytes
        while len(_INDEX_CACHE) > 1 and _INDEX_CACHE_NBYTES > _INDEX_CACHE_BUDGET:
            _, evicted = _INDEX_CACHE.popitem(last=False)
            _INDEX_CACHE_NBYTES -= evicted.nbytes
        return index


def clear_index_cache() -> None:
    """Release every cached im2col gather map."""
    global _INDEX_CACHE_NBYTES
    with _INDEX_LOCK:
        _INDEX_CACHE.clear()
        _INDEX_CACHE_NBYTES = 0


def index_cache_nbytes() -> int:
    """Total bytes currently held by cached im2col gather maps."""
    return _INDEX_CACHE_NBYTES


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    return (size + 2 * padding - kernel) // stride + 1


def _mirrors(kernel: Tuple[int, int], stride: Tuple[int, int],
             padding: Tuple[int, int]) -> bool:
    """Whether a convolution's adjoint is a stride-1 convolution.

    At stride 1 with padding ``p <= k - 1``, the adjoint of
    ``conv2d(·, w, padding=p)`` is the convolution with the mirrored
    filters at padding ``k - 1 - p``: an im2col gather, never a scatter.
    """
    return (
        stride == (1, 1)
        and padding[0] <= kernel[0] - 1
        and padding[1] <= kernel[1] - 1
    )


def narrows(
    c_in: int, c_out: int, kernel: IntPair, stride: IntPair, padding: IntPair
) -> bool:
    """Whether a convolution runs as a transposed convolution.

    At stride 1, ``conv2d(x, w, padding=p)`` equals
    ``conv_transpose2d(x, flip(w)ᵀ, padding=k-1-p)``, whose GEMM
    materialises ``C_out*kh*kw`` columns instead of im2col's
    ``C_in*kh*kw``.  So a layer with fewer output than input channels
    takes that route, when its padding keeps the transposed padding
    non-negative.  The rule reads layer geometry only, never the batch
    size, so one compiled graph and the eager forward take the same
    route at every batch size.
    """
    return c_out < c_in and _mirrors(_pair(kernel), _pair(stride), _pair(padding))


def _tap_major(weight: np.ndarray) -> np.ndarray:
    """Filters ``weight`` ``(A, B, kh, kw)`` as the ``(A, kh*kw*B)``
    GEMM matrix in :func:`im2col`'s tap-major column order: for conv
    filters ``(C_out, C_in, kh, kw)`` the conv GEMM's, for
    transposed-conv filters ``(C_in, C_out, kh, kw)`` the transposed
    GEMM's."""
    return weight.transpose(0, 2, 3, 1).reshape(weight.shape[0], -1)


def _flipped_filters(weight: np.ndarray) -> np.ndarray:
    """The ``(C_in, kh*kw*C_out)`` transposed-conv filters ``flip(w)ᵀ``
    of conv filters ``weight`` ``(C_out, C_in, kh, kw)``, tap-major."""
    transposed = weight[:, :, ::-1, ::-1].transpose(1, 2, 3, 0)
    return np.ascontiguousarray(transposed).reshape(weight.shape[1], -1)


def _pad_channels_last(
    x: np.ndarray, padding: Tuple[int, int], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``x`` ``(N, C, H, W)`` zero-padded into a C-contiguous
    channels-last ``(N, H+2ph, W+2pw, C)`` array.

    Unpadded, that is ``x``'s own memory when it is channels-last
    already.  Padded, the result is a fresh array, or ``out`` (zeroed
    first) when given: the compiled backend passes arena scratch.
    """
    n, c, h, w = x.shape
    ph, pw = padding
    rows = x.transpose(0, 2, 3, 1)
    if not (ph or pw):
        return np.ascontiguousarray(rows)
    if out is None:
        out = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    else:
        out.fill(0)
    out[:, ph:ph + h, pw:pw + w] = rows
    return out


def _windows(
    padded: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int]
) -> np.ndarray:
    """Read-only ``(N, oh, ow, kh, kw, C)`` window view of a padded
    channels-last image (:func:`_pad_channels_last`); its C-order copy
    is :func:`im2col`'s columns."""
    n, h, w, c = padded.shape
    kh, kw = kernel
    sh, sw = stride
    s0, s1, s2, s3 = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, (h - kh) // sh + 1, (w - kw) // sw + 1, kh, kw, c),
        strides=(s0, s1 * sh, s2 * sw, s1, s2, s3),
        writeable=False,
    )


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Unfold sliding windows of ``x`` into a 2-D matrix.

    Columns are tap-major: column ``(i*kw + j)*C + c`` of a row holds
    channel ``c`` at kernel tap ``(i, j)`` of that row's window, so each
    tap's ``C`` values are contiguous.  The input is zero-padded into a
    channels-last buffer and the columns are one copy of its strided
    window view (:func:`_windows`).  A single-channel input, where the
    tap-major and channel-major orders coincide, gathers through the
    cached index map of :func:`_im2col_index` instead, which is faster
    there.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``, in any memory order.
    kernel, stride, padding:
        Convolution geometry, each an ``(h, w)`` pair.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(N * out_h * out_w, kh * kw * C)`` whose rows
        are flattened receptive fields.
    """
    n, c, h, w = x.shape
    padded = _pad_channels_last(x, padding)
    if c == 1:
        index = _im2col_index(1, h, w, kernel, stride, padding)
        # mode="clip" skips bounds checking (indices are valid by construction).
        cols = np.take(padded.reshape(n, -1), index, axis=1, mode="clip")
        return cols.reshape(n * index.shape[0], index.shape[1])
    # A copy even where a reshape could view: fresh, compact columns.
    cols = _windows(padded, kernel, stride).copy()
    return cols.reshape(-1, kernel[0] * kernel[1] * c)


def _tap_span(
    tap: int, stride: int, pad: int, windows: int, size: int
) -> Optional[Tuple[slice, slice]]:
    """``(image, window)`` slices of one kernel tap along one axis.

    Window ``o`` reads image position ``tap + stride*o - pad``; the
    slices keep the windows whose position lands inside ``[0, size)``,
    or ``None`` when none does.
    """
    first = max(0, -((tap - pad) // stride))
    stop = min(windows, (size - 1 + pad - tap) // stride + 1)
    if stop <= first:
        return None
    start = tap + stride * first - pad
    end = tap + stride * (stop - 1) - pad + 1
    return slice(start, end, stride), slice(first, stop)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image.

    ``cols`` holds tap-major columns, as :func:`im2col` writes them:
    each tap's ``C`` values are contiguous.  Taps are added in
    ``(i, j)`` order into a channels-last ``(N, H, W, C)`` buffer, the
    row order of ``cols`` itself, so each tap reads one contiguous run
    of channels per window.  Each tap
    is clipped to the windows that land inside the image, so the
    padding border is never materialised, and every pixel sums the same
    values in the same order a padded buffer would.  The result is the
    NCHW view of that buffer: compact and channels-last in memory.

    ``out``, when given, must be a C-contiguous ``(N, H, W, C)``
    buffer; it is zeroed and used as the accumulation target, and the
    returned array is a view of it.  The compiled backend passes a slot
    of its arena here, so the result lands where the plan put it.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    if out is None:
        out = np.zeros((n, h, w, c), dtype=cols.dtype)
    else:
        out.fill(0)
    taps = cols.reshape(n, out_h, out_w, kh, kw, c)
    row_spans = [_tap_span(i, sh, ph, out_h, h) for i in range(kh)]
    col_spans = [_tap_span(j, sw, pw, out_w, w) for j in range(kw)]
    for i, row_span in enumerate(row_spans):
        for j, col_span in enumerate(col_spans):
            if row_span is None or col_span is None:
                continue
            (rows, window_rows), (columns, window_cols) = row_span, col_span
            out[:, rows, columns] += taps[:, window_rows, window_cols, i, j]
    return out.transpose(0, 3, 1, 2)


def _window_taps(
    shape: Tuple[int, ...], kernel: Tuple[int, int], stride: Tuple[int, int]
) -> List[Tuple[object, slice, slice]]:
    """Index of each window tap ``(i, j)``, in row-major window order.

    ``x[taps[k]]`` is the ``(N, C, oh, ow)`` view of tap ``k`` of every
    window, so a pooling op is ``kh*kw`` strided-slice passes over ``x``
    in its own memory order.
    """
    kh, kw = kernel
    sh, sw = stride
    out_h = (shape[2] - kh) // sh + 1
    out_w = (shape[3] - kw) // sw + 1
    return [
        (Ellipsis, slice(i, i + out_h * sh, sh), slice(j, j + out_w * sw, sw))
        for i in range(kh)
        for j in range(kw)
    ]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    A layer that :func:`narrows` (fewer output than input channels, at
    stride 1) runs as the transposed convolution of its flipped filters,
    gathering ``C_out*kh*kw`` columns (:func:`_transposed_conv`); every
    other layer GEMMs im2col's ``kh*kw*C_in`` tap-major columns with
    the filters permuted to match (:func:`_tap_major`).  Either way the
    output is a compact channels-last NCHW view.

    The input gradient gathers too.  At stride 1 with padding at most
    ``k - 1`` (every layer of the paper's models) it is the convolution
    of the output gradient with the mirrored filters: one im2col of the
    gradient at padding ``k - 1 - p`` and one GEMM with the transposed
    flipped filters (:func:`_flipped_filters`, the matrix narrowing
    layers run on), landing in channels-last rows.  Only
    other geometries scatter the GEMM's columns back with
    :func:`col2im`.

    Parameters
    ----------
    x:
        Input tensor, shape ``(N, C_in, H, W)``.
    weight:
        Filters, shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional per-output-channel bias, shape ``(C_out,)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")
    mirrored_padding = (kh - 1 - padding[0], kw - 1 - padding[1])
    if narrows(c_in, c_out, (kh, kw), stride, padding):
        return _transposed_conv(
            x, weight, bias, stride, mirrored_padding, flipped=True
        )
    out_h = conv_output_size(h, kh, stride[0], padding[0])
    out_w = conv_output_size(w, kw, stride[1], padding[1])
    cols = im2col(x.data, (kh, kw), stride, padding)  # (N*oh*ow, kh*kw*C)
    w_mat = _tap_major(weight.data)  # (C_out, kh*kw*C)
    out = cols @ w_mat.T  # (N*oh*ow, C_out)
    if bias is not None:
        out += bias.data
    out_data = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    if not _recording(x, weight, bias):
        return Tensor(out_data)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        # grad: (N, C_out, oh, ow) -> (N*oh*ow, C_out); a zero-copy view
        # when grad is already in the GEMM's row order.
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, c_out)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=0))
        if weight.requires_grad:
            grad_w = grad_mat.T @ cols  # (C_out, kh*kw*C)
            weight._accumulate(grad_w.reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2))
        if not x.requires_grad:
            return
        if _mirrors((kh, kw), stride, padding):
            grad_cols = im2col(grad, (kh, kw), (1, 1), mirrored_padding)
            # Copied C-contiguous: BLAS may sum a transposed-view operand
            # in another order, which would move the trained bytes.
            w_rows = np.ascontiguousarray(_flipped_filters(weight.data).T)
            grad_x = grad_cols @ w_rows  # (N*H*W, C_in)
            x._accumulate(grad_x.reshape(n, h, w, c_in).transpose(0, 3, 1, 2))
        else:
            grad_cols = grad_mat @ w_mat  # (N*oh*ow, kh*kw*C)
            x._accumulate(col2im(grad_cols, x.shape, (kh, kw), stride, padding))

    return Tensor._make(out_data, parents, backward)


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D transposed convolution ("deconvolution").

    The forward pass is the adjoint of :func:`conv2d` with the same
    geometry, so it is implemented directly with :func:`col2im`
    (:func:`_transposed_conv`, the kernel narrowing convolutions also
    run on).

    Parameters
    ----------
    x:
        Input tensor, shape ``(N, C_in, H, W)``.
    weight:
        Filters, shape ``(C_in, C_out, kh, kw)`` (note the transposed
        channel convention, matching PyTorch).
    """
    if x.shape[1] != weight.shape[0]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, weight expects {weight.shape[0]}"
        )
    return _transposed_conv(
        x, weight, bias, _pair(stride), _pair(padding), flipped=False
    )


def _transposed_conv(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    flipped: bool,
) -> Tensor:
    """The transposed-convolution kernel of :func:`conv_transpose2d`
    and of every convolution that :func:`narrows`.

    ``weight`` holds transposed-conv filters ``(C_in, C_out, kh, kw)``,
    or with ``flipped`` conv filters ``(C_out, C_in, kh, kw)`` whose
    transposed-conv filters are ``flip(w)ᵀ`` (:func:`_flipped_filters`);
    ``stride`` and ``padding`` are the transposed convolution's.  The
    forward is one GEMM of the channels-last input rows
    ``(N*H*W, C_in)`` with the tap-major ``(C_in, kh*kw*C_out)`` filter
    matrix, then :func:`col2im` into a compact channels-last output.
    The backward im2col-s the output gradient (``kh*kw*C_out``
    columns); its GEMMs give the filter gradient, mapped back to
    ``weight``'s layout, and the input gradient already in
    channels-last rows.
    """
    n, c_in, h, w = x.shape
    if flipped:
        c_out, _, kh, kw = weight.shape
        w_mat = _flipped_filters(weight.data)
    else:
        _, c_out, kh, kw = weight.shape
        w_mat = _tap_major(weight.data)
    out_h = (h - 1) * stride[0] - 2 * padding[0] + kh
    out_w = (w - 1) * stride[1] - 2 * padding[1] + kw

    x_mat = x.data.transpose(0, 2, 3, 1).reshape(-1, c_in)  # (N*h*w, C_in)
    cols = x_mat @ w_mat  # (N*h*w, kh*kw*C_out)
    out_data = col2im(cols, (n, c_out, out_h, out_w), (kh, kw), stride, padding)
    if bias is not None:
        out_data += bias.data.reshape(1, c_out, 1, 1)
    if not _recording(x, weight, bias):
        return Tensor(out_data)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            # Summed over channels-last rows, as conv2d's bias gradient,
            # so the sum's order does not follow grad's memory order.
            rows = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
            bias._accumulate(rows.sum(axis=0))
        if not (weight.requires_grad or x.requires_grad):
            return
        grad_cols = im2col(grad, (kh, kw), stride, padding)  # (N*h*w, kh*kw*C_out)
        if weight.requires_grad:
            grad_w = x_mat.T @ grad_cols  # (C_in, kh*kw*C_out)
            grad_w = grad_w.reshape(c_in, kh, kw, c_out).transpose(0, 3, 1, 2)
            if flipped:
                grad_w = grad_w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            weight._accumulate(grad_w)
        if x.requires_grad:
            grad_x = grad_cols @ w_mat.T  # (N*h*w, C_in)
            x._accumulate(grad_x.reshape(n, h, w, c_in).transpose(0, 3, 1, 2))

    return Tensor._make(out_data, parents, backward)


def max_pool2d(x: Tensor, kernel: IntPair = 2, stride: IntPair = None) -> Tensor:
    """Max pooling over non-overlapping (by default) windows.

    Window geometry follows the paper: every conv layer is followed by a
    2x2 max-pool.  Inputs whose spatial size is not divisible by the
    stride are truncated (floor semantics), matching common frameworks.

    The window max is ``kh*kw`` strided-slice ``np.maximum`` passes
    written in the input's memory order.  When recording, backward
    routes each window's gradient to its first maximum in row-major
    window order (argmax's tie rule), again in the input's order.
    Windows that tile the input exactly (the paper's 2x2 pools) write
    each tap's routed gradient straight into its cells of the result;
    otherwise a cell shared by overlapping windows sums their gradients
    in ascending window order, as ``np.add.at`` would, and truncated
    cells get zero.  Routing is exact for finite values: a window whose
    maximum is NaN passes no gradient, and a non-finite gradient also
    reaches its window's other cells as NaN (the step is non-finite
    either way).  Cells a window does not route to get a zero whose
    sign may follow the gradient's.
    """
    kernel = _pair(kernel)
    if stride is None:
        stride = kernel
    stride = _pair(stride)
    data = x.data
    taps = _window_taps(data.shape, kernel, stride)
    out_data = data[taps[0]].copy(order="K")
    for tap in taps[1:]:
        np.maximum(out_data, data[tap], out=out_data)
    if not _recording(x):
        return Tensor(out_data)

    kh, kw = kernel
    tiles = stride == kernel and data.shape[2] % kh == 0 and data.shape[3] % kw == 0

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # Tiling windows cover every cell once, so each tap writes its
        # routed gradient into its own cells; otherwise cells shared by
        # overlapping windows add up and truncated tails stay zero.
        grad_x = np.empty_like(data) if tiles else np.zeros_like(data)
        hits = []
        unrouted = None  # windows whose first maximum is still ahead
        for tap in taps:
            hit = data[tap] == out_data
            if unrouted is None:
                unrouted = ~hit
            else:
                hit &= unrouted
                unrouted ^= hit
            if tiles:
                np.multiply(grad, hit, out=grad_x[tap])
            else:
                hits.append(hit)
        # Later taps belong to earlier windows of a shared cell.
        for tap, hit in zip(reversed(taps), reversed(hits)):
            grad_x[tap] += grad * hit
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward)


def upsample2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor.

    This is the "upsampling" stage of the decoder in the paper's
    convolutional auto-encoder (Fig. 3), mirroring the encoder's 2x2
    max-pool.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    out_data = x.data.repeat(scale, axis=2).repeat(scale, axis=3)
    if not _recording(x):
        return Tensor(out_data)
    n, c, h, w = x.shape

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        reshaped = grad.reshape(n, c, h, scale, w, scale)
        x._accumulate(reshaped.sum(axis=(3, 5)))

    return Tensor._make(out_data, (x,), backward)
