"""Reference kernels the production tape kernels are checked against.

These are the earlier NCHW implementations of the training-path max-pool
and convolution, kept independent of the production column code: the
max-pool gathers every window through an ``as_strided`` view, takes
``argmax`` (first maximum wins), and scatters the gradient with
``put_along_axis`` (tiled windows) or ``np.add.at`` (overlapping
windows).  ``im2col`` unfolds a padded NCHW image into channel-major
``(c, kh, kw)`` columns, the order production used before its columns
became tap-major; ``col2im`` takes production's tap-major ``(kh, kw,
c)`` columns and adds the taps into a channels-first padded buffer.
``conv2d`` is the im2col convolution every layer ran before narrowing
layers moved to the transposed-conv kernel: one GEMM of the
channel-major columns forward, and for the input gradient the scatter
path, a GEMM to tap-major columns and the reference ``col2im``.

Signatures match :func:`repro.nn.functional.max_pool2d`,
:func:`repro.nn.functional.im2col`, :func:`repro.nn.functional.col2im`
and :func:`repro.nn.functional.conv2d`, so a test can patch them into
:mod:`repro.nn.functional` and train through them.  The reference
``col2im`` ignores ``out`` and allocates its own buffer.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import IntPair, _pair, conv_output_size
from repro.nn.tensor import Tensor


def _strided_windows(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int]
) -> np.ndarray:
    """Read-only sliding-window view ``(N, C, oh, ow, kh, kw)`` of ``x``."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    strides = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * sh,
            strides[3] * sw,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )


def max_pool2d(x: Tensor, kernel: IntPair = 2, stride: IntPair = None) -> Tensor:
    """Recording max-pool: argmax forward, winner-scatter backward."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1

    windows = _strided_windows(x.data, kernel, stride)
    flat = windows.reshape(n, c, out_h, out_w, kh * kw)
    argmax = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if (sh, sw) == (kh, kw):
            slots = np.zeros((n, c, out_h, out_w, kh * kw), dtype=grad.dtype)
            np.put_along_axis(slots, argmax[..., None], grad[..., None], axis=-1)
            block = (
                slots.reshape(n, c, out_h, out_w, kh, kw)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, out_h * kh, out_w * kw)
            )
            if block.shape[2:] == (h, w):
                grad_x = block
            else:  # floor-truncated tail rows/cols received no gradient
                grad_x = np.zeros_like(x.data)
                grad_x[:, :, : out_h * kh, : out_w * kw] = block
            x._accumulate(grad_x)
            return
        grad_x = np.zeros_like(x.data)
        ki, kj = np.unravel_index(argmax, (kh, kw))
        n_idx, c_idx, i_idx, j_idx = np.indices(argmax.shape)
        np.add.at(grad_x, (n_idx, c_idx, i_idx * sh + ki, j_idx * sw + kj), grad)
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward)


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """``(N*oh*ow, C*kh*kw)`` channel-major columns of a padded NCHW copy."""
    n, c = x.shape[:2]
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = _strided_windows(padded, kernel, stride)  # (N, C, oh, ow, kh, kw)
    out_h, out_w = windows.shape[2:4]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel[0] * kernel[1]
    )


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Adjoint of production's tap-major ``im2col``, accumulated
    channels-first."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    reshaped = cols.reshape(n, out_h, out_w, kh, kw, c).transpose(0, 5, 3, 4, 1, 2)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += reshaped[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph:h + ph, pw:w + pw]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """Recording im2col convolution, whatever the channel counts; the
    input gradient scatters through the reference ``col2im``."""
    stride, padding = _pair(stride), _pair(padding)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride[0], padding[0])
    out_w = conv_output_size(w, kw, stride[1], padding[1])
    rows = n * out_h * out_w
    cols = im2col(x.data, (kh, kw), stride, padding)  # (rows, C_in*kh*kw)
    w_mat = weight.data.reshape(c_out, -1)
    out = cols @ w_mat.T
    if bias is not None:
        out += bias.data
    out_data = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(rows, c_out)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((grad_mat.T @ cols).reshape(weight.shape))
        if x.requires_grad:
            tap_major = weight.data.transpose(0, 2, 3, 1).reshape(c_out, -1)
            grad_cols = grad_mat @ tap_major  # (rows, kh*kw*C_in)
            x._accumulate(col2im(grad_cols, x.shape, (kh, kw), stride, padding))

    return Tensor._make(out_data, parents, backward)
