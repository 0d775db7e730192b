"""Convolutional layers (NCHW layout)."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .. import functional as F
from .. import init as init_module
from ..tensor import Tensor
from .base import Module, Parameter

__all__ = ["Conv2D", "ConvTranspose2D"]

IntPair = Union[int, Tuple[int, int]]


class Conv2D(Module):
    """2-D convolution layer.

    The paper's core CNN (Table I) stacks three of these: 64 filters of
    5x5, then 32 of 3x3, then 32 of 3x3, each followed by 2x2 max-pool.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Filter size, int or ``(kh, kw)``.
    stride, padding:
        Convolution geometry.  ``padding="same"`` computes the padding
        that preserves spatial size for odd kernels at stride 1.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: Union[IntPair, str] = 0,
        bias: bool = True,
        weight_init: str = "he_normal",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        kh, kw = F._pair(kernel_size)
        if padding == "same":
            if F._pair(stride) != (1, 1):
                raise ValueError('padding="same" requires stride 1')
            if kh % 2 == 0 or kw % 2 == 0:
                raise ValueError('padding="same" requires odd kernel sizes')
            padding = (kh // 2, kw // 2)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        initializer = init_module.get_initializer(weight_init)
        self.weight = Parameter(
            initializer((out_channels, in_channels, kh, kw), rng), name="weight"
        )
        self.bias = Parameter(init_module.zeros((out_channels,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def output_shape(self, input_shape: Tuple[int, int]) -> Tuple[int, int]:
        """Spatial output shape for a given ``(H, W)`` input."""
        h, w = input_shape
        return (
            F.conv_output_size(h, self.kernel_size[0], self.stride[0], self.padding[0]),
            F.conv_output_size(w, self.kernel_size[1], self.stride[1], self.padding[1]),
        )

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )


class ConvTranspose2D(Module):
    """2-D transposed convolution ("deconvolution").

    Used by the auto-encoder decoder (Fig. 3), where the paper mirrors
    the encoder by replacing convolution with deconvolution.  Weight
    shape follows the ``(in_channels, out_channels, kh, kw)`` convention.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = True,
        weight_init: str = "he_normal",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        initializer = init_module.get_initializer(weight_init)
        self.weight = Parameter(
            initializer((in_channels, out_channels, kh, kw), rng), name="weight"
        )
        self.bias = Parameter(init_module.zeros((out_channels,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding
        )

    def __repr__(self) -> str:
        return (
            f"ConvTranspose2D({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )
