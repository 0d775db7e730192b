"""Pooling and upsampling layers."""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .. import functional as F
from ..tensor import Tensor
from .base import Module

__all__ = ["MaxPool2D", "UpSample2D"]

IntPair = Union[int, Tuple[int, int]]


class MaxPool2D(Module):
    """Max pooling layer; the paper pairs 2x2 max-pool with every conv."""

    def __init__(self, kernel_size: IntPair = 2, stride: Optional[IntPair] = None) -> None:
        super().__init__()
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride) if stride is not None else self.kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2D(kernel_size={self.kernel_size}, stride={self.stride})"


class UpSample2D(Module):
    """Nearest-neighbour upsampling, the decoder counterpart of max-pool."""

    def __init__(self, scale: int = 2) -> None:
        super().__init__()
        if scale < 1:
            raise ValueError("scale must be >= 1")
        self.scale = int(scale)

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample2d(x, self.scale)

    def __repr__(self) -> str:
        return f"UpSample2D(scale={self.scale})"
