"""Activation layers as thin Module wrappers over Tensor methods."""

from __future__ import annotations

from ..tensor import Tensor
from .base import Module

__all__ = ["ReLU", "Sigmoid"]


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Sigmoid(Module):
    """Logistic sigmoid; the paper's selection head uses one of these."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def __repr__(self) -> str:
        return "Sigmoid()"
