"""Module containers."""

from __future__ import annotations

from typing import Iterator

from ..tensor import Tensor
from .base import Module

__all__ = ["Sequential"]


class Sequential(Module):
    """Chain of modules applied in order.

    >>> model = Sequential(Conv2D(1, 8, 3), ReLU(), Flatten())  # doctest: +SKIP
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
        self._layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]

    def append(self, module: Module) -> "Sequential":
        """Add a module to the end of the chain."""
        setattr(self, f"layer{len(self._layers)}", module)
        self._layers.append(module)
        return self
