"""Weight initialization schemes.

Provides the standard variance-preserving initializers.  The CNN and
auto-encoder in this reproduction use He (Kaiming) initialization for
ReLU stacks and Glorot (Xavier) for the linear output heads, which is
the conventional pairing for the architectures in the paper.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["compute_fans", "he_normal", "glorot_normal", "zeros"]


def compute_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a dense or convolutional weight.

    Dense weights have shape ``(in, out)``; conv weights have shape
    ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = int(np.prod(shape[2:]))
        return shape[1] * receptive, shape[0] * receptive
    size = int(np.prod(shape))
    return size, size


def he_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Kaiming-normal: ``std = sqrt(2 / fan_in)`` — for ReLU layers."""
    fan_in, _ = compute_fans(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def glorot_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Xavier-normal: ``std = sqrt(2 / (fan_in + fan_out))``."""
    fan_in, fan_out = compute_fans(shape)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...], rng: np.random.Generator = None) -> np.ndarray:
    """All-zeros; the default for biases."""
    return np.zeros(shape, dtype=np.float32)


INITIALIZERS = {
    "he_normal": he_normal,
    "glorot_normal": glorot_normal,
    "zeros": zeros,
}


def get_initializer(name: str):
    """Look up an initializer by name, raising a clear error if unknown."""
    try:
        return INITIALIZERS[name]
    except KeyError:
        known = ", ".join(sorted(INITIALIZERS))
        raise ValueError(f"unknown initializer {name!r}; expected one of: {known}") from None
