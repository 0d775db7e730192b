"""Loss functions.

Includes the plain cross-entropy of Eq. (1) in the paper (with optional
per-sample weights, used to down-weight synthetic samples by ``w`` in
the augmentation scheme) plus the mean squared error the auto-encoder
trains on.  The SelectiveNet objective (Eqs. 6–9) builds on these and lives
in :mod:`repro.core.losses`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .tensor import Tensor

__all__ = ["cross_entropy", "mse_loss", "one_hot"]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels into a float32 one-hot matrix.

    >>> one_hot(np.array([0, 2]), 3).tolist()
    [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def _per_sample_ce(logits: Tensor, labels: np.ndarray) -> Tensor:
    num_classes = logits.shape[-1]
    targets = one_hot(np.asarray(labels), num_classes)
    log_probs = logits.log_softmax(axis=-1)
    return -(log_probs * Tensor(targets)).sum(axis=-1)


def cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    sample_weights: Optional[np.ndarray] = None,
    reduction: str = "mean",
) -> Tensor:
    """Softmax cross-entropy from raw logits (Eq. 1).

    Parameters
    ----------
    logits:
        Raw scores, shape ``(N, num_classes)``.
    labels:
        Integer class labels, shape ``(N,)``.
    sample_weights:
        Optional per-sample weights; the paper multiplies the loss of
        synthetic (augmented) samples by ``w < 1``.
    reduction:
        ``"mean"``, ``"sum"``, or ``"none"``.  For ``"mean"`` with
        weights, the result is the weighted sum divided by N (so that
        down-weighting a sample strictly reduces its influence).
    """
    per_sample = _per_sample_ce(logits, labels)
    if sample_weights is not None:
        weights = np.asarray(sample_weights, dtype=np.float32)
        if weights.shape != (logits.shape[0],):
            raise ValueError("sample_weights must have shape (N,)")
        per_sample = per_sample * Tensor(weights)
    if reduction == "none":
        return per_sample
    if reduction == "sum":
        return per_sample.sum()
    if reduction == "mean":
        return per_sample.mean()
    raise ValueError(f"unknown reduction {reduction!r}")


def mse_loss(prediction: Tensor, target: Union[Tensor, np.ndarray], reduction: str = "mean") -> Tensor:
    """Mean squared error; the auto-encoder's reconstruction loss."""
    if not isinstance(target, Tensor):
        target = Tensor(target)
    diff = prediction - target
    squared = diff * diff
    if reduction == "none":
        return squared
    if reduction == "sum":
        return squared.sum()
    if reduction == "mean":
        return squared.mean()
    raise ValueError(f"unknown reduction {reduction!r}")
