"""Inference backend: the model, called on the engine's runner thread.

The serving engine runs one in-process lane: its runner thread hands
each batch to :meth:`InProcessBackend.infer`, which calls the model
directly.  A backend is anything with ``infer(lane, inputs)``,
``reclaim()`` and ``close()``; the engine always passes ``lane=0``, and
tests inject their own backends through the same three calls.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..nn import Module
from ..nn.compile import compiled_for, release_compiled

__all__ = [
    "InProcessBackend",
    "make_backend",
    "model_infer_fn",
    "reserve_compiled",
]

#: ``infer_fn(inputs) -> (probabilities, selection_scores)`` over a
#: float32 ``(B, 1, H, W)`` batch.
InferFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def model_infer_fn(model) -> InferFn:
    """Adapt a repro model to the backend's ``(probs, scores)`` contract.

    :class:`~repro.core.selective.SelectiveNet` exposes it directly via
    ``predict_batched``; full-coverage models with only
    ``predict_proba`` (:class:`~repro.core.cnn.WaferCNN`) get ``+inf``
    selection scores, i.e. every sample is accepted at any threshold.
    """
    if hasattr(model, "predict_batched"):
        return model.predict_batched
    if hasattr(model, "predict_proba"):

        def infer(inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            probabilities = model.predict_proba(inputs)
            scores = np.full(len(probabilities), np.inf, dtype=probabilities.dtype)
            return probabilities, scores

        return infer
    raise TypeError(
        f"{type(model).__name__} has neither predict_batched nor predict_proba"
    )


def reserve_compiled(model, max_batch: int, input_hw: Tuple[int, int]) -> bool:
    """Compile ``model``'s inference graph for batches of up to
    ``max_batch`` wafers before it serves, so no request waits on a
    compile.

    Runs nothing: the arena is allocated, not touched.  The graph is
    compiled in eval mode, the mode the predict path runs in.  Returns
    whether the model compiled (``False``: it will serve eagerly).
    """
    if not isinstance(model, Module):
        return False
    h, w = input_hw
    was_training = model.training
    model.eval()
    try:
        return compiled_for(model).reserve(
            np.zeros((1, 1, h, w), dtype=np.float32), max_batch
        )
    finally:
        model.train(was_training)


class InProcessBackend:
    """Runs the model on the calling thread (the engine's runner)."""

    def __init__(self, infer_fn: InferFn) -> None:
        self._infer_fn = infer_fn

    def infer(self, lane: int, inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._infer_fn(inputs)

    def reclaim(self) -> None:
        """Release compiled arenas between bursts."""
        release_compiled()

    def close(self) -> None:
        pass

    def __enter__(self) -> "InProcessBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_backend(model, max_batch: int, input_hw: Tuple[int, int]) -> InProcessBackend:
    """Compile ``model`` for ``max_batch`` wafers and wrap it in a backend."""
    reserve_compiled(model, max_batch, input_hw)
    return InProcessBackend(model_infer_fn(model))
