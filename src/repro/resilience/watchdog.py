"""Training-health watchdog: catch NaN/Inf loss and gradient blow-ups.

A NaN loss does not crash numpy training — it silently propagates
through Adam into every parameter and poisons the rest of the run.
:class:`TrainingWatchdog` is the per-batch tripwire: the trainer feeds
it each batch's loss and global gradient norm, and a non-``None``
return means "this step must not be applied" — the trainer rolls back
to the last good checkpoint with a learning-rate cut instead of dying
(see ``Trainer.fit``).
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["TrainingWatchdog"]


class TrainingWatchdog:
    """Detects divergence signals in the per-batch training telemetry.

    Parameters
    ----------
    grad_norm_limit:
        Absolute bound on the global L2 gradient norm; ``None`` disables
        the explosion check (non-finite values still trip).
    loss_limit:
        Absolute bound on the batch loss; ``None`` disables it.
    """

    def __init__(
        self,
        grad_norm_limit: Optional[float] = None,
        loss_limit: Optional[float] = None,
    ) -> None:
        if grad_norm_limit is not None and grad_norm_limit <= 0:
            raise ValueError("grad_norm_limit must be positive when set")
        if loss_limit is not None and loss_limit <= 0:
            raise ValueError("loss_limit must be positive when set")
        self.grad_norm_limit = grad_norm_limit
        self.loss_limit = loss_limit
        self.trips = 0

    def check(self, loss: float, grad_norm: Optional[float] = None) -> Optional[str]:
        """Return a trip reason, or ``None`` when the step looks healthy."""
        reason = self._inspect(loss, grad_norm)
        if reason is not None:
            self.trips += 1
            self._note_trip(reason, loss, grad_norm)
        return reason

    @staticmethod
    def _note_trip(reason: str, loss: float, grad_norm: Optional[float]) -> None:
        """Best-effort flight-ring record; lazy import avoids the
        ``repro.obs`` → ``repro.resilience`` import cycle."""
        try:
            from ..obs.flight import record_flight_event

            record_flight_event(
                "watchdog_trip",
                reason=reason,
                loss=repr(loss),
                grad_norm=repr(grad_norm),
            )
        except Exception:  # pragma: no cover - obs must never break checks
            pass

    def _inspect(self, loss: float, grad_norm: Optional[float]) -> Optional[str]:
        if not math.isfinite(loss):
            return f"non-finite loss ({loss!r})"
        if grad_norm is not None and not math.isfinite(grad_norm):
            return f"non-finite gradient norm ({grad_norm!r})"
        if self.loss_limit is not None and loss > self.loss_limit:
            return f"loss {loss:.4g} exceeds limit {self.loss_limit:.4g}"
        if (
            self.grad_norm_limit is not None
            and grad_norm is not None
            and grad_norm > self.grad_norm_limit
        ):
            return (
                f"gradient norm {grad_norm:.4g} exceeds limit "
                f"{self.grad_norm_limit:.4g}"
            )
        return None
