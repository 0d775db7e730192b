"""Post-training calibration of the selection threshold.

The selective model accepts a sample when ``g(x) >= tau``.  Training
with the Eq. 8 coverage constraint pushes the *mean* of ``g`` toward
``c0``, but the default ``tau = 0.5`` does not guarantee a particular
realized coverage.  Calibrating ``tau`` on held-out validation scores
lets an operator dial in an exact coverage or an exact risk budget —
the "resource allocation" use-case of Sec. IV-D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["threshold_for_coverage", "threshold_for_risk", "CalibrationResult"]


@dataclass
class CalibrationResult:
    """A calibrated threshold plus the metrics it realizes on the
    calibration set."""

    threshold: float
    realized_coverage: float
    realized_accuracy: Optional[float] = None


def threshold_for_coverage(
    selection_scores: np.ndarray,
    target_coverage: float,
    correct: Optional[np.ndarray] = None,
) -> CalibrationResult:
    """Pick ``tau`` so the accepted fraction is >= ``target_coverage``.

    Parameters
    ----------
    selection_scores:
        Validation ``g(x)`` scores.
    target_coverage:
        Desired fraction of accepted samples in (0, 1].
    correct:
        Optional boolean per-sample correctness of the prediction head;
        when given, the realized selective accuracy is reported too.
    """
    scores = np.asarray(selection_scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("selection_scores must be a non-empty 1-D array")
    if not 0.0 < target_coverage <= 1.0:
        raise ValueError("target_coverage must be in (0, 1]")

    # Accepting the top-k scores with k = ceil(target * N) guarantees
    # coverage >= target.
    k = int(np.ceil(target_coverage * scores.size))
    sorted_scores = np.sort(scores)[::-1]
    tau = float(sorted_scores[k - 1])
    accepted = scores >= tau
    result = CalibrationResult(threshold=tau, realized_coverage=float(accepted.mean()))
    if correct is not None:
        correct = np.asarray(correct, dtype=bool)
        if correct.shape != scores.shape:
            raise ValueError("correct must match selection_scores in shape")
        if accepted.any():
            result.realized_accuracy = float(correct[accepted].mean())
    return result


def threshold_for_risk(
    selection_scores: np.ndarray,
    correct: np.ndarray,
    max_risk: float,
) -> CalibrationResult:
    """Pick the smallest ``tau`` whose selective error is <= ``max_risk``.

    Sweeps thresholds from permissive to strict; returns the threshold
    with the highest coverage whose empirical selective risk (0/1 error
    on accepted samples) does not exceed the budget.  ``scores >= tau``
    accepts every sample tied at ``tau``, so only cuts between distinct
    scores are candidates (float32 sigmoid scores do tie, at 1.0).  If
    no threshold meets the budget, the strictest one is returned.
    """
    scores = np.asarray(selection_scores, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if scores.shape != correct.shape or scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores and correct must be matching non-empty 1-D arrays")
    if not 0.0 <= max_risk < 1.0:
        raise ValueError("max_risk must be in [0, 1)")

    order = np.argsort(scores)[::-1]
    sorted_scores = scores[order]
    cumulative_correct = np.cumsum(correct[order])
    # Each cut closes a run of tied scores: it accepts the whole run.
    cuts = np.append(np.flatnonzero(np.diff(sorted_scores) < 0), scores.size - 1)
    risks = 1.0 - cumulative_correct[cuts] / (cuts + 1)

    feasible = np.flatnonzero(risks <= max_risk)
    if feasible.size == 0:
        best = cuts[0]  # strictest: accept only the most confident tie group
    else:
        best = cuts[feasible[-1]]  # largest accepted count within budget
    tau = float(sorted_scores[best])
    accepted = scores >= tau
    return CalibrationResult(
        threshold=tau,
        realized_coverage=float(accepted.mean()),
        realized_accuracy=float(correct[accepted].mean()) if accepted.any() else None,
    )
