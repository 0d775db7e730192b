"""Tests for selection-threshold calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import threshold_for_coverage, threshold_for_risk


class TestThresholdForCoverage:
    def test_realized_coverage_meets_target(self):
        rng = np.random.default_rng(0)
        scores = rng.random(100)
        for target in (0.1, 0.5, 0.9):
            result = threshold_for_coverage(scores, target)
            assert result.realized_coverage >= target

    def test_target_one_accepts_everything(self):
        scores = np.array([0.1, 0.5, 0.9])
        result = threshold_for_coverage(scores, 1.0)
        assert result.realized_coverage == 1.0
        assert result.threshold <= scores.min()

    def test_tiny_target_accepts_at_least_one(self):
        scores = np.array([0.2, 0.8, 0.5])
        result = threshold_for_coverage(scores, 0.01)
        assert result.threshold == pytest.approx(0.8)

    def test_ties_accepted_together(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        result = threshold_for_coverage(scores, 0.25)
        assert result.realized_coverage == 1.0  # all tie at the threshold

    def test_accuracy_reported_when_correctness_given(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        correct = np.array([True, True, False, False])
        result = threshold_for_coverage(scores, 0.5, correct)
        assert result.realized_accuracy == pytest.approx(1.0)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            threshold_for_coverage(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            threshold_for_coverage(np.array([0.5]), 1.1)

    def test_empty_scores_raise(self):
        with pytest.raises(ValueError):
            threshold_for_coverage(np.array([]), 0.5)

    def test_correct_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            threshold_for_coverage(np.array([0.5, 0.6]), 0.5, np.array([True]))


class TestThresholdForRisk:
    def test_meets_risk_budget(self):
        # Scores sorted with correctness degrading as scores drop.
        scores = np.linspace(1.0, 0.0, 20)
        correct = scores > 0.3  # the bottom 30% are wrong
        result = threshold_for_risk(scores, correct, max_risk=0.0)
        assert result.realized_accuracy == pytest.approx(1.0)

    def test_maximizes_coverage_within_budget(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        correct = np.array([True, True, True, False, True])
        result = threshold_for_risk(scores, correct, max_risk=0.25)
        # Accepting the top 4 gives risk 0.25 (1 of 4 wrong); accepting
        # all 5 gives risk 0.2 which is also within budget and higher
        # coverage.
        assert result.realized_coverage == 1.0

    def test_infeasible_budget_returns_strictest(self):
        scores = np.array([0.9, 0.5])
        correct = np.array([False, False])
        result = threshold_for_risk(scores, correct, max_risk=0.1)
        assert result.realized_coverage == pytest.approx(0.5)

    def test_tied_scores_stay_within_budget(self):
        # ``scores >= 0.5`` accepts both tied samples, one of them wrong,
        # so 0.5 overshoots a zero budget that 0.9 meets.
        scores = np.array([0.9, 0.5, 0.5])
        correct = np.array([True, False, True])
        result = threshold_for_risk(scores, correct, max_risk=0.0)
        assert result.threshold == pytest.approx(0.9)
        assert result.realized_coverage == pytest.approx(1 / 3)
        assert result.realized_accuracy == 1.0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            threshold_for_risk(np.array([0.5]), np.array([True]), max_risk=1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            threshold_for_risk(np.array([0.5, 0.6]), np.array([True]), max_risk=0.1)


@given(
    st.lists(st.floats(0.0, 1.0, width=32), min_size=1, max_size=50),
    st.floats(0.01, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_property_coverage_guarantee(scores, target):
    """Property: calibrated threshold always realizes >= target coverage."""
    scores = np.asarray(scores, dtype=np.float64)
    result = threshold_for_coverage(scores, target)
    assert result.realized_coverage >= min(target, 1.0) - 1e-9


@given(st.integers(1, 40), st.integers(1, 64), st.integers(0, 1000), st.floats(0.0, 0.5))
@settings(max_examples=60, deadline=None)
def test_property_risk_budget_when_feasible(n, levels, seed, budget):
    """Property: if any threshold meets the budget, the result meets it.

    Scores take ``levels`` values: few levels give heavy ties, many give
    mostly distinct scores.  A threshold accepts its whole tie group, so
    feasibility is checked at tie-closed cuts."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, n) / levels
    correct = rng.random(n) < 0.7
    result = threshold_for_risk(scores, correct, budget)
    cut_risks = np.array([1.0 - correct[scores >= tau].mean() for tau in np.unique(scores)])
    if (cut_risks <= budget).any() and result.realized_accuracy is not None:
        assert 1.0 - result.realized_accuracy <= budget + 1e-9
