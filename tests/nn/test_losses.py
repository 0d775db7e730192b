"""Tests for loss functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.losses import cross_entropy, mse_loss, one_hot
from repro.nn.tensor import Tensor


class TestOneHot:
    def test_basic_encoding(self):
        np.testing.assert_array_equal(
            one_hot(np.array([0, 2, 1]), 3),
            [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        )

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_empty_labels(self):
        assert one_hot(np.array([], dtype=int), 4).shape == (0, 4)


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        logits = Tensor(np.array([[2.0, 1.0, 0.0]], dtype=np.float32))
        labels = np.array([0])
        loss = cross_entropy(logits, labels)
        probs = np.exp([2.0, 1.0, 0.0])
        probs = probs / probs.sum()
        assert loss.data == pytest.approx(-np.log(probs[0]), rel=1e-5)

    def test_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0]], dtype=np.float32))
        assert cross_entropy(logits, np.array([0])).data == pytest.approx(0.0, abs=1e-4)

    def test_uniform_logits_log_nc(self):
        logits = Tensor(np.zeros((1, 4), dtype=np.float32))
        assert cross_entropy(logits, np.array([2])).data == pytest.approx(np.log(4), rel=1e-5)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(6, 5)).astype(np.float32)
        labels = rng.integers(0, 5, size=6)
        logits = Tensor(data, requires_grad=True)
        cross_entropy(logits, labels).backward()
        probs = np.exp(data - data.max(1, keepdims=True))
        probs /= probs.sum(1, keepdims=True)
        expected = (probs - one_hot(labels, 5)) / 6
        np.testing.assert_allclose(logits.grad, expected, atol=1e-6)

    def test_sample_weights_scale_loss(self):
        logits = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32))
        labels = np.array([1, 1])
        full = cross_entropy(logits, labels).data
        halved = cross_entropy(
            logits, labels, sample_weights=np.array([0.5, 0.5], dtype=np.float32)
        ).data
        assert halved == pytest.approx(full * 0.5, rel=1e-5)

    def test_sample_weights_shape_check(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([0, 1]), sample_weights=np.ones(3))

    def test_reductions(self):
        logits = Tensor(np.zeros((4, 2), dtype=np.float32))
        labels = np.zeros(4, dtype=int)
        per_sample = cross_entropy(logits, labels, reduction="none")
        assert per_sample.shape == (4,)
        total = cross_entropy(logits, labels, reduction="sum")
        assert total.data == pytest.approx(float(per_sample.data.sum()), rel=1e-6)
        with pytest.raises(ValueError):
            cross_entropy(logits, labels, reduction="bogus")


class TestMSE:
    def test_zero_on_identical(self):
        x = Tensor(np.ones((3, 3), dtype=np.float32))
        assert mse_loss(x, np.ones((3, 3), dtype=np.float32)).data == pytest.approx(0.0)

    def test_value_and_grad(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        loss = mse_loss(x, np.array([0.0], dtype=np.float32))
        assert loss.data == pytest.approx(4.0)
        loss.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_accepts_tensor_target(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert mse_loss(x, t).data == pytest.approx(1.0)

    def test_sum_reduction(self):
        x = Tensor(np.ones(4, dtype=np.float32))
        assert mse_loss(x, np.zeros(4, dtype=np.float32), reduction="sum").data == pytest.approx(4.0)


@given(
    st.integers(2, 8),
    st.integers(1, 16),
    st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_cross_entropy_nonnegative(num_classes, batch, seed):
    """Property: cross-entropy is always >= 0."""
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(batch, num_classes)).astype(np.float32))
    labels = rng.integers(0, num_classes, size=batch)
    assert float(cross_entropy(logits, labels).data) >= -1e-6


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_cross_entropy_bounded_by_uniform_when_correct_argmax(num_classes, seed):
    """Property: if the argmax matches the label, CE <= log(num_classes).

    A correct argmax means the true-class probability is at least
    1/num_classes, so -log p <= log num_classes.
    """
    rng = np.random.default_rng(seed)
    logits_data = rng.normal(size=(1, num_classes)).astype(np.float32)
    label = int(logits_data.argmax())
    loss = float(cross_entropy(Tensor(logits_data), np.array([label])).data)
    assert loss <= np.log(num_classes) + 1e-5
