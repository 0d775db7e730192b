"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn.init import compute_fans, get_initializer, glorot_normal, he_normal, zeros


class TestComputeFans:
    def test_dense_shape(self):
        assert compute_fans((128, 64)) == (128, 64)

    def test_conv_shape(self):
        # (out, in, kh, kw): fan_in = in * kh * kw
        assert compute_fans((32, 16, 3, 3)) == (16 * 9, 32 * 9)

    def test_fallback_shape(self):
        fan_in, fan_out = compute_fans((10,))
        assert fan_in == fan_out == 10


class TestVarianceScaling:
    def test_he_normal_std(self):
        rng = np.random.default_rng(0)
        weights = he_normal((1000, 500), rng)
        expected = np.sqrt(2.0 / 1000)
        assert weights.std() == pytest.approx(expected, rel=0.05)

    def test_glorot_normal_std(self):
        rng = np.random.default_rng(0)
        weights = glorot_normal((800, 200), rng)
        expected = np.sqrt(2.0 / 1000)
        assert weights.std() == pytest.approx(expected, rel=0.05)

    def test_zeros(self):
        np.testing.assert_array_equal(zeros((3, 3)), np.zeros((3, 3)))

    def test_float32_output(self):
        rng = np.random.default_rng(0)
        assert he_normal((4, 4), rng).dtype == np.float32

    def test_deterministic_given_rng(self):
        a = he_normal((4, 4), np.random.default_rng(7))
        b = he_normal((4, 4), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["he_normal", "glorot_normal", "zeros"]
    )
    def test_lookup(self, name):
        initializer = get_initializer(name)
        out = initializer((2, 2), np.random.default_rng(0))
        assert out.shape == (2, 2)

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown initializer"):
            get_initializer("magic")
