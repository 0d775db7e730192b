"""Tests for the autograd Tensor."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.tensor import (
    Tensor,
    concatenate,
    default_dtype,
    inference_mode,
    is_grad_enabled,
    no_grad,
    stack,
)


def tensor_from(values, requires_grad=True):
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=requires_grad)


class TestBasics:
    def test_wraps_numpy_as_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32
        assert t.shape == (3,)

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_detach_cuts_tape(self):
        t = tensor_from([1.0, 2.0])
        d = t.detach()
        assert not d.requires_grad
        assert np.shares_memory(d.data, t.data)

    def test_item_on_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_seed(self):
        t = tensor_from([1.0, 2.0])
        y = t * 2
        with pytest.raises(RuntimeError):
            y.backward()

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(tensor_from([1.0]))


class TestArithmetic:
    def test_add_backward(self):
        a = tensor_from([1.0, 2.0])
        b = tensor_from([3.0, 4.0])
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_add_broadcast_backward(self):
        a = tensor_from([[1.0, 2.0], [3.0, 4.0]])
        b = tensor_from([10.0, 20.0])
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [2.0, 2.0])

    def test_scalar_radd(self):
        a = tensor_from([1.0])
        y = 5 + a
        y.backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_mul_backward(self):
        a = tensor_from([2.0, 3.0])
        b = tensor_from([4.0, 5.0])
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0, 5.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_sub_and_neg(self):
        a = tensor_from([5.0])
        b = tensor_from([3.0])
        (a - b).backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_rsub(self):
        a = tensor_from([3.0])
        (10.0 - a).backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_div_backward(self):
        a = tensor_from([6.0])
        b = tensor_from([2.0])
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])

    def test_rtruediv(self):
        a = tensor_from([2.0])
        (8.0 / a).backward()
        np.testing.assert_allclose(a.grad, [-2.0])

    def test_pow_backward(self):
        a = tensor_from([3.0])
        (a ** 2).backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            tensor_from([2.0]) ** tensor_from([2.0])

    def test_matmul_backward(self):
        a = tensor_from([[1.0, 2.0]])
        b = tensor_from([[3.0], [4.0]])
        (a @ b).backward()
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])
        np.testing.assert_allclose(b.grad, [[1.0], [2.0]])

    def test_gradient_accumulates_over_reuse(self):
        a = tensor_from([2.0])
        y = a * a + a  # dy/da = 2a + 1 = 5
        y.backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_chain_through_shared_subexpression(self):
        x = tensor_from([1.5])
        h = x * 2
        y = h * h  # y = 4x^2, dy/dx = 8x = 12
        y.backward()
        np.testing.assert_allclose(x.grad, [12.0])


class TestNonlinearities:
    def test_exp_log_roundtrip_grad(self):
        x = tensor_from([0.5, 1.0])
        y = x.exp().log().sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0], rtol=1e-5)

    def test_relu_gates_gradient(self):
        x = tensor_from([-1.0, 2.0])
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_relu_tape_matches_inference_bitwise(self):
        values = [-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf, np.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = tensor_from(values)
            tape = x.relu()
            with inference_mode():
                fast = tensor_from(values, requires_grad=False).relu()
            tape.backward(np.ones(len(values), dtype=np.float32))
        assert tape.data.tobytes() == fast.data.tobytes()
        np.testing.assert_array_equal(x.grad, [0, 0, 0, 0, 1, 1, 0])

    def test_sigmoid_value_and_grad(self):
        x = tensor_from([0.0])
        y = x.sigmoid()
        assert y.data[0] == pytest.approx(0.5)
        y.backward()
        np.testing.assert_allclose(x.grad, [0.25])

    def test_sigmoid_extreme_values_stable(self):
        x = tensor_from([-100.0, 100.0])
        y = x.sigmoid()
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == pytest.approx(0.0, abs=1e-6)
        assert y.data[1] == pytest.approx(1.0, abs=1e-6)

    def test_log_softmax_rows_normalize(self):
        x = tensor_from([[1.0, 2.0, 3.0]])
        y = x.log_softmax()
        np.testing.assert_allclose(np.exp(y.data).sum(), 1.0, rtol=1e-5)

    def test_log_softmax_invariant_to_shift(self):
        a = tensor_from([[1.0, 2.0]])
        b = tensor_from([[101.0, 102.0]])
        np.testing.assert_allclose(a.log_softmax().data, b.log_softmax().data, rtol=1e-4)

    def test_softmax_grad_sums_to_zero(self):
        x = tensor_from([[1.0, -1.0, 0.5]])
        y = x.softmax()
        y[0, 0].backward()
        assert x.grad.sum() == pytest.approx(0.0, abs=1e-6)


class TestReductions:
    def test_sum_all(self):
        x = tensor_from([[1.0, 2.0], [3.0, 4.0]])
        y = x.sum()
        assert y.data == pytest.approx(10.0)
        y.backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 2)))

    def test_sum_axis_keepdims(self):
        x = tensor_from(np.arange(6, dtype=np.float32).reshape(2, 3))
        y = x.sum(axis=1, keepdims=True)
        assert y.shape == (2, 1)
        (y * tensor_from([[2.0], [3.0]])).sum().backward()
        np.testing.assert_allclose(x.grad, [[2, 2, 2], [3, 3, 3]])

    def test_sum_negative_axis(self):
        x = tensor_from(np.ones((2, 3)))
        y = x.sum(axis=-1)
        assert y.shape == (2,)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_scales_gradient(self):
        x = tensor_from([2.0, 4.0, 6.0])
        x.mean().backward()
        np.testing.assert_allclose(x.grad, [1 / 3] * 3, rtol=1e-6)

    def test_mean_axis_tuple(self):
        x = tensor_from(np.ones((2, 3, 4)))
        y = x.mean(axis=(1, 2))
        assert y.shape == (2,)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1 / 12), rtol=1e-6)

    def test_max_routes_gradient_to_argmax(self):
        x = tensor_from([1.0, 5.0, 3.0])
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_splits_gradient_on_ties(self):
        x = tensor_from([5.0, 5.0])
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_max_axis(self):
        x = tensor_from([[1.0, 9.0], [8.0, 2.0]])
        y = x.max(axis=1)
        np.testing.assert_allclose(y.data, [9.0, 8.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1], [1, 0]])


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        x = tensor_from(np.arange(6, dtype=np.float32))
        y = x.reshape(2, 3)
        (y * y).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.arange(6))

    def test_reshape_accepts_tuple(self):
        x = tensor_from(np.ones(4))
        assert x.reshape((2, 2)).shape == (2, 2)

    def test_transpose_default_reverses(self):
        x = tensor_from(np.ones((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)

    def test_transpose_grad(self):
        x = tensor_from(np.arange(6, dtype=np.float32).reshape(2, 3))
        y = x.transpose(1, 0)
        (y * tensor_from(np.arange(6, dtype=np.float32).reshape(3, 2))).sum().backward()
        assert x.grad.shape == (2, 3)

    def test_getitem_scatter_grad(self):
        x = tensor_from([1.0, 2.0, 3.0])
        x[1].backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_getitem_slice(self):
        x = tensor_from([1.0, 2.0, 3.0, 4.0])
        x[1:3].sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 1, 0])

    def test_concatenate_grad_routing(self):
        a = tensor_from([1.0, 2.0])
        b = tensor_from([3.0])
        y = concatenate([a, b])
        (y * tensor_from([10.0, 20.0, 30.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [10.0, 20.0])
        np.testing.assert_allclose(b.grad, [30.0])

    def test_stack_grad_routing(self):
        a = tensor_from([1.0, 2.0])
        b = tensor_from([3.0, 4.0])
        y = stack([a, b])
        assert y.shape == (2, 2)
        y[0].sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 0.0])


class TestGradMode:
    def test_no_grad_blocks_tape(self):
        x = tensor_from([1.0])
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nesting(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()

    def test_zero_grad(self):
        x = tensor_from([1.0])
        (x * 2).backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None


class TestNumericalGradients:
    """Autograd vs central differences on composite expressions."""

    def test_composite_expression(self, numgrad):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 4)).astype(np.float32)

        def forward_value():
            t = Tensor(data)
            return float(((t * t + t.exp() * 0.1).sigmoid()).sum().data)

        x = Tensor(data.copy(), requires_grad=True)
        ((x * x + x.exp() * 0.1).sigmoid()).sum().backward()
        numeric = numgrad(forward_value, data)
        np.testing.assert_allclose(x.grad, numeric, rtol=5e-2, atol=5e-3)

    def test_log_softmax_gradient(self, numgrad):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(2, 5)).astype(np.float32)
        weights = rng.normal(size=(2, 5)).astype(np.float32)

        def forward_value():
            return float((Tensor(data).log_softmax() * Tensor(weights)).sum().data)

        x = Tensor(data.copy(), requires_grad=True)
        (x.log_softmax() * Tensor(weights)).sum().backward()
        numeric = numgrad(forward_value, data)
        np.testing.assert_allclose(x.grad, numeric, rtol=5e-2, atol=5e-3)

    def test_softmax_gradient(self, numgrad):
        """The taped softmax (``log_softmax().exp()``), checked in float64."""
        rng = np.random.default_rng(2)
        data = rng.normal(size=(3, 5))
        weights = rng.normal(size=(3, 5))
        with default_dtype(np.float64):

            def forward_value():
                return float((Tensor(data).softmax() * Tensor(weights)).sum().data)

            x = Tensor(data.copy(), requires_grad=True)
            (x.softmax() * Tensor(weights)).sum().backward()
            numeric = numgrad(forward_value, data)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-4, atol=1e-7)


@given(
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
        elements=st.floats(-10, 10, width=32),
    )
)
@settings(max_examples=50, deadline=None)
def test_sum_gradient_is_ones(values):
    """Property: d(sum(x))/dx == 1 everywhere, any shape."""
    x = Tensor(values, requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(values))


@given(
    hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(-5, 5, width=32),
    )
)
@settings(max_examples=50, deadline=None)
def test_add_commutes(values):
    """Property: x + y == y + x for tensors."""
    a = Tensor(values)
    b = Tensor(values * 2)
    np.testing.assert_array_equal((a + b).data, (b + a).data)


@given(st.lists(st.floats(-3, 3, width=32), min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_softmax_is_distribution(values):
    """Property: softmax output is a probability distribution."""
    x = Tensor(np.asarray(values, dtype=np.float32))
    probs = x.softmax().data
    assert np.all(probs >= 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-4)
