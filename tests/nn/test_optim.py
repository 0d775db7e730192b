"""Tests for the optimizer."""

import numpy as np
import pytest

from repro import nn
from repro.nn.layers.base import Parameter
from repro.nn.optim import Adam


def quadratic_param(start=5.0):
    return Parameter(np.array([start], dtype=np.float32))


def minimize(optimizer_factory, steps=200):
    """Drive x^2 toward 0 and return |x| after ``steps``."""
    param = quadratic_param()
    optimizer = optimizer_factory([param])
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (nn.Tensor(param.data, requires_grad=False), )
        param.grad = 2.0 * param.data  # d(x^2)/dx
        optimizer.step()
    return float(np.abs(param.data[0]))


class TestOptimizerBase:
    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)

    def test_step_skips_params_without_grad(self):
        param = quadratic_param()
        optimizer = Adam([param], lr=0.1)
        before = param.data.copy()
        optimizer.step()
        np.testing.assert_array_equal(param.data, before)

    def test_state_dict_roundtrip(self):
        optimizer = Adam([quadratic_param()], lr=0.1)
        optimizer._step_count = 7
        state = optimizer.state_dict()
        other = Adam([quadratic_param()], lr=0.5)
        other.load_state_dict(state)
        assert other._step_count == 7
        assert other.lr == 0.1


class TestAdam:
    def test_converges_on_quadratic(self):
        assert minimize(lambda p: Adam(p, lr=0.2)) < 1e-2

    def test_invalid_betas_raise(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], betas=(1.0, 0.999))

    def test_first_step_size_is_lr(self):
        """With bias correction, the first Adam step is ~lr * sign(grad)."""
        param = quadratic_param(0.0)
        optimizer = Adam([param], lr=0.1)
        param.grad = np.array([3.0], dtype=np.float32)
        optimizer.step()
        assert param.data[0] == pytest.approx(-0.1, rel=1e-3)

    def test_adapts_to_gradient_scale(self):
        """Two params with different gradient scales move equally."""
        a = quadratic_param(0.0)
        b = quadratic_param(0.0)
        optimizer = Adam([a, b], lr=0.1)
        a.grad = np.array([100.0], dtype=np.float32)
        b.grad = np.array([0.01], dtype=np.float32)
        optimizer.step()
        assert a.data[0] == pytest.approx(b.data[0], rel=1e-2)

    def test_update_equals_textbook_expressions_byte_for_byte(self):
        """Five steps of Kingma & Ba's update, recomputed here in plain
        float32 numpy with every scalar rounded where the update rounds
        it.  The second parameter has no gradient at step 3, so its
        moments skip that step while ``t`` still counts it, and the
        optimizer is rebuilt from its ``state_dict`` after step 2."""
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(7)
        start = [rng.normal(size=(3, 4)), rng.normal(size=(5,))]
        params = [Parameter(x.astype(np.float32)) for x in start]
        expected = [x.astype(np.float32) for x in start]
        moments = [[np.zeros_like(x), np.zeros_like(x)] for x in expected]
        optimizer = Adam(params, lr=lr, betas=(beta1, beta2), eps=eps)
        f32 = np.float32
        for t in range(1, 6):
            grads = [rng.normal(size=x.shape).astype(np.float32) for x in expected]
            if t == 3:
                grads[1] = None
            for param, grad in zip(params, grads):
                param.grad = None if grad is None else grad.copy()
            optimizer.step()
            for x, (m, v), g in zip(expected, moments, grads):
                if g is None:
                    continue
                m[...] = f32(beta1) * m + f32(1 - beta1) * g
                v[...] = f32(beta2) * v + f32(1 - beta2) * g * g
                m_hat = m / f32(1 - beta1 ** t)
                v_hat = v / f32(1 - beta2 ** t)
                x -= f32(lr) * m_hat / (np.sqrt(v_hat) + f32(eps))
            if t == 2:
                state = optimizer.state_dict()
                optimizer = Adam(params, lr=lr, betas=(beta1, beta2), eps=eps)
                optimizer.load_state_dict(state)
            for param, x in zip(params, expected):
                assert param.data.dtype == np.float32
                assert param.data.tobytes() == x.tobytes(), f"step {t}"


class TestEndToEndTraining:
    def test_dense_net_learns_linear_map(self):
        rng = np.random.default_rng(0)
        true_w = rng.normal(size=(4, 2)).astype(np.float32)
        x = rng.normal(size=(128, 4)).astype(np.float32)
        y = x @ true_w
        model = nn.Dense(4, 2, rng=rng)
        optimizer = Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            out = model(nn.Tensor(x))
            loss = nn.mse_loss(out, y)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(model.weight.data, true_w, atol=0.05)

    def test_conv_net_learns_to_classify_quadrant(self):
        """A tiny conv net learns a synthetic spatial task."""
        rng = np.random.default_rng(1)
        x = np.zeros((80, 1, 8, 8), dtype=np.float32)
        labels = np.zeros(80, dtype=np.int64)
        for i in range(80):
            quadrant = i % 2
            if quadrant == 0:
                x[i, 0, :4, :4] = rng.random((4, 4))
            else:
                x[i, 0, 4:, 4:] = rng.random((4, 4))
            labels[i] = quadrant
        model = nn.Sequential(
            nn.Conv2D(1, 4, 3, padding="same", rng=rng),
            nn.ReLU(),
            nn.MaxPool2D(2),
            nn.Flatten(),
            nn.Dense(4 * 4 * 4, 2, rng=rng),
        )
        optimizer = Adam(model.parameters(), lr=0.01)
        for _ in range(60):
            logits = model(nn.Tensor(x))
            loss = nn.cross_entropy(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        accuracy = (model(nn.Tensor(x)).data.argmax(axis=1) == labels).mean()
        assert accuracy > 0.95
