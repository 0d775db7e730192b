"""Tests for nn layers and the Module system."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


def make_rng():
    return np.random.default_rng(0)


class TestModuleSystem:
    def test_parameters_discovered_recursively(self):
        model = nn.Sequential(
            nn.Dense(4, 8, rng=make_rng()), nn.ReLU(), nn.Dense(8, 2, rng=make_rng())
        )
        params = model.parameters()
        assert len(params) == 4  # two weights + two biases

    def test_named_parameters_have_dotted_paths(self):
        model = nn.Sequential(nn.Dense(4, 2, rng=make_rng()))
        names = [name for name, _ in model.named_parameters()]
        assert names == ["layer0.weight", "layer0.bias"]

    def test_num_parameters(self):
        dense = nn.Dense(4, 3, rng=make_rng())
        assert dense.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.ReLU(), nn.Sequential(nn.Sigmoid()))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears(self):
        dense = nn.Dense(2, 2, rng=make_rng())
        out = dense(Tensor(np.ones((1, 2), dtype=np.float32)))
        out.sum().backward()
        assert dense.weight.grad is not None
        dense.zero_grad()
        assert dense.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = nn.Dense(3, 3, rng=make_rng())
        b = nn.Dense(3, 3, rng=np.random.default_rng(999))
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_load_state_dict_shape_mismatch_raises(self):
        a = nn.Dense(3, 3, rng=make_rng())
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_load_state_dict_unknown_key_raises(self):
        a = nn.Dense(3, 3, rng=make_rng())
        state = a.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_load_state_dict_missing_key_raises(self):
        a = nn.Dense(3, 3, rng=make_rng())
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": a.weight.data})

    @staticmethod
    def _two_dense():
        rng = make_rng()
        return nn.Sequential(nn.Dense(3, 4, rng=rng), nn.ReLU(), nn.Dense(4, 2, rng=rng))

    @staticmethod
    def _parameter_bytes(model):
        return {name: p.data.tobytes() for name, p in model.named_parameters()}

    def test_rejected_shape_leaves_every_parameter_unchanged(self):
        model = self._two_dense()
        before = self._parameter_bytes(model)
        state = {k: v + 1.0 for k, v in model.state_dict().items()}
        last = list(state)[-1]
        state[last] = np.zeros(5, dtype=np.float32)
        with pytest.raises(ValueError, match=last):
            model.load_state_dict(state)
        assert self._parameter_bytes(model) == before

    def test_missing_key_leaves_present_keys_unloaded(self):
        model = self._two_dense()
        before = self._parameter_bytes(model)
        state = {k: v + 1.0 for k, v in model.state_dict().items()}
        del state["layer2.bias"]
        with pytest.raises(KeyError, match="layer2.bias"):
            model.load_state_dict(state)
        assert self._parameter_bytes(model) == before

    def test_repr_nests(self):
        model = nn.Sequential(nn.Dense(2, 2, rng=make_rng()))
        assert "Dense" in repr(model)


class TestDense:
    def test_forward_shape(self):
        dense = nn.Dense(5, 3, rng=make_rng())
        out = dense(Tensor(np.ones((4, 5), dtype=np.float32)))
        assert out.shape == (4, 3)

    def test_no_bias(self):
        dense = nn.Dense(5, 3, bias=False, rng=make_rng())
        assert dense.bias is None
        assert len(dense.parameters()) == 1

    def test_wrong_input_dim_raises(self):
        dense = nn.Dense(5, 3, rng=make_rng())
        with pytest.raises(ValueError):
            dense(Tensor(np.ones((4, 4), dtype=np.float32)))

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            nn.Dense(0, 3)

    def test_linearity(self):
        dense = nn.Dense(3, 2, rng=make_rng())
        x = np.random.default_rng(1).normal(size=(2, 3)).astype(np.float32)
        out1 = dense(Tensor(x)).data
        out2 = dense(Tensor(2 * x)).data
        bias = dense.bias.data
        np.testing.assert_allclose(out2 - bias, 2 * (out1 - bias), rtol=1e-4)


class TestFlatten:
    def test_keeps_batch_axis(self):
        out = nn.Flatten()(Tensor(np.ones((2, 3, 4, 5), dtype=np.float32)))
        assert out.shape == (2, 60)


class TestConvLayers:
    def test_conv_same_padding_preserves_size(self):
        conv = nn.Conv2D(1, 4, 5, padding="same", rng=make_rng())
        out = conv(Tensor(np.ones((1, 1, 16, 16), dtype=np.float32)))
        assert out.shape == (1, 4, 16, 16)

    def test_same_padding_requires_stride_one(self):
        with pytest.raises(ValueError):
            nn.Conv2D(1, 4, 5, stride=2, padding="same", rng=make_rng())

    def test_same_padding_requires_odd_kernel(self):
        with pytest.raises(ValueError):
            nn.Conv2D(1, 4, 4, padding="same", rng=make_rng())

    def test_output_shape_helper(self):
        conv = nn.Conv2D(1, 4, 3, stride=2, padding=1, rng=make_rng())
        assert conv.output_shape((9, 9)) == (5, 5)

    def test_conv_transpose_inverts_spatial_downsizing(self):
        down = nn.Conv2D(1, 2, 2, stride=2, rng=make_rng())
        up = nn.ConvTranspose2D(2, 1, 2, stride=2, rng=make_rng())
        x = Tensor(np.ones((1, 1, 8, 8), dtype=np.float32))
        assert up(down(x)).shape == (1, 1, 8, 8)


class TestPoolingLayers:
    def test_maxpool_defaults_stride_to_kernel(self):
        pool = nn.MaxPool2D(2)
        assert pool.stride == (2, 2)

    def test_upsample_invalid_scale(self):
        with pytest.raises(ValueError):
            nn.UpSample2D(0)

    def test_pool_upsample_roundtrip_shape(self):
        x = Tensor(np.ones((1, 3, 8, 8), dtype=np.float32))
        out = nn.UpSample2D(2)(nn.MaxPool2D(2)(x))
        assert out.shape == x.shape


class TestSequential:
    def test_iteration_and_indexing(self):
        layers = [nn.ReLU(), nn.Sigmoid()]
        model = nn.Sequential(*layers)
        assert len(model) == 2
        assert model[1] is layers[1]
        assert list(model) == layers

    def test_append_registers_parameters(self):
        model = nn.Sequential(nn.ReLU())
        model.append(nn.Dense(2, 2, rng=make_rng()))
        assert len(model.parameters()) == 2

    def test_empty_sequential_is_identity(self):
        model = nn.Sequential()
        x = Tensor(np.ones(3, dtype=np.float32))
        assert model(x) is x


class TestActivationLayers:
    @pytest.mark.parametrize(
        "layer,fn",
        [
            (nn.ReLU(), lambda x: np.maximum(x, 0)),
            (nn.Sigmoid(), lambda x: 1 / (1 + np.exp(-x))),
        ],
    )
    def test_matches_numpy(self, layer, fn):
        x = np.linspace(-2, 2, 9, dtype=np.float32)
        np.testing.assert_allclose(layer(Tensor(x)).data, fn(x), rtol=1e-5)
