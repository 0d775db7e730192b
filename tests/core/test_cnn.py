"""Tests for the Table I CNN architecture."""

import numpy as np
import pytest

from repro import nn
from repro.core.cnn import TABLE_I_SPEC, BackboneConfig, WaferCNN, build_backbone


class TestTableISpec:
    """The architecture constants must match the paper's Table I."""

    def test_three_conv_stages(self):
        conv_stages = [s for s in TABLE_I_SPEC if s["layer"].startswith("Conv")]
        assert len(conv_stages) == 3

    def test_filter_counts(self):
        assert [s["filters"] for s in TABLE_I_SPEC if "filters" in s] == [64, 32, 32]

    def test_kernel_sizes(self):
        assert [s["kernel"] for s in TABLE_I_SPEC if "kernel" in s] == [
            (5, 5), (3, 3), (3, 3),
        ]

    def test_all_convs_pool_2x2(self):
        assert all(s["pool"] == (2, 2) for s in TABLE_I_SPEC if "pool" in s)

    def test_fc_units(self):
        assert TABLE_I_SPEC[-1] == {"layer": "FC", "units": 256}

    def test_default_backbone_config_matches_spec(self):
        config = BackboneConfig(input_size=64)
        assert config.conv_channels == (64, 32, 32)
        assert config.conv_kernels == (5, 3, 3)
        assert config.fc_units == 256


class TestBackboneConfig:
    def test_feature_map_size(self):
        assert BackboneConfig(input_size=64).feature_map_size == 8
        assert BackboneConfig(input_size=32).feature_map_size == 4

    def test_flat_features(self):
        config = BackboneConfig(input_size=32, conv_channels=(8, 8, 8), conv_kernels=(3, 3, 3))
        assert config.flat_features == 8 * 4 * 4

    def test_mismatched_channel_kernel_lengths_raise(self):
        with pytest.raises(ValueError):
            BackboneConfig(conv_channels=(8, 8), conv_kernels=(3,))

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            BackboneConfig(input_size=4)


class TestBackbone:
    def test_output_is_fc_units_vector(self):
        config = BackboneConfig(
            input_size=16, conv_channels=(4, 4, 4), conv_kernels=(3, 3, 3), fc_units=10
        )
        backbone = build_backbone(config)
        out = backbone(nn.Tensor(np.zeros((2, 1, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 10)

    def test_layer_structure(self):
        backbone = build_backbone(BackboneConfig(input_size=32))
        types = [type(layer).__name__ for layer in backbone]
        # Each stage pools before its ReLU (the two commute).
        assert types == [
            "Conv2D", "MaxPool2D", "ReLU",
            "Conv2D", "MaxPool2D", "ReLU",
            "Conv2D", "MaxPool2D", "ReLU",
            "Flatten", "Dense", "ReLU",
        ]

    def test_seed_reproducible(self):
        config = BackboneConfig(input_size=16, conv_channels=(4,), conv_kernels=(3,), fc_units=8)
        a = build_backbone(config)
        b = build_backbone(config)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestWaferCNN:
    def make(self, num_classes=4):
        config = BackboneConfig(
            input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3), fc_units=8
        )
        return WaferCNN(num_classes=num_classes, config=config)

    def test_logits_shape(self):
        model = self.make(5)
        out = model(nn.Tensor(np.zeros((3, 1, 16, 16), dtype=np.float32)))
        assert out.shape == (3, 5)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            WaferCNN(num_classes=1)

    def test_predict_proba_rows_normalize(self):
        model = self.make()
        inputs = np.random.default_rng(0).random((5, 1, 16, 16)).astype(np.float32)
        probs = model.predict_proba(inputs)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), rtol=1e-4)

    def test_predict_returns_argmax(self):
        model = self.make()
        inputs = np.random.default_rng(1).random((4, 1, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(
            model.predict(inputs), model.predict_proba(inputs).argmax(axis=1)
        )

    def test_predict_batching_consistent(self):
        model = self.make()
        inputs = np.random.default_rng(2).random((7, 1, 16, 16)).astype(np.float32)
        np.testing.assert_allclose(
            model.predict_proba(inputs, batch_size=2),
            model.predict_proba(inputs, batch_size=7),
            rtol=1e-5,
        )

    def test_predict_restores_training_mode(self):
        model = self.make()
        model.train()
        model.predict(np.zeros((1, 1, 16, 16), dtype=np.float32))
        assert model.training

    def test_empty_input(self):
        model = self.make()
        assert model.predict_proba(np.zeros((0, 1, 16, 16), dtype=np.float32)).shape == (0, 4)
