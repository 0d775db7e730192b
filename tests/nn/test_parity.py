"""Parity tests: float32 inference against the float64 tape path.

The tape path in float64 is the ground truth (it is what the gradcheck
sweep validates).  Inference — the tape-free forward under
``inference_mode``, the compiled predict paths, and the float32
default dtype — must reproduce it to within float32 round-off on real
model graphs.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.autoencoder import AutoencoderConfig, ConvAutoencoder
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet
from repro.nn.tensor import Tensor

#: Max abs logit difference allowed between float32 inference and the
#: float64 tape reference.
LOGIT_TOL = 1e-5

SMALL_BACKBONE = dict(
    input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3), fc_units=16, seed=5
)


def _float64_twin(model, factory):
    """A float64 copy of ``model`` for reference tape-path execution."""
    twin = factory()
    twin.load_state_dict(model.state_dict())
    twin.astype(np.float64)
    twin.eval()
    return twin


class TestModelParity:
    def test_cnn_logits_match_reference(self, rng):
        config = BackboneConfig(**SMALL_BACKBONE)
        model = WaferCNN(num_classes=5, config=config)
        model.eval()
        twin = _float64_twin(model, lambda: WaferCNN(num_classes=5, config=config))
        x = rng.normal(size=(8, 1, 16, 16)).astype(np.float32)

        with nn.default_dtype(np.float64):
            reference = twin(Tensor(x.astype(np.float64), requires_grad=True))
        assert reference._backward is not None  # genuinely the tape path
        with nn.inference_mode():
            fast = model(Tensor(x))

        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast.data, reference.data, atol=LOGIT_TOL)
        np.testing.assert_array_equal(
            fast.data.argmax(axis=1), reference.data.argmax(axis=1)
        )

    def test_autoencoder_reconstruction_matches_reference(self, rng):
        config = AutoencoderConfig(input_size=16, channels=(4, 4), seed=5)
        model = ConvAutoencoder(config)
        model.eval()
        twin = _float64_twin(model, lambda: ConvAutoencoder(config))
        x = rng.random((4, 1, 16, 16)).astype(np.float32)

        with nn.default_dtype(np.float64):
            reference = twin(Tensor(x.astype(np.float64), requires_grad=True))
        fast = model.reconstruct(x, batch_size=3)

        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, reference.data, atol=LOGIT_TOL)

    def test_selectivenet_decisions_match_reference(self, rng):
        config = BackboneConfig(**SMALL_BACKBONE)
        model = SelectiveNet(num_classes=5, config=config, selection_hidden=8)
        model.eval()
        twin = _float64_twin(
            model,
            lambda: SelectiveNet(num_classes=5, config=config, selection_hidden=8),
        )
        x = rng.normal(size=(16, 1, 16, 16)).astype(np.float32)

        with nn.default_dtype(np.float64):
            features = twin.backbone(Tensor(x.astype(np.float64), requires_grad=True))
            ref_logits = twin.prediction_head(features).data
            ref_scores = twin.selection_head(features).data.reshape(-1)

        prediction = model.predict_selective(x, batch_size=7)

        np.testing.assert_allclose(prediction.probabilities.sum(axis=1), 1.0, atol=1e-5)
        np.testing.assert_array_equal(
            prediction.raw_labels, ref_logits.argmax(axis=1)
        )
        np.testing.assert_array_equal(
            prediction.accepted, ref_scores >= model.threshold
        )
        np.testing.assert_allclose(
            prediction.selection_scores, ref_scores, atol=LOGIT_TOL
        )


class TestInferenceModeSemantics:
    def test_no_tape_and_no_grad_buffers(self, rng):
        """inference_mode predict records nothing and touches no grads."""
        config = BackboneConfig(**SMALL_BACKBONE)
        model = WaferCNN(num_classes=4, config=config)
        model.zero_grad()
        x = rng.normal(size=(3, 1, 16, 16)).astype(np.float32)

        with nn.inference_mode():
            out = model(Tensor(x, requires_grad=True))

        assert out._backward is None
        assert out._parents == ()
        assert not out.requires_grad
        for name, param in model.named_parameters():
            assert param.grad is None, name

        model.predict_proba(x, batch_size=2)
        for name, param in model.named_parameters():
            assert param.grad is None, name

    def test_nesting_and_exception_safety(self):
        assert nn.is_grad_enabled()
        with nn.inference_mode():
            assert not nn.is_grad_enabled()
            with nn.inference_mode():
                assert not nn.is_grad_enabled()
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

        with pytest.raises(RuntimeError):
            with nn.inference_mode():
                raise RuntimeError("boom")
        assert nn.is_grad_enabled()

    def test_scratch_buffers_never_alias_outputs(self, rng):
        """A later same-shape conv must not overwrite earlier results."""
        layer = nn.Conv2D(1, 2, 3, rng=rng)
        layer.eval()
        a = Tensor(rng.normal(size=(2, 1, 8, 8)).astype(np.float32))
        b = Tensor(rng.normal(size=(2, 1, 8, 8)).astype(np.float32))
        with nn.inference_mode():
            out_a = layer(a)
            snapshot = out_a.data.copy()
            layer(b)
        np.testing.assert_array_equal(out_a.data, snapshot)

    def test_default_dtype_controls_coercion(self):
        assert nn.get_default_dtype() == np.float32
        assert Tensor([1.0, 2.0]).dtype == np.float32
        with nn.default_dtype(np.float64):
            assert Tensor([1.0, 2.0]).dtype == np.float64
        assert Tensor([1.0, 2.0]).dtype == np.float32
        with pytest.raises(TypeError):
            nn.set_default_dtype(np.int32)

    def test_module_astype_roundtrip(self, rng):
        layer = nn.Dense(4, 3, rng=rng)
        layer.astype(np.float64)
        assert layer.weight.dtype == np.float64
        layer.astype(np.float32)
        assert all(p.dtype == np.float32 for p in layer.parameters())
        with pytest.raises(TypeError):
            layer.astype(np.int64)
