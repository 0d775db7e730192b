"""Systematic numerical gradient checks for composite models.

These are the strongest correctness guarantees the nn substrate has:
entire forward graphs (conv nets, the selective objective, the
auto-encoder) are checked against central-difference gradients.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.losses import selectivenet_objective
from repro.nn.tensor import Tensor


def relative_error(analytic, numeric):
    scale = np.abs(numeric).max() + 1e-8
    return np.abs(analytic - numeric).max() / scale


def _kink_safe(x):
    """Push values away from 0 so ReLU/pool kinks don't sit inside eps."""
    return x + 0.1 * np.sign(x)


#: (id, factory(rng) -> Module, input shape)
LAYER_CASES = [
    ("dense", lambda rng: nn.Dense(6, 4, rng=rng), (3, 6)),
    ("conv", lambda rng: nn.Conv2D(2, 3, 3, rng=rng), (2, 2, 6, 6)),
    ("conv_strided", lambda rng: nn.Conv2D(2, 3, 3, stride=2, rng=rng), (2, 2, 7, 7)),
    ("conv_padded", lambda rng: nn.Conv2D(2, 3, 3, padding=1, rng=rng), (2, 2, 5, 5)),
    ("conv_same", lambda rng: nn.Conv2D(1, 2, 5, padding="same", rng=rng), (2, 1, 6, 6)),
    (
        "conv_rect",
        lambda rng: nn.Conv2D(2, 2, (3, 2), stride=(2, 1), rng=rng),
        (1, 2, 6, 5),
    ),
    ("conv_nobias", lambda rng: nn.Conv2D(2, 3, 3, bias=False, rng=rng), (2, 2, 5, 5)),
    # C_out < C_in: these run as transposed convs of the flipped filters.
    ("conv_narrow", lambda rng: nn.Conv2D(3, 2, 3, rng=rng), (2, 3, 5, 5)),
    (
        "conv_narrow_same",
        lambda rng: nn.Conv2D(4, 2, 3, padding="same", rng=rng),
        (2, 4, 5, 5),
    ),
    (
        "conv_narrow_rect",
        lambda rng: nn.Conv2D(3, 2, (3, 2), padding=(1, 0), rng=rng),
        (2, 3, 5, 4),
    ),
    (
        "conv_narrow_nobias",
        lambda rng: nn.Conv2D(3, 2, 3, padding=1, bias=False, rng=rng),
        (2, 3, 4, 4),
    ),
    (
        "conv_narrow_to_one_5x5",
        lambda rng: nn.Conv2D(3, 1, 5, padding="same", rng=rng),
        (2, 3, 6, 6),
    ),
    ("convtranspose", lambda rng: nn.ConvTranspose2D(2, 3, 3, rng=rng), (2, 2, 4, 4)),
    (
        "convtranspose_strided",
        lambda rng: nn.ConvTranspose2D(2, 2, 3, stride=2, padding=1, rng=rng),
        (2, 2, 4, 4),
    ),
    ("maxpool", lambda rng: nn.MaxPool2D(2), (2, 2, 6, 6)),
    ("maxpool_overlap", lambda rng: nn.MaxPool2D(3, stride=2), (2, 2, 7, 7)),
    ("upsample", lambda rng: nn.UpSample2D(2), (2, 2, 3, 3)),
    ("flatten", lambda rng: nn.Flatten(), (2, 2, 3, 3)),
    ("relu", lambda rng: nn.ReLU(), (3, 5)),
    ("sigmoid", lambda rng: nn.Sigmoid(), (3, 5)),
]


class TestLayerGradientSweep:
    """Finite-difference check of every layer, parameter AND input grads.

    Each case runs one layer in float64 (``Module.astype`` +
    ``default_dtype`` keep every internal coercion at full precision,
    so the central-difference noise floor sits far below tolerance),
    reduces the output to a scalar with a fixed random projection, and
    compares analytic gradients against central differences.  Inputs
    are conditioned away from ReLU/pooling kinks.
    """

    TOL = 1e-4

    @pytest.mark.parametrize(
        "factory, shape",
        [pytest.param(f, s, id=name) for name, f, s in LAYER_CASES],
    )
    def test_layer_gradients(self, rng, numgrad, factory, shape):
        with nn.default_dtype(np.float64):
            layer = factory(rng).astype(np.float64)
            x = _kink_safe(rng.normal(size=shape))

            with nn.no_grad():
                probe = layer(Tensor(x))
            proj = rng.normal(size=probe.shape)

            def run():
                inp = Tensor(x, requires_grad=True)
                loss = (layer(inp) * proj).sum()
                return loss, inp

            loss, inp = run()
            layer.zero_grad()
            loss.backward()
            analytic_input = inp.grad
            analytic_params = {
                name: param.grad for name, param in layer.named_parameters()
            }

            def value():
                return float(run()[0].data)

            numeric = numgrad(value, x)
            assert relative_error(analytic_input, numeric) < self.TOL, "input"
            for name, param in layer.named_parameters():
                numeric = numgrad(value, param.data)
                assert relative_error(analytic_params[name], numeric) < self.TOL, name

class TestFullModelGradients:
    def test_small_conv_classifier_end_to_end(self, rng, numgrad):
        """All parameters of a conv classifier pass the gradient check."""
        model = nn.Sequential(
            nn.Conv2D(1, 3, 3, padding="same", rng=rng),
            nn.ReLU(),
            nn.MaxPool2D(2),
            nn.Flatten(),
            nn.Dense(3 * 4 * 4, 4, rng=rng),
        )
        x = rng.normal(size=(3, 1, 8, 8)).astype(np.float32)
        labels = np.array([0, 1, 3])

        loss = nn.cross_entropy(model(Tensor(x)), labels)
        model.zero_grad()
        loss.backward()

        for name, param in model.named_parameters():
            def value(param=param):
                return float(nn.cross_entropy(model(Tensor(x)), labels).data)

            numeric = numgrad(value, param.data)
            assert relative_error(param.grad, numeric) < 5e-2, name

    def test_autoencoder_path(self, rng, numgrad):
        """Conv -> pool -> upsample -> conv -> sigmoid MSE path."""
        model = nn.Sequential(
            nn.Conv2D(1, 2, 3, padding="same", rng=rng),
            nn.ReLU(),
            nn.MaxPool2D(2),
            nn.UpSample2D(2),
            nn.Conv2D(2, 1, 3, padding="same", rng=rng),
            nn.Sigmoid(),
        )
        x = rng.random((2, 1, 8, 8)).astype(np.float32)

        loss = nn.mse_loss(model(Tensor(x)), x)
        model.zero_grad()
        loss.backward()

        for name, param in model.named_parameters():
            def value(param=param):
                return float(nn.mse_loss(model(Tensor(x)), x).data)

            numeric = numgrad(value, param.data)
            assert relative_error(param.grad, numeric) < 5e-2, name

    def test_selectivenet_objective_through_two_heads(self, rng, numgrad):
        """Eq. 9 gradients through shared features + both heads."""
        backbone_w = Tensor((rng.normal(size=(10, 6)) * 0.4).astype(np.float32), requires_grad=True)
        pred_w = Tensor((rng.normal(size=(6, 3)) * 0.4).astype(np.float32), requires_grad=True)
        sel_w = Tensor((rng.normal(size=(6, 1)) * 0.4).astype(np.float32), requires_grad=True)
        x = rng.normal(size=(5, 10)).astype(np.float32)
        labels = np.array([0, 1, 2, 1, 0])
        weights = np.array([1, 1, 0.5, 0.5, 1], dtype=np.float32)

        def forward(bw, pw, sw):
            features = (Tensor(x) @ bw).relu()
            logits = features @ pw
            selection = (features @ sw).sigmoid().reshape(-1)
            return selectivenet_objective(
                logits, selection, labels, target_coverage=0.7,
                lam=2.0, alpha=0.5, sample_weights=weights,
            ).total

        loss = forward(backbone_w, pred_w, sel_w)
        loss.backward()

        for tensor in (backbone_w, pred_w, sel_w):
            def value(tensor=tensor):
                return float(
                    forward(
                        Tensor(backbone_w.data), Tensor(pred_w.data), Tensor(sel_w.data)
                    ).data
                )

            numeric = numgrad(value, tensor.data)
            assert relative_error(tensor.grad, numeric) < 5e-2
