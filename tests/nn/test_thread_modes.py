"""Grad mode is per thread.

A serving lane runs every batch inside ``inference_mode`` (grad off); a
training thread beside it (a shadow retrain, a benchmark harness) must
keep recording its tape.
"""

import threading

import numpy as np

from repro import nn
from repro.core.cnn import BackboneConfig
from repro.core.selective import SelectiveNet
from repro.core.trainer import TrainConfig, Trainer
from repro.data.dataset import WaferDataset


def test_new_threads_start_with_grad_on_and_inference_off():
    seen = {}
    with nn.inference_mode():
        thread = threading.Thread(target=lambda: seen.update(grad=nn.is_grad_enabled()))
        thread.start()
        thread.join()
        assert not nn.is_grad_enabled()
    assert seen == {"grad": True}
    assert nn.is_grad_enabled()


def _backbone():
    return BackboneConfig(
        input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3), fc_units=8, seed=0
    )


def _dataset(n_per_class=16):
    rng = np.random.default_rng(0)
    dark = (rng.random((n_per_class, 16, 16)) < 0.05).astype(np.uint8) + 1
    bright = (rng.random((n_per_class, 16, 16)) < 0.6).astype(np.uint8) + 1
    labels = np.repeat([0, 1], n_per_class)
    return WaferDataset(np.concatenate([dark, bright]), labels, ("Dark", "Bright"))


def test_training_beside_a_serving_thread():
    served = SelectiveNet(2, config=_backbone())
    trained = SelectiveNet(2, config=_backbone())
    batch = np.random.default_rng(1).random((8, 1, 16, 16)).astype(np.float32)
    serving, stop = threading.Event(), threading.Event()
    errors = []

    def serve():
        try:
            while not stop.is_set():
                served.predict_batched(batch)
                serving.set()
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)
            serving.set()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        assert serving.wait(60.0)
        before = [p.data.copy() for p in trained.parameters()]
        history = Trainer(
            trained, TrainConfig(epochs=3, batch_size=8, seed=0)
        ).fit(_dataset())
    finally:
        stop.set()
        thread.join(60.0)
    assert not errors
    assert len(history.epochs) == 3
    assert all(np.isfinite(epoch.loss) for epoch in history.epochs)
    assert any(
        not np.array_equal(p.data, b) for p, b in zip(trained.parameters(), before)
    )
