"""Tests for the training loop."""

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet
from repro.core.trainer import EpochStats, TrainConfig, Trainer, TrainHistory
from repro.data.dataset import WaferDataset


def small_backbone():
    return BackboneConfig(
        input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3), fc_units=8, seed=0
    )


def blob_dataset(n_per_class=20, seed=0):
    """A linearly separable 2-class wafer problem: bright vs dark."""
    rng = np.random.default_rng(seed)
    grids = []
    labels = []
    for i in range(n_per_class):
        dark = (rng.random((16, 16)) < 0.05).astype(np.uint8) + 1
        bright = (rng.random((16, 16)) < 0.6).astype(np.uint8) + 1
        grids.extend([dark, bright])
        labels.extend([0, 1])
    return WaferDataset(np.stack(grids), np.array(labels), ("Dark", "Bright"))


class TestConfig:
    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_invalid_coverage(self):
        with pytest.raises(ValueError):
            TrainConfig(target_coverage=0.0)
        with pytest.raises(ValueError):
            TrainConfig(target_coverage=1.2)


class TestTrainer:
    def test_rejects_unknown_model_type(self):
        with pytest.raises(TypeError):
            Trainer(object())

    def test_rejects_empty_dataset(self):
        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=1))
        empty = WaferDataset(
            np.empty((0, 16, 16), dtype=np.uint8), np.empty(0, dtype=int), ("A", "B")
        )
        with pytest.raises(ValueError):
            trainer.fit(empty)

    def test_cnn_loss_decreases(self):
        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=8, batch_size=8, seed=0))
        history = trainer.fit(blob_dataset())
        losses = history.losses()
        assert losses[-1] < losses[0]

    def test_cnn_learns_separable_task(self):
        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(
            model,
            TrainConfig(epochs=25, batch_size=8, learning_rate=5e-3, seed=0),
        )
        data = blob_dataset()
        history = trainer.fit(data)
        assert history.final.train_accuracy > 0.9

    def test_history_epochs_counted(self):
        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=3, batch_size=8))
        history = trainer.fit(blob_dataset(n_per_class=4))
        assert [e.epoch for e in history.epochs] == [1, 2, 3]

    def test_validation_accuracy_recorded(self):
        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=2, batch_size=8))
        data = blob_dataset(n_per_class=6)
        history = trainer.fit(data, validation=data)
        assert all(e.val_accuracy is not None for e in history.epochs)

    def test_empty_history_final_raises(self):
        with pytest.raises(ValueError):
            TrainHistory().final

    def test_full_coverage_epoch_reports_coverage_one(self):
        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=8))
        history = trainer.fit(blob_dataset(n_per_class=4))
        assert history.final.coverage == pytest.approx(1.0)


class TestSelectiveTraining:
    def test_selective_mode_used_below_full_coverage(self):
        model = SelectiveNet(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=2, batch_size=8, target_coverage=0.5))
        history = trainer.fit(blob_dataset(n_per_class=6))
        # Selective coverage statistic is the mean of g, not forced 1.0.
        assert 0.0 < history.final.coverage < 1.0

    def test_selectivenet_at_full_coverage_trains_plain_ce(self):
        model = SelectiveNet(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=8, target_coverage=1.0))
        history = trainer.fit(blob_dataset(n_per_class=4))
        assert history.final.coverage == pytest.approx(1.0)

    def test_selective_learns_and_risk_drops(self):
        model = SelectiveNet(num_classes=2, config=small_backbone())
        trainer = Trainer(
            model,
            TrainConfig(
                epochs=25, batch_size=8, learning_rate=5e-3, target_coverage=0.7, seed=1
            ),
        )
        history = trainer.fit(blob_dataset())
        assert history.final.train_accuracy > 0.9
        risks = [e.selective_risk for e in history.epochs]
        assert risks[-1] < risks[0]

    def test_sample_weights_respected(self):
        """Zero-weighted samples must not influence training at all."""
        data = blob_dataset(n_per_class=8)
        # Mislabel half the data but give those samples zero weight.
        corrupted_labels = data.labels.copy()
        corrupted_labels[::2] = 1 - corrupted_labels[::2]
        weights = np.ones(len(data), dtype=np.float32)
        weights[::2] = 0.0
        poisoned = WaferDataset(data.grids, corrupted_labels, data.class_names, weights)

        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(
            model,
            TrainConfig(epochs=25, batch_size=8, learning_rate=5e-3, seed=0),
        )
        trainer.fit(poisoned)
        # Model should fit the clean (weighted) half, whose labels are
        # the originals with odd indices.
        clean = data.subset(np.arange(1, len(data), 2))
        predictions = model.predict(clean.tensors())
        assert (predictions == clean.labels).mean() > 0.9


class TestObservability:
    def test_empty_validation_set_scores_zero_instead_of_crashing(self):
        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=8))
        empty = WaferDataset(
            np.empty((0, 16, 16), dtype=np.uint8), np.empty(0, dtype=int), ("A", "B")
        )
        history = trainer.fit(blob_dataset(n_per_class=4), validation=empty)
        assert history.final.val_accuracy == 0.0

    def test_grad_norm_recorded_per_epoch(self):
        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=2, batch_size=8))
        history = trainer.fit(blob_dataset(n_per_class=4))
        assert all(e.grad_norm is not None and e.grad_norm > 0 for e in history.epochs)

    def test_verbose_routes_through_repro_trainer_logger(self, caplog):
        import logging

        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=8, verbose=True))
        with caplog.at_level(logging.INFO, logger="repro.trainer"):
            trainer.fit(blob_dataset(n_per_class=4))
        records = [r for r in caplog.records if r.name == "repro.trainer"]
        assert records and "loss=" in records[0].getMessage()

    def test_non_verbose_emits_no_output(self, capsys):
        model = WaferCNN(num_classes=2, config=small_backbone())
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=8))
        trainer.fit(blob_dataset(n_per_class=4))
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_run_logger_receives_config_epochs_and_summary(self, tmp_path):
        from repro.obs.events import RunLogger, load_run

        model = WaferCNN(num_classes=2, config=small_backbone())
        with RunLogger(str(tmp_path / "run")) as run_logger:
            trainer = Trainer(
                model, TrainConfig(epochs=2, batch_size=8), run_logger=run_logger
            )
            trainer.fit(blob_dataset(n_per_class=4))
        types = [r["type"] for r in load_run(str(tmp_path / "run"))]
        assert types == [
            "run_start", "config", "epoch", "epoch", "train_summary", "run_end",
        ]
