"""Crash-safe checkpointing end-to-end: SIGKILL and corrupt resumes."""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.trainer import TrainConfig, Trainer
from repro.data.dataset import WaferDataset
from repro.obs.metrics import default_registry
from repro.resilience.chaos import (
    KILL_EXIT_CODE,
    ChaosPlan,
    activate,
    active_plan,
    kill_process,
    raise_error,
)
from repro.resilience.checkpoint import CheckpointManager

SIZE = 16
EPOCHS = 3


def tiny_dataset(n=32):
    rng = np.random.default_rng(0)
    grids = rng.integers(0, 3, size=(n, SIZE, SIZE))
    labels = rng.integers(0, 4, size=(n,)).astype(np.int64)
    return WaferDataset(grids, labels, ("a", "b", "c", "d"))


def make_trainer(checkpoint_dir=None):
    model = WaferCNN(
        4,
        BackboneConfig(
            input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=7,
        ),
    )
    config = TrainConfig(
        epochs=EPOCHS, batch_size=16, seed=3,
        checkpoint_dir=checkpoint_dir, keep_checkpoints=0,
    )
    return model, Trainer(model, config)


def max_weight_diff(a, b):
    worst = 0.0
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        worst = max(worst, float(np.abs(pa.data - pb.data).max(initial=0.0)))
    return worst


def _train_to_death(checkpoint_dir):
    """Child target: die (skipping atexit) right after the second
    checkpoint publishes — a SIGKILL between checkpoints."""
    activate(ChaosPlan().inject("train.checkpoint.saved", kill_process, after=1))
    _, trainer = make_trainer(checkpoint_dir)
    trainer.fit(tiny_dataset())


needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="fork unavailable"
)


class TestSigkillResume:
    @needs_fork
    def test_resume_auto_matches_uninterrupted(self, tmp_path):
        child = mp.get_context("fork").Process(
            target=_train_to_death, args=(str(tmp_path),)
        )
        child.start()
        child.join(timeout=300)
        assert not child.is_alive()
        assert child.exitcode == KILL_EXIT_CODE

        # The kill landed between checkpoints: epoch-2 checkpoint is
        # complete, nothing newer exists, no staging orphans linger.
        names = sorted(os.listdir(tmp_path))
        assert names == ["ckpt-00001", "ckpt-00002"]

        resumed, trainer = make_trainer(str(tmp_path))
        history = trainer.fit(tiny_dataset(), resume="auto")
        assert [s.epoch for s in history.epochs] == [3]

        baseline, trainer = make_trainer()
        trainer.fit(tiny_dataset())
        assert max_weight_diff(resumed, baseline) == 0.0


class TestCorruptResume:
    def test_resume_skips_truncated_newest_checkpoint(self, tmp_path):
        _, trainer = make_trainer(str(tmp_path))
        trainer.fit(tiny_dataset())
        # Tear the newest checkpoint the way a dying disk would.
        newest = os.path.join(tmp_path, f"ckpt-{EPOCHS:05d}", "model.npz")
        with open(newest, "r+b") as handle:
            handle.truncate(16)

        skipped = default_registry().counter("train.checkpoint.corrupt_skipped")
        before = skipped.value
        resumed, trainer = make_trainer(str(tmp_path))
        history = trainer.fit(tiny_dataset(), resume="auto")
        # Resumed from epoch 2 (the newest *valid* one), re-ran epoch 3.
        assert [s.epoch for s in history.epochs] == [3]
        assert skipped.value > before

        baseline, trainer = make_trainer()
        trainer.fit(tiny_dataset())
        assert max_weight_diff(resumed, baseline) == 0.0

    def test_resume_auto_on_fresh_run_is_noop(self, tmp_path):
        _, trainer = make_trainer(str(tmp_path))
        history = trainer.fit(tiny_dataset(), resume="auto")
        assert [s.epoch for s in history.epochs] == [1, 2, 3]

    def test_resume_path_requires_checkpoint_dir(self):
        _, trainer = make_trainer()
        with pytest.raises(ValueError, match="checkpoint_dir"):
            trainer.fit(tiny_dataset(), resume="/nonexistent/ckpt-00001")


class TestAsyncPublishFault:
    def test_failed_async_publish_keeps_previous_latest_valid(self, tmp_path):
        """A fault at the pre-rename publish point fails the save itself:
        the previous checkpoint stays ``latest_valid()`` and no staging
        directory is left behind."""
        from repro.obs.metrics import MetricsRegistry

        model, _ = make_trainer()
        manager = CheckpointManager(
            str(tmp_path), keep=0, registry=MetricsRegistry()
        )
        first = manager.save(epoch=1, model=model)

        plan = ChaosPlan()
        plan.inject("checkpoint.publish", raise_error(OSError("disk full")))
        with active_plan(plan):
            with pytest.raises(OSError, match="disk full"):
                manager.save(epoch=2, model=model)

        assert manager.latest_valid() == first
        assert sorted(os.listdir(tmp_path)) == ["ckpt-00001"]
