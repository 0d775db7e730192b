"""Chaos-driven training scenarios: worker loss and poisoned batches.

Determinism is the bar throughout: recovery is only correct if the
recovered run's final weights are *bit-identical* to the run that never
faulted (respawn path) or to the serial run (degraded path) — anything
else means a step was lost, skipped, or double-applied.
"""

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.trainer import TrainConfig, Trainer
from repro.data.dataset import WaferDataset
from repro.obs.metrics import default_registry
from repro.parallel import parallel_supported
from repro.resilience.chaos import (
    ChaosPlan,
    active_plan,
    kill_process,
    make_token,
    poison_arrays,
)

SIZE = 16


def tiny_dataset(n=32):
    rng = np.random.default_rng(0)
    grids = rng.integers(0, 3, size=(n, SIZE, SIZE))
    labels = rng.integers(0, 4, size=(n,)).astype(np.int64)
    return WaferDataset(grids, labels, ("a", "b", "c", "d"))


def make_trainer(**overrides):
    model = WaferCNN(
        4,
        BackboneConfig(
            input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=7,
        ),
    )
    defaults = dict(epochs=2, batch_size=16, seed=3)
    defaults.update(overrides)
    return model, Trainer(model, TrainConfig(**defaults))


def max_weight_diff(a, b):
    worst = 0.0
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        worst = max(worst, float(np.abs(pa.data - pb.data).max(initial=0.0)))
    return worst


needs_parallel = pytest.mark.skipif(
    not parallel_supported(2), reason="parallel execution unavailable"
)


#: Batch 64 on 96 maps: a two-shard batch (one shard per worker) and a
#: one-shard tail per epoch.
SHARDED = dict(batch_size=64)
SHARDED_MAPS = 96


class TestWorkerLoss:
    @needs_parallel
    def test_kill_and_respawn_matches_uninterrupted_parallel(self, tmp_path):
        """One worker dies mid-step; respawn + retry changes nothing."""
        restarts = default_registry().counter("resilience.worker.restarts")
        before = restarts.value
        token = make_token(str(tmp_path))
        plan = ChaosPlan().inject(
            "parallel.worker.step", kill_process, token=token, rank=1
        )
        with active_plan(plan):
            faulted, trainer = make_trainer(
                num_workers=2, worker_retries=2, **SHARDED
            )
            trainer.fit(tiny_dataset(SHARDED_MAPS))
        baseline, trainer = make_trainer(num_workers=2, worker_retries=2, **SHARDED)
        trainer.fit(tiny_dataset(SHARDED_MAPS))
        assert max_weight_diff(faulted, baseline) == 0.0
        assert restarts.value > before

    @needs_parallel
    def test_no_retry_budget_degrades_to_serial_exactly(self, tmp_path):
        """Respawn disabled: the pool dissolves and serial training takes
        over for the whole run, reproducing the serial trajectory."""
        deaths = default_registry().counter("resilience.worker.deaths")
        before = deaths.value
        token = make_token(str(tmp_path))
        plan = ChaosPlan().inject(
            "parallel.worker.step", kill_process, token=token, rank=1
        )
        with active_plan(plan):
            faulted, trainer = make_trainer(
                num_workers=2, worker_retries=0, **SHARDED
            )
            trainer.fit(tiny_dataset(SHARDED_MAPS))
        serial, trainer = make_trainer(num_workers=1, **SHARDED)
        trainer.fit(tiny_dataset(SHARDED_MAPS))
        assert max_weight_diff(faulted, serial) == 0.0
        assert deaths.value > before

    @needs_parallel
    def test_degraded_mid_run_matches_uninterrupted_parallel(self, tmp_path):
        """A worker dies at its second step with no respawn budget: the
        run finishes in-process and still ends on the bytes of a run
        whose two workers never faulted."""
        deaths = default_registry().counter("resilience.worker.deaths")
        before = deaths.value
        token = make_token(str(tmp_path))
        plan = ChaosPlan().inject(
            "parallel.worker.step", kill_process, token=token, rank=1, after=1
        )
        with active_plan(plan):
            faulted, trainer = make_trainer(
                num_workers=2, worker_retries=0, **SHARDED
            )
            trainer.fit(tiny_dataset(SHARDED_MAPS))
        baseline, trainer = make_trainer(num_workers=2, **SHARDED)
        trainer.fit(tiny_dataset(SHARDED_MAPS))
        assert max_weight_diff(faulted, baseline) == 0.0
        assert deaths.value > before

    @needs_parallel
    def test_worker_logic_error_is_not_retried(self):
        """A traceback from worker code is a bug, not an infra fault —
        it propagates instead of burning the respawn budget."""
        from repro.parallel.engine import DataParallelEngine, ObjectiveSpec

        model, _ = make_trainer()
        engine = DataParallelEngine(
            model, objective=ObjectiveSpec(), num_workers=2, max_batch=16
        )
        try:
            with pytest.raises(RuntimeError, match="worker 0 failed"):
                # Labels out of range explode inside the worker loss.
                engine.train_step(
                    np.zeros((8, 1, SIZE, SIZE), dtype=np.float32),
                    np.full(8, 99, dtype=np.int64),
                    np.ones(8, dtype=np.float32),
                )
        finally:
            engine.shutdown()


class TestPoisonedBatch:
    def test_poisoned_batch_rolls_back_and_cuts_lr(self, tmp_path):
        """NaN inputs at epoch 2 trip the watchdog; training rolls back
        to the epoch-1 checkpoint, halves the LR, and completes."""
        registry = default_registry()
        rollbacks = registry.counter("train.rollbacks")
        trips = registry.counter("train.watchdog.trips")
        before = (rollbacks.value, trips.value)
        plan = ChaosPlan().inject(
            "train.batch", poison_arrays("inputs"), epoch=2, times=1
        )
        with active_plan(plan):
            model, trainer = make_trainer(
                epochs=3, checkpoint_dir=str(tmp_path), keep_checkpoints=0
            )
            history = trainer.fit(tiny_dataset())
        assert [s.epoch for s in history.epochs] == [1, 2, 3]
        assert trainer.optimizer.lr == pytest.approx(1e-3 * 0.5)
        assert rollbacks.value == before[0] + 1
        assert trips.value == before[1] + 1
        # All surviving epoch stats are finite — the poisoned step never
        # reached the optimizer.
        assert all(np.isfinite(s.loss) for s in history.epochs)

    def test_trip_without_checkpoints_fails_loudly(self):
        plan = ChaosPlan().inject(
            "train.batch", poison_arrays("inputs"), epoch=1, times=1
        )
        with active_plan(plan):
            model, trainer = make_trainer(epochs=2)
            with pytest.raises(RuntimeError, match="no checkpoint_dir"):
                trainer.fit(tiny_dataset())

    def test_rollback_budget_exhaustion_fails_loudly(self, tmp_path):
        """A fault that re-fires every time cannot loop forever."""
        plan = ChaosPlan().inject(
            "train.batch", poison_arrays("inputs"), epoch=2, times=None
        )
        with active_plan(plan):
            model, trainer = make_trainer(
                epochs=3, checkpoint_dir=str(tmp_path), max_rollbacks=1
            )
            with pytest.raises(RuntimeError, match="rollback"):
                trainer.fit(tiny_dataset())
