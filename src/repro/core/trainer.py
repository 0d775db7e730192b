"""Training loop for the full-coverage CNN and the SelectiveNet.

The paper trains with Adam for 100 epochs, lambda = alpha = 0.5; the
:class:`TrainConfig` defaults mirror that, with batch size and epochs
scaled to what the numpy substrate can run in reasonable time.

Every batch's gradient comes from the shard protocol of
:mod:`repro.parallel.engine`: on the worker pool for a batch of two or
more 32-row shards while one is up, in-process through
:func:`~repro.parallel.sharded_step` otherwise.  This module computes
no loss itself.

Fault tolerance (see :mod:`repro.resilience`):

* ``checkpoint_dir`` enables crash-safe checkpoints — atomic
  directories with CRC manifests covering model + optimizer + RNG +
  epoch — and ``fit(..., resume="auto")`` restarts from the newest
  *valid* one, skipping corrupt checkpoints with a warning.  Because
  the shuffle RNG state is restored bit-exactly, the resumed
  trajectory matches the uninterrupted run.
* A :class:`~repro.resilience.TrainingWatchdog` inspects every batch
  (non-finite loss / gradient explosions) *before* the optimizer step;
  a trip rolls the model, optimizer, and RNG back to the last good
  checkpoint with a learning-rate cut instead of poisoning the run.
* Data-parallel training survives worker loss: the engine retries /
  re-shards transparently, and on total pool degradation
  (:class:`~repro.parallel.ParallelUnavailable`) the trainer finishes
  the *same batch* — and the rest of the run — in-process, so no step
  is skipped or double-applied and the trajectory does not change.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from .. import nn
from ..data.dataset import BatchIterator, WaferDataset
from ..obs.flight import dump_flight, record_flight_event
from ..obs.trace import current_tracer
from ..parallel.engine import (
    DataParallelEngine,
    ObjectiveSpec,
    ParallelUnavailable,
    StepStats,
    shard_bounds,
    sharded_step,
)
from ..parallel.pool import kept_heap, parallel_supported, usable_cores
from ..resilience.chaos import chaos_point
from ..resilience.retry import RetryPolicy
from ..resilience.watchdog import TrainingWatchdog
from .cnn import WaferCNN
# Not called here.  fabbench's traced run wraps this module attribute by
# name, and its probe fails to install when the name is missing.
from .losses import selectivenet_objective  # noqa: F401
from .selective import SelectiveNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports core)
    from ..obs.events import RunLogger

__all__ = ["TrainConfig", "EpochStats", "TrainHistory", "Trainer"]

logger = logging.getLogger("repro.trainer")

#: Learning-rate multiplier applied on each watchdog rollback, so the
#: retried epochs do not re-diverge at the step size that diverged.
ROLLBACK_LR_CUT = 0.5


class _WatchdogTrip(Exception):
    """Internal: a batch failed the health check before the optimizer
    step was applied; carries the watchdog's reason string."""

    def __init__(self, reason: str, epoch: int) -> None:
        super().__init__(reason)
        self.reason = reason
        self.epoch = epoch


def _ensure_stream_handler() -> None:
    """Attach a plain stdout handler for ``verbose=True`` convenience.

    Users who configure ``logging`` themselves never hit this; it only
    fires when verbose output was requested and the ``repro.trainer``
    logger would otherwise swallow INFO records.
    """
    if logger.handlers or logging.getLogger().handlers:
        return
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)


@dataclass
class TrainConfig:
    """Hyper-parameters shared by both training modes.

    ``target_coverage=1.0`` trains a plain cross-entropy model (the
    paper's full-coverage setup); anything below 1.0 trains the Eq. 9
    selective objective.  Adam runs without weight decay.
    """

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    target_coverage: float = 1.0
    lam: float = 0.5
    alpha: float = 0.5
    penalty_mode: str = "symmetric"
    seed: int = 0
    shuffle: bool = True
    verbose: bool = False
    #: Worker processes for synchronous data-parallel training;
    #: defaults to the usable cores.  Every mini-batch splits into
    #: fixed shards of at most 32 rows (:func:`repro.parallel.shard_bounds`),
    #: and their gradients are summed in shard order whether the shards
    #: run in workers or in-process, so the worker count changes no
    #: result bit.  A pool starts only when the batch size gives at
    #: least two shards; one-shard batches, and everything where
    #: multiprocessing is unavailable, run in-process.
    num_workers: int = field(default_factory=usable_cores)
    #: Respawn budget per lost parallel worker (exponential backoff);
    #: 0 means a dead worker is never replaced and the pool shrinks.
    worker_retries: int = 2
    #: Directory for crash-safe checkpoints, one per epoch; ``None``
    #: disables checkpointing (and with it watchdog rollback and resume).
    checkpoint_dir: Optional[str] = None
    #: Retention bound passed to the checkpoint manager (0 keeps all).
    keep_checkpoints: int = 3
    #: Watchdog bound on the global gradient L2 norm; ``None`` disables
    #: the explosion check (non-finite values always trip).
    grad_norm_limit: Optional[float] = None
    #: Watchdog bound on the batch loss; ``None`` disables it.
    loss_limit: Optional[float] = None
    #: Watchdog rollbacks tolerated before the run fails loudly.
    max_rollbacks: int = 2

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 < self.target_coverage <= 1.0:
            raise ValueError("target_coverage must be in (0, 1]")
        if self.worker_retries < 0:
            raise ValueError("worker_retries must be non-negative")
        if self.keep_checkpoints < 0:
            raise ValueError("keep_checkpoints must be non-negative")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be non-negative")


@dataclass
class EpochStats:
    """Metrics recorded after each epoch.

    ``grad_norm`` is the mean global L2 gradient norm over the epoch's
    batches, the standard divergence / vanishing-gradient telltale in
    run logs.
    """

    epoch: int
    loss: float
    train_accuracy: float
    coverage: float
    selective_risk: float
    seconds: float
    val_accuracy: Optional[float] = None
    grad_norm: Optional[float] = None


@dataclass
class TrainHistory:
    """Accumulated per-epoch statistics."""

    epochs: List[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    @property
    def final(self) -> EpochStats:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1]

    def losses(self) -> List[float]:
        return [e.loss for e in self.epochs]


class Trainer:
    """Trains either a :class:`WaferCNN` or a :class:`SelectiveNet`.

    The objective is inferred from the model type: a plain CNN always
    trains with weighted cross-entropy; a SelectiveNet trains with the
    Eq. 9 objective when ``config.target_coverage < 1`` and with
    cross-entropy on its prediction head at full coverage.  Each batch
    is one :meth:`_step` of the shard protocol followed by the watchdog
    check and one Adam step.
    """

    def __init__(
        self,
        model: nn.Module,
        config: Optional[TrainConfig] = None,
        run_logger: Optional["RunLogger"] = None,
    ) -> None:
        if not isinstance(model, (WaferCNN, SelectiveNet)):
            raise TypeError("Trainer supports WaferCNN and SelectiveNet models")
        self.model = model
        self.config = config if config is not None else TrainConfig()
        self.run_logger = run_logger
        self.optimizer = nn.Adam(model.parameters(), lr=self.config.learning_rate)
        self.history = TrainHistory()
        self._rng = np.random.default_rng(self.config.seed)
        self.watchdog = TrainingWatchdog(
            grad_norm_limit=self.config.grad_norm_limit,
            loss_limit=self.config.loss_limit,
        )
        selective = (
            isinstance(model, SelectiveNet) and self.config.target_coverage < 1.0
        )
        self._objective = ObjectiveSpec(
            kind="selective" if selective else "cross_entropy",
            target_coverage=self.config.target_coverage,
            lam=self.config.lam,
            alpha=self.config.alpha,
            penalty_mode=self.config.penalty_mode,
        )
        self._engine = None
        self._checkpoints = None
        if self.config.checkpoint_dir is not None:
            from ..resilience.checkpoint import CheckpointManager

            self._checkpoints = CheckpointManager(
                self.config.checkpoint_dir, keep=self.config.keep_checkpoints
            )
        from ..obs.metrics import default_registry

        reg = default_registry()
        self._m_rollbacks = reg.counter("train.rollbacks")
        self._m_watchdog = reg.counter("train.watchdog.trips")

    # ------------------------------------------------------------------
    @kept_heap()
    def fit(
        self,
        train: WaferDataset,
        validation: Optional[WaferDataset] = None,
        resume: Optional[str] = None,
    ) -> TrainHistory:
        """Run the configured number of epochs; returns the history.

        Progress goes through the ``repro.trainer`` logger
        (``verbose=True`` attaches a stream handler as a convenience);
        when a :class:`~repro.obs.events.RunLogger` was passed to the
        constructor, the config, every :class:`EpochStats`, and a final
        summary are appended to its JSONL stream.

        ``resume="auto"`` restarts from the newest valid checkpoint in
        ``config.checkpoint_dir`` (a no-op when none exists); a path
        resumes from that specific checkpoint.  Model, optimizer and
        RNG are all restored, so the resumed trajectory matches the
        uninterrupted run exactly.

        The fit runs on a kept heap (:func:`~repro.parallel.pool.kept_heap`):
        it pins glibc's allocator thresholds as it starts, so each
        step's freed arrays stay in the heap for the next step, and
        hands the heap's free pages back to the kernel on every exit
        path.  The pin is process-wide and stays for the rest of the
        process, serving included; workers forked by the fit inherit it.
        """
        if len(train) == 0:
            raise ValueError("cannot train on an empty dataset")
        if self.config.verbose:
            _ensure_stream_handler()
            logger.setLevel(logging.INFO)
        if self.run_logger is not None:
            self.run_logger.log_config(self.config)
        epoch = 1 if resume is None else self._resume(resume) + 1
        batches = BatchIterator(
            train,
            batch_size=self.config.batch_size,
            rng=self._rng,
            shuffle=self.config.shuffle,
        )
        self._engine = self._make_engine()
        started = time.perf_counter()
        rollbacks = 0
        try:
            while epoch <= self.config.epochs:
                self._check_engine_health()
                try:
                    stats = self._run_epoch(epoch, batches)
                except _WatchdogTrip as trip:
                    epoch = self._rollback(trip, rollbacks) + 1
                    rollbacks += 1
                    continue
                if validation is not None:
                    stats.val_accuracy = self._quick_accuracy(validation)
                self.history.append(stats)
                if self.run_logger is not None:
                    self.run_logger.log_epoch(stats)
                val = f" val_acc={stats.val_accuracy:.3f}" if stats.val_accuracy is not None else ""
                logger.info(
                    "epoch %3d loss=%.4f acc=%.3f cov=%.3f grad=%.3f%s",
                    epoch, stats.loss, stats.train_accuracy, stats.coverage,
                    stats.grad_norm, val,
                )
                if self._checkpoints is not None:
                    self._save_checkpoint(epoch)
                epoch += 1
        finally:
            if self._engine is not None:
                self._engine.shutdown()
                self._engine = None
        if self.run_logger is not None and self.history.epochs:
            final = self.history.final
            self.run_logger.log(
                "train_summary",
                epochs_run=len(self.history.epochs),
                wall_seconds=time.perf_counter() - started,
                final_loss=final.loss,
                final_train_accuracy=final.train_accuracy,
                final_coverage=final.coverage,
                final_val_accuracy=final.val_accuracy,
            )
        return self.history

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _resume(self, resume: str) -> int:
        """Restore from a checkpoint; returns its epoch, 0 when none.

        ``"auto"`` picks the newest valid checkpoint (skipping corrupt
        ones) and is a silent no-op on a fresh run; an explicit path
        must validate or the :class:`~repro.resilience.IntegrityError`
        propagates.
        """
        if resume == "auto":
            path = None if self._checkpoints is None else self._checkpoints.latest_valid()
            if path is None:
                return 0
        else:
            if self._checkpoints is None:
                raise ValueError(
                    "resume from a path requires config.checkpoint_dir"
                )
            path = resume
        state = self._checkpoints.load(path, self.model, self.optimizer)
        if state.get("rng_state"):
            self._checkpoints.restore_rng(self._rng, state["rng_state"])
        epoch = int(state["epoch"])
        logger.info("resumed from %s (epoch %d)", path, epoch)
        if self.run_logger is not None:
            self.run_logger.log("resume", path=path, epoch=epoch)
        return epoch

    def _save_checkpoint(self, epoch: int) -> None:
        path = self._checkpoints.save(
            epoch, model=self.model, optimizer=self.optimizer, rng=self._rng
        )
        chaos_point("train.checkpoint.saved", path=path, epoch=epoch)

    def _rollback(self, trip: _WatchdogTrip, rollbacks: int) -> int:
        """Restore the last good checkpoint after a watchdog trip.

        Returns the restored epoch and drops the history after it.
        Cuts the learning rate by :data:`ROLLBACK_LR_CUT` so the
        retried epochs do not immediately re-diverge.  Raises when no
        checkpointing is configured, nothing valid exists, or the
        rollback budget is spent — a run that cannot recover must fail
        loudly rather than train on poisoned weights.
        """
        logger.warning(
            "watchdog tripped at epoch %d: %s", trip.epoch, trip.reason
        )
        if self.run_logger is not None:
            self.run_logger.log(
                "watchdog_trip", epoch=trip.epoch, reason=trip.reason
            )
        record_flight_event(
            "watchdog_rollback", epoch=trip.epoch, reason=trip.reason
        )
        dump_flight("watchdog-rollback")
        if self._checkpoints is None:
            raise RuntimeError(
                f"training diverged ({trip.reason}) and no checkpoint_dir "
                "is configured to roll back to"
            )
        if rollbacks >= self.config.max_rollbacks:
            raise RuntimeError(
                f"training diverged ({trip.reason}) after exhausting "
                f"{self.config.max_rollbacks} rollback(s)"
            )
        path = self._checkpoints.latest_valid()
        if path is None:
            raise RuntimeError(
                f"training diverged ({trip.reason}) with no valid "
                "checkpoint to roll back to"
            )
        state = self._checkpoints.load(path, self.model, self.optimizer)
        if state.get("rng_state"):
            self._checkpoints.restore_rng(self._rng, state["rng_state"])
        self.optimizer.lr *= ROLLBACK_LR_CUT
        self._m_rollbacks.inc()
        epoch = int(state["epoch"])
        logger.warning(
            "rolled back to %s (epoch %d), lr cut to %.3g",
            path, epoch, self.optimizer.lr,
        )
        if self.run_logger is not None:
            self.run_logger.log(
                "rollback", epoch=epoch, lr=float(self.optimizer.lr)
            )
        self.history.epochs = [s for s in self.history.epochs if s.epoch <= epoch]
        return epoch

    def _check_engine_health(self) -> None:
        """Epoch-boundary heartbeat; drops to in-process on pool loss."""
        if self._engine is None:
            return
        try:
            self._engine.health_check()
        except ParallelUnavailable:
            logger.warning(
                "data-parallel pool degraded; continuing this run in-process"
            )
            self._engine = None

    # ------------------------------------------------------------------
    def _make_engine(self):
        """Build the data-parallel engine, or None to train in-process.

        Starts ``min(num_workers, shards per full batch)`` workers, and
        none when that is below two or multiprocessing is unavailable
        here — results are identical either way, only wall-clock
        differs.
        """
        workers = min(
            self.config.num_workers, len(shard_bounds(self.config.batch_size))
        )
        if workers < 2:
            return None
        if not parallel_supported(workers):
            logger.info(
                "parallel execution is unavailable here; training %d-worker "
                "batches in-process", workers,
            )
            return None
        return DataParallelEngine(
            self.model,
            self._objective,
            num_workers=workers,
            max_batch=self.config.batch_size,
            retry=RetryPolicy(
                max_retries=self.config.worker_retries, seed=self.config.seed
            ),
        )

    def _step(
        self, inputs: np.ndarray, labels: np.ndarray, weights: np.ndarray
    ) -> StepStats:
        """Leave one batch's gradient in ``param.grad``.

        A multi-shard batch runs on the pool while one is up; every
        other batch — one shard, no pool, or a pool lost — runs the
        same protocol in this process.
        """
        if self._engine is not None and len(shard_bounds(len(labels))) > 1:
            try:
                return self._engine.train_step(inputs, labels, weights)
            except ParallelUnavailable:
                # The engine never published this batch's gradients, so
                # finishing it in-process keeps the trajectory intact —
                # nothing skipped, nothing double-applied.
                logger.warning(
                    "data-parallel pool lost mid-epoch; "
                    "continuing this run in-process"
                )
                self._engine = None
        return sharded_step(self.model, self._objective, inputs, labels, weights)

    def _run_epoch(self, epoch: int, batches: BatchIterator) -> EpochStats:
        self.model.train()
        started = time.perf_counter()
        tracer = current_tracer()
        epoch_span = (
            tracer.start_span("train.epoch", epoch=epoch)
            if tracer is not None
            else None
        )
        steps = []  # (StepStats, grad norm, rows) per applied batch
        for inputs, labels, weights in batches:
            chaos_point("train.batch", epoch=epoch, inputs=inputs, labels=labels)
            step = self._step(inputs, labels, weights)
            norm = self._grad_norm()
            reason = self.watchdog.check(step.loss, norm)
            if reason is not None:
                # Checked before the optimizer step: poisoned gradients
                # must never touch the weights.
                self._m_watchdog.inc()
                if epoch_span is not None:
                    epoch_span.event("watchdog_trip", reason=reason)
                    tracer.end(epoch_span, status="error")
                raise _WatchdogTrip(reason, epoch)
            self.optimizer.step()
            steps.append((step, norm, len(labels)))

        samples = sum(rows for _, _, rows in steps)
        stats = EpochStats(
            epoch=epoch,
            loss=sum(s.loss * rows for s, _, rows in steps) / max(samples, 1),
            train_accuracy=sum(s.correct for s, _, _ in steps) / max(samples, 1),
            coverage=sum(s.coverage for s, _, _ in steps) / max(len(steps), 1),
            selective_risk=sum(s.selective_risk for s, _, _ in steps) / max(len(steps), 1),
            seconds=time.perf_counter() - started,
            grad_norm=sum(norm for _, norm, _ in steps) / max(len(steps), 1),
        )
        if epoch_span is not None:
            epoch_span.set("batches", len(steps))
            epoch_span.set("samples", samples)
            tracer.end(epoch_span, duration_s=stats.seconds)
        return stats

    def _grad_norm(self) -> float:
        """Global L2 norm over all parameter gradients."""
        total = 0.0
        for param in self.model.parameters():
            if param.grad is not None:
                total += float((param.grad.astype(np.float64) ** 2).sum())
        return float(np.sqrt(total))

    def _quick_accuracy(self, dataset: WaferDataset) -> float:
        """Validation accuracy; the predict calls stream fixed-size
        chunks, so memory does not grow with the set beyond its outputs."""
        if len(dataset) == 0:
            return 0.0
        inputs = dataset.tensors()
        if isinstance(self.model, SelectiveNet):
            probabilities, _ = self.model.predict_batched(inputs)
            predictions = probabilities.argmax(axis=1)
        else:
            predictions = self.model.predict(inputs)
        return int((predictions == dataset.labels).sum()) / len(inputs)
