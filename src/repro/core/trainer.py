"""Training loops for the full-coverage CNN and the SelectiveNet.

The paper trains with Adam for 100 epochs, lambda = alpha = 0.5; the
:class:`TrainConfig` defaults mirror that, with batch size and epochs
scaled to what the numpy substrate can run in reasonable time.

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
  the *same batch* — and the rest of the run — in-process through
  :func:`~repro.parallel.sharded_step`, so no step is skipped or
  double-applied and the trajectory does not change by a bit.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from .. import nn
from ..data.dataset import BatchIterator, WaferDataset
from ..obs.flight import dump_flight, record_flight_event
from ..obs.trace import current_tracer
from ..parallel.engine import (
    DataParallelEngine,
    ObjectiveSpec,
    ParallelUnavailable,
    shard_bounds,
    sharded_step,
)
from ..parallel.pool import parallel_supported, usable_cores
from ..resilience.chaos import chaos_point
from ..resilience.retry import RetryPolicy
from ..resilience.watchdog import TrainingWatchdog
from .cnn import WaferCNN
from .losses import selectivenet_objective
from .selective import SelectiveNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports core)
    from ..obs.events import RunLogger

__all__ = ["TrainConfig", "EpochStats", "TrainHistory", "Trainer"]

logger = logging.getLogger("repro.trainer")


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
    selective objective.
    """

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    target_coverage: float = 1.0
    lam: float = 0.5
    alpha: float = 0.5
    weight_decay: float = 0.0
    penalty_mode: str = "symmetric"
    grad_clip: Optional[float] = None
    early_stopping_patience: Optional[int] = None
    seed: int = 0
    shuffle: bool = True
    verbose: bool = False
    #: Worker processes for synchronous data-parallel training;
    #: defaults to the usable cores.  Every mini-batch splits into
    #: fixed shards of at most 32 rows (:func:`repro.parallel.shard_bounds`),
    #: and their gradients are summed in shard order whether the shards
    #: run in workers or in-process, so the worker count changes no
    #: result bit (for models that draw no random numbers in forward,
    #: i.e. without dropout).  A pool starts only when the batch size
    #: gives at least two shards; one-shard batches, and everything
    #: where multiprocessing is unavailable, run in-process.
    num_workers: int = field(default_factory=usable_cores)
    #: Respawn budget per lost parallel worker (exponential backoff);
    #: 0 means a dead worker is never replaced and the pool shrinks.
    worker_retries: int = 2
    #: Directory for crash-safe checkpoints; ``None`` disables
    #: checkpointing (and with it watchdog rollback and resume).
    checkpoint_dir: Optional[str] = None
    #: Epochs between checkpoints (the final epoch is always saved).
    checkpoint_every: int = 1
    #: Retention bound passed to the checkpoint manager (0 keeps all).
    keep_checkpoints: int = 3
    #: Watchdog bound on the pre-clip global gradient L2 norm; ``None``
    #: disables the explosion check (non-finite values always trip).
    grad_norm_limit: Optional[float] = None
    #: Watchdog bound on the batch loss; ``None`` disables it.
    loss_limit: Optional[float] = None
    #: Learning-rate multiplier applied on each watchdog rollback.
    rollback_lr_cut: float = 0.5
    #: Watchdog rollbacks tolerated before the run fails loudly.
    max_rollbacks: int = 2

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 < self.target_coverage <= 1.0:
            raise ValueError("target_coverage must be in (0, 1]")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")
        if self.early_stopping_patience is not None and self.early_stopping_patience <= 0:
            raise ValueError("early_stopping_patience must be positive when set")
        if self.worker_retries < 0:
            raise ValueError("worker_retries must be non-negative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.keep_checkpoints < 0:
            raise ValueError("keep_checkpoints must be non-negative")
        if not 0.0 < self.rollback_lr_cut <= 1.0:
            raise ValueError("rollback_lr_cut must be in (0, 1]")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be non-negative")


@dataclass
class EpochStats:
    """Metrics recorded after each epoch.

    ``grad_norm`` is the mean global L2 gradient norm over the epoch's
    batches (measured before clipping), the standard divergence /
    vanishing-gradient telltale in run logs.
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

    The mode is inferred from the model type: a plain CNN always trains
    with weighted cross-entropy; a SelectiveNet trains with the Eq. 9
    objective when ``config.target_coverage < 1`` and degenerates to
    cross-entropy (alpha effectively 0) at full coverage.
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
        self.optimizer = nn.Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainHistory()
        self._rng = np.random.default_rng(self.config.seed)
        self.watchdog = TrainingWatchdog(
            grad_norm_limit=self.config.grad_norm_limit,
            loss_limit=self.config.loss_limit,
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
    def fit(
        self,
        train: WaferDataset,
        validation: Optional[WaferDataset] = None,
        callback: Optional[Callable[[EpochStats], None]] = None,
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
        resumes from that specific checkpoint.  Model, optimizer, RNG,
        and early-stopping bookkeeping are all restored, so the
        resumed trajectory matches the uninterrupted run exactly.
        """
        if len(train) == 0:
            raise ValueError("cannot train on an empty dataset")
        if self.config.verbose:
            _ensure_stream_handler()
            logger.setLevel(logging.INFO)
        if self.run_logger is not None:
            self.run_logger.log_config(self.config)
        start_epoch = 1
        best_val = -np.inf
        epochs_without_improvement = 0
        if resume is not None:
            state = self._resume(resume)
            if state is not None:
                start_epoch = int(state["epoch"]) + 1
                extra = state.get("extra") or {}
                saved_best = extra.get("best_val")
                best_val = -np.inf if saved_best is None else float(saved_best)
                epochs_without_improvement = int(
                    extra.get("epochs_without_improvement", 0)
                )
        batches = BatchIterator(
            train,
            batch_size=self.config.batch_size,
            rng=self._rng,
            shuffle=self.config.shuffle,
        )
        self._engine = self._make_engine()
        started = time.perf_counter()
        rollbacks = 0
        stop = False
        try:
            epoch = start_epoch
            while epoch <= self.config.epochs and not stop:
                self._check_engine_health()
                try:
                    stats = self._run_epoch(epoch, batches)
                except _WatchdogTrip as trip:
                    state = self._rollback(trip, rollbacks)
                    rollbacks += 1
                    epoch = int(state["epoch"]) + 1
                    extra = state.get("extra") or {}
                    saved_best = extra.get("best_val")
                    best_val = -np.inf if saved_best is None else float(saved_best)
                    epochs_without_improvement = int(
                        extra.get("epochs_without_improvement", 0)
                    )
                    self.history.epochs = [
                        s for s in self.history.epochs
                        if s.epoch <= int(state["epoch"])
                    ]
                    continue
                if validation is not None:
                    stats.val_accuracy = self._quick_accuracy(validation)
                self.history.append(stats)
                if callback is not None:
                    callback(stats)
                if self.run_logger is not None:
                    self.run_logger.log_epoch(stats)
                val = f" val_acc={stats.val_accuracy:.3f}" if stats.val_accuracy is not None else ""
                logger.info(
                    "epoch %3d loss=%.4f acc=%.3f cov=%.3f grad=%.3f%s",
                    epoch, stats.loss, stats.train_accuracy, stats.coverage,
                    stats.grad_norm if stats.grad_norm is not None else 0.0, val,
                )
                patience = self.config.early_stopping_patience
                if patience is not None and stats.val_accuracy is not None:
                    if stats.val_accuracy > best_val + 1e-9:
                        best_val = stats.val_accuracy
                        epochs_without_improvement = 0
                    else:
                        epochs_without_improvement += 1
                        if epochs_without_improvement >= patience:
                            logger.info("early stop at epoch %d", epoch)
                            if self.run_logger is not None:
                                self.run_logger.log("early_stop", epoch=epoch)
                            stop = True
                if self._checkpoints is not None and (
                    epoch % self.config.checkpoint_every == 0
                    or epoch == self.config.epochs
                    or stop
                ):
                    self._save_checkpoint(
                        epoch, best_val, epochs_without_improvement
                    )
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
    def _resume(self, resume: str) -> Optional[Dict[str, Any]]:
        """Restore from a checkpoint; returns its state or ``None``.

        ``"auto"`` picks the newest valid checkpoint (skipping corrupt
        ones) and is a silent no-op on a fresh run; an explicit path
        must validate or the :class:`~repro.resilience.IntegrityError`
        propagates.
        """
        if resume == "auto":
            if self._checkpoints is None:
                return None
            path = self._checkpoints.latest_valid()
            if path is None:
                return None
        else:
            if self._checkpoints is None:
                raise ValueError(
                    "resume from a path requires config.checkpoint_dir"
                )
            path = resume
        state = self._checkpoints.load(path, self.model, self.optimizer)
        if state.get("rng_state"):
            self._checkpoints.restore_rng(self._rng, state["rng_state"])
        logger.info("resumed from %s (epoch %d)", path, state["epoch"])
        if self.run_logger is not None:
            self.run_logger.log("resume", path=path, epoch=int(state["epoch"]))
        return state

    def _save_checkpoint(
        self, epoch: int, best_val: float, epochs_without_improvement: int
    ) -> None:
        path = self._checkpoints.save(
            epoch,
            model=self.model,
            optimizer=self.optimizer,
            rng=self._rng,
            extra={
                "best_val": float(best_val) if np.isfinite(best_val) else None,
                "epochs_without_improvement": int(epochs_without_improvement),
            },
        )
        chaos_point("train.checkpoint.saved", path=path, epoch=epoch)

    def _rollback(self, trip: _WatchdogTrip, rollbacks: int) -> Dict[str, Any]:
        """Restore the last good checkpoint after a watchdog trip.

        Cuts the learning rate by ``config.rollback_lr_cut`` so the
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
        self.optimizer.lr *= self.config.rollback_lr_cut
        self._m_rollbacks.inc()
        logger.warning(
            "rolled back to %s (epoch %d), lr cut to %.3g",
            path, state["epoch"], self.optimizer.lr,
        )
        if self.run_logger is not None:
            self.run_logger.log(
                "rollback",
                epoch=int(state["epoch"]),
                lr=float(self.optimizer.lr),
            )
        return state

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
    def _selective_mode(self) -> bool:
        return isinstance(self.model, SelectiveNet) and self.config.target_coverage < 1.0

    def _objective(self) -> ObjectiveSpec:
        return ObjectiveSpec(
            kind="selective" if self._selective_mode() else "cross_entropy",
            target_coverage=self.config.target_coverage,
            lam=self.config.lam,
            alpha=self.config.alpha,
            penalty_mode=self.config.penalty_mode,
        )

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
            self._objective(),
            num_workers=workers,
            max_batch=self.config.batch_size,
            retry=RetryPolicy(
                max_retries=self.config.worker_retries, seed=self.config.seed
            ),
        )

    def _run_epoch(self, epoch: int, batches: BatchIterator) -> EpochStats:
        self.model.train()
        started = time.perf_counter()
        tracer = current_tracer()
        epoch_span = (
            tracer.start_span("train.epoch", epoch=epoch)
            if tracer is not None
            else None
        )
        total_loss = 0.0
        total_correct = 0
        total_samples = 0
        coverage_sum = 0.0
        risk_sum = 0.0
        grad_norm_sum = 0.0
        batch_count = 0

        selective = self._selective_mode()
        objective = self._objective()

        with nn.train_scratch():
            for inputs, labels, weights in batches:
                chaos_point(
                    "train.batch", epoch=epoch, inputs=inputs, labels=labels
                )
                step = None
                # A one-shard batch runs the objective below in this
                # process, whatever the worker count.
                sharded = len(shard_bounds(len(labels))) > 1
                if sharded and self._engine is not None:
                    try:
                        step = self._engine.train_step(inputs, labels, weights)
                    except ParallelUnavailable:
                        # The engine never published this batch's
                        # gradients, so finishing it in-process keeps
                        # the trajectory intact — nothing skipped,
                        # nothing double-applied.
                        logger.warning(
                            "data-parallel pool lost mid-epoch; "
                            "continuing this run in-process"
                        )
                        self._engine = None
                if sharded and step is None:
                    step = sharded_step(self.model, objective, inputs, labels, weights)
                if step is not None:
                    loss_value = step.loss
                    correct = step.correct
                    coverage_sum += step.coverage
                    risk_sum += step.selective_risk
                elif selective:
                    tensor = nn.Tensor(inputs)
                    logits, selection = self.model(tensor)
                    terms = selectivenet_objective(
                        logits,
                        selection,
                        labels,
                        target_coverage=self.config.target_coverage,
                        lam=self.config.lam,
                        alpha=self.config.alpha,
                        sample_weights=weights,
                        penalty_mode=self.config.penalty_mode,
                    )
                    self.optimizer.zero_grad(set_to_none=False)
                    terms.total.backward()
                    loss_value = float(terms.total.data)
                    correct = int((logits.data.argmax(axis=1) == labels).sum())
                    coverage_sum += terms.coverage
                    risk_sum += terms.selective_risk
                else:
                    tensor = nn.Tensor(inputs)
                    outputs = self.model(tensor)
                    logits = outputs[0] if isinstance(outputs, tuple) else outputs
                    loss = nn.cross_entropy(logits, labels, sample_weights=weights)
                    self.optimizer.zero_grad(set_to_none=False)
                    loss.backward()
                    loss_value = float(loss.data)
                    correct = int((logits.data.argmax(axis=1) == labels).sum())
                    coverage_sum += 1.0
                    risk_sum += loss_value

                norm = self._grad_norm()
                reason = self.watchdog.check(loss_value, norm)
                if reason is not None:
                    # Checked before the optimizer step: poisoned
                    # gradients must never touch the weights.
                    self._m_watchdog.inc()
                    if epoch_span is not None:
                        epoch_span.event("watchdog_trip", reason=reason)
                        tracer.end(epoch_span, status="error")
                    raise _WatchdogTrip(reason, epoch)
                grad_norm_sum += norm
                if self.config.grad_clip is not None:
                    self._clip_gradients(self.config.grad_clip, norm=norm)
                self.optimizer.step()

                total_loss += loss_value * len(labels)
                total_correct += correct
                total_samples += len(labels)
                batch_count += 1

        stats = EpochStats(
            epoch=epoch,
            loss=total_loss / max(total_samples, 1),
            train_accuracy=total_correct / max(total_samples, 1),
            coverage=coverage_sum / max(batch_count, 1),
            selective_risk=risk_sum / max(batch_count, 1),
            seconds=time.perf_counter() - started,
            grad_norm=grad_norm_sum / max(batch_count, 1),
        )
        if epoch_span is not None:
            epoch_span.set("batches", batch_count)
            epoch_span.set("samples", total_samples)
            tracer.end(epoch_span, duration_s=stats.seconds)
        return stats

    def _grad_norm(self) -> float:
        """Global L2 norm over all parameter gradients."""
        total = 0.0
        for param in self.model.parameters():
            if param.grad is not None:
                total += float((param.grad.astype(np.float64) ** 2).sum())
        return float(np.sqrt(total))

    def _clip_gradients(self, max_norm: float, norm: Optional[float] = None) -> None:
        """Scale all gradients so their global L2 norm is <= max_norm."""
        if norm is None:
            norm = self._grad_norm()
        if norm > max_norm:
            scale = max_norm / (norm + 1e-12)
            for param in self.model.parameters():
                if param.grad is not None:
                    param.grad *= scale

    def _quick_accuracy(self, dataset: WaferDataset, chunk: int = 512) -> float:
        """Validation accuracy, streamed in fixed-size chunks.

        Chunking bounds peak memory on large validation sets: only one
        ``chunk``-sized slice of predictions is materialized at a time.
        """
        if len(dataset) == 0:
            return 0.0
        inputs = dataset.tensors()
        labels = dataset.labels
        correct = 0
        for start in range(0, len(inputs), chunk):
            stop = min(start + chunk, len(inputs))
            piece = inputs[start:stop]
            if isinstance(self.model, SelectiveNet):
                probabilities, _ = self.model.predict_batched(piece)
                predictions = probabilities.argmax(axis=1)
            else:
                predictions = self.model.predict(piece)
            correct += int((predictions == labels[start:stop]).sum())
        return correct / len(inputs)
