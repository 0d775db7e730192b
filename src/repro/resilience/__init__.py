"""``repro.resilience`` — fault tolerance for training and serving.

The paper's selective classifier already degrades gracefully at the
*model* level (abstain instead of misclassify, PAPER.md Sec. II); this
package applies the same philosophy to the *system* level — detect the
fault, degrade to a safe path, recover, and surface it through
``repro.obs``:

* :mod:`~repro.resilience.atomic` — crash-safe file writes (tmp +
  fsync + rename) and CRC32 manifests; :class:`IntegrityError` is what
  every loader raises on torn artifacts.
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, bounded
  exponential backoff with seed-derived jitter (worker respawn).
* :mod:`~repro.resilience.checkpoint` — :class:`CheckpointManager`,
  atomic checkpoint directories covering model + optimizer + RNG +
  epoch; ``latest_valid()`` skips corrupt checkpoints on resume.
* :mod:`~repro.resilience.watchdog` — :class:`TrainingWatchdog`,
  NaN/Inf and gradient-explosion tripwire driving checkpoint rollback.
* :mod:`~repro.resilience.chaos` — deterministic fault injection
  (kill-worker, delay-heartbeat, truncate-checkpoint, poison-batch)
  through named fault points; ``python -m repro.resilience.smoke`` is
  the end-to-end chaos gate.

Consumers: ``repro.parallel`` (supervised workers, step retry, serial
fallback), ``repro.core.trainer`` (crash-safe checkpoints, watchdog
rollback, ``fit(resume="auto")``), ``repro.serve`` (input rejection,
checkpoint-verified blue-green model swaps).
"""

from .atomic import (
    IntegrityError,
    atomic_savez,
    atomic_write_bytes,
    atomic_write_text,
    atomic_writer,
    crc32_file,
    verify_manifest,
    write_manifest,
)
from .chaos import ChaosPlan, activate, active_plan, chaos_point, deactivate
from .checkpoint import CheckpointManager, validate_checkpoint
from .retry import RetryPolicy
from .watchdog import TrainingWatchdog

__all__ = [
    "IntegrityError",
    "atomic_writer",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_savez",
    "crc32_file",
    "write_manifest",
    "verify_manifest",
    "RetryPolicy",
    "TrainingWatchdog",
    "CheckpointManager",
    "validate_checkpoint",
    "ChaosPlan",
    "chaos_point",
    "activate",
    "deactivate",
    "active_plan",
]
