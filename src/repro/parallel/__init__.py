"""``repro.parallel`` — multiprocessing training & augmentation engine.

Three layers:

* :mod:`~repro.parallel.shm` — one shared-memory segment holding named
  ndarray views (:class:`ShmArena`), the pickle-free transport for
  parameters, batches, and gradients.
* :mod:`~repro.parallel.pool` — :class:`WorkerPool` processes driven
  over pipes with BLAS threadpools pinned, plus the generic
  order-preserving :func:`parallel_map`.
* :mod:`~repro.parallel.engine` — :class:`DataParallelEngine`,
  synchronous data-parallel SGD over fixed :data:`SHARD_ROWS`-row
  shards whose two-phase partial-sum protocol keeps the nonlinear
  SelectiveNet objective gradient-exact.

Everything degrades gracefully: when ``num_workers <= 1`` or the
platform lacks ``multiprocessing.shared_memory``
(:func:`parallel_supported` is the single gate), callers fall back to
the in-process path (:func:`sharded_step`, :func:`parallel_map`'s
loop) with bit-identical results.

Supervision (see :mod:`repro.resilience`): worker crashes surface as
:class:`WorkerCrashed`, the engine heartbeats / respawns workers and
re-shards in-flight batches, and :class:`ParallelUnavailable` tells
callers the pool degraded below usefulness — fall back to serial.

Telemetry stays in the parent: its registry counts worker deaths,
restarts, respawns and retried steps and holds the ``parallel.shm.*``
gauges.  Workers keep no registry; their per-shard forward and
backward time reaches the parent only as ``parallel.shard`` /
``parallel.shard.backward`` trace spans.
"""

from .engine import (
    SHARD_ROWS,
    DataParallelEngine,
    ObjectiveSpec,
    ParallelUnavailable,
    StepStats,
    shard_bounds,
    sharded_step,
)
from .pool import (
    BLAS_ENV_VARS,
    WorkerCrashed,
    WorkerPool,
    blas_single_thread,
    parallel_map,
    parallel_supported,
    pin_blas_threads,
    usable_cores,
    worker_blas,
)
from .shm import HAVE_SHARED_MEMORY, ArraySpec, ShmArena, reclaim_segment

__all__ = [
    "ArraySpec",
    "ShmArena",
    "HAVE_SHARED_MEMORY",
    "reclaim_segment",
    "WorkerPool",
    "WorkerCrashed",
    "parallel_map",
    "parallel_supported",
    "pin_blas_threads",
    "usable_cores",
    "blas_single_thread",
    "worker_blas",
    "BLAS_ENV_VARS",
    "SHARD_ROWS",
    "shard_bounds",
    "sharded_step",
    "DataParallelEngine",
    "ObjectiveSpec",
    "StepStats",
    "ParallelUnavailable",
]
