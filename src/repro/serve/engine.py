"""The serving engine: micro-batcher + cache + backend + telemetry.

:class:`ServeEngine` is the high-throughput front end to
``SelectiveNet.predict_selective`` / ``WaferCNN.predict_proba`` for the
paper's deployment story (Sec. I, Fig. 1): a fab classifying a
continuous stream of wafer maps, accepting confident predictions and
routing abstentions (``label == ABSTAIN``) to human review.

Request lifecycle::

    submit(grid) / classify_many(grids)
      ├─ cache hit  ──────────────────────────────► completed future
      └─ cache miss ─► MicroBatcher (work-conserving)
                          └─► runner thread (one in-process lane)
                                └─► backend.infer(batch)  ─► futures

Dispatch is work-conserving: the runner takes everything pending, up
to ``max_batch_size``, at once, so a request never waits for a batch
to fill, and batches grow by themselves when requests queue behind a
busy forward.  Every model generation is compiled for ``max_batch_size``
wafers before it serves — at construction, and inside
:meth:`ServeEngine.swap_model` before the commit — so a request never
waits on a compile either.  The engine records queue depth, cache hit
counters, per-request latency and per-batch size/compute/total
histograms into a :class:`repro.obs.MetricsRegistry`, per-batch spans
into the armed :class:`repro.obs.Tracer` (if any), and releases the
compiled-graph arenas after ``idle_reclaim_s`` of silence so memory is
reclaimed between traffic bursts.

A backend failure fails only the batch it struck: the runner fails
those futures with the backend's error and keeps serving.
"""

from __future__ import annotations

import copy
import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.selective import ABSTAIN
from ..data.wafer import grid_to_tensor
from ..nn import functional as F
from ..obs.flight import record_flight_event
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.trace import current_tracer
from ..resilience.chaos import chaos_point
from ..resilience.checkpoint import IntegrityError, validate_checkpoint
from .backend import make_backend
from .batcher import FLUSH_REASONS, MicroBatcher, Overloaded
from .cache import ResultCache

__all__ = [
    "ServeConfig",
    "ServeResult",
    "PendingResult",
    "ServeEngine",
    "SwapFailed",
    "SwapReport",
    "Overloaded",
    "InvalidInput",
]

logger = logging.getLogger("repro.serve")

#: Seconds :meth:`ServeEngine.close` waits for the runner to drain.
RUNNER_JOIN_S = 120.0


class InvalidInput(ValueError):
    """The submitted wafer grid is unservable (e.g. NaN/Inf cells).

    Rejected at the front door, before cache-key hashing: a poisoned
    grid must never produce a cached (or any) prediction.  Counted in
    ``serve.rejected_total``.
    """


class SwapFailed(RuntimeError):
    """:meth:`ServeEngine.swap_model` aborted before the commit point.

    The engine is untouched: the previous generation keeps serving,
    its cache entries stay valid, and any half-built candidate backend
    has been torn down.  Counted in ``serve.swap_failures_total``.
    """


@dataclass
class SwapReport:
    """Outcome of a committed :meth:`ServeEngine.swap_model`."""

    #: Generation serving after the swap (monotonically increasing).
    generation: int
    #: Checkpoint directory the new weights were loaded from.
    checkpoint: str
    #: Epoch recorded in the checkpoint's ``state.json``.
    epoch: int
    #: Whether every old-generation batch finished before the old
    #: backend was closed (False only on drain timeout).
    drained: bool


@dataclass
class ServeConfig:
    """Knobs of the serving engine.

    Attributes
    ----------
    max_batch_size:
        Largest batch the runner takes at once; also the batch capacity
        each model generation is compiled for before it serves.
    queue_limit:
        Pending-queue bound; beyond it :meth:`ServeEngine.submit` sheds
        with :class:`Overloaded` instead of queueing without limit.
    cache_bytes:
        Byte budget of the content-hash result cache; ``0`` disables
        caching.
    threshold:
        Override of the model's acceptance threshold ``tau`` (selection
        logit); ``None`` uses ``model.threshold``.
    idle_reclaim_s:
        Idle seconds after which compiled arenas are released and memory
        gauges refreshed.
    """

    max_batch_size: int = 64
    queue_limit: int = 1024
    cache_bytes: int = 8 * 1024 * 1024
    threshold: Optional[float] = None
    idle_reclaim_s: float = 1.0


@dataclass
class ServeResult:
    """One served classification.

    ``label`` is :data:`~repro.core.selective.ABSTAIN` (-1) when the
    selection head rejected the wafer (route to human review);
    ``raw_label`` always carries the prediction head's argmax.
    """

    label: int
    raw_label: int
    selection_score: float
    accepted: bool
    probabilities: np.ndarray
    cached: bool = False
    latency_s: float = 0.0
    #: Model generation that produced this result (1 = the model the
    #: engine was constructed with; incremented by each committed
    #: :meth:`ServeEngine.swap_model`).  Cache hits carry the current
    #: generation — the cache is invalidated at every swap commit, so
    #: a cached entry is always the serving generation's output.
    generation: int = 1


class PendingResult:
    """Write-once future for one submitted request."""

    __slots__ = ("_event", "_result", "_error", "_callbacks", "_lock")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Optional[ServeResult] = None
        self._error: Optional[BaseException] = None
        self._callbacks: List = []
        self._lock = threading.Lock()

    def _set(self, result: ServeResult) -> None:
        self._result = result
        self._complete()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._complete()

    def _complete(self) -> None:
        with self._lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, callback) -> None:
        """Run ``callback(self)`` on completion (immediately if done).

        Callbacks fire on the completing thread (the serve runner) —
        asyncio callers must trampoline via ``call_soon_threadsafe``.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """Block for the result; raises the backend's error on failure."""
        if not self._event.wait(timeout):
            raise TimeoutError("request not completed within timeout")
        if self._error is not None:
            raise self._error
        return self._result


class _Generation:
    """One immutable serving generation: model + backend + threshold.

    The engine holds exactly one *current* generation pointer; a swap
    builds a complete sibling (blue-green) and flips the pointer under
    the generation condition.  ``active`` counts leases — batches in
    flight against this generation's backend — so the swap can drain
    the old generation before closing it.
    """

    __slots__ = ("gen_id", "model", "backend", "threshold", "active")

    def __init__(self, gen_id, model, backend, threshold):
        self.gen_id = gen_id
        self.model = model
        self.backend = backend
        self.threshold = threshold
        self.active = 0


class _Request:
    __slots__ = ("tensor", "key", "submitted_at", "future", "trace")

    def __init__(self, tensor, key, submitted_at, future, trace=None) -> None:
        self.tensor = tensor
        self.key = key
        self.submitted_at = submitted_at
        self.future = future
        # Root span of this request's trace; None while disarmed.
        self.trace = trace


class ServeEngine:
    """Batched, cached inference front end on one in-process lane.

    Parameters
    ----------
    model:
        A :class:`~repro.core.selective.SelectiveNet` (selective
        serving) or :class:`~repro.core.cnn.WaferCNN` (full coverage —
        every request accepted).  The input geometry and class count
        are read off the model.
    config:
        :class:`ServeConfig`; defaults are sensible for the Table-I
        model.
    registry:
        Metrics sink; defaults to the process-global registry.
    backend:
        Injectable backend (tests); must expose ``infer(lane, inputs)``
        (called with ``lane=0``), ``reclaim()`` and ``close()``.  When
        given, ``model`` may be ``None`` and ``input_hw`` /
        ``num_classes`` describe the expected traffic.
    """

    def __init__(
        self,
        model=None,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        backend=None,
        input_hw: Optional[Tuple[int, int]] = None,
        num_classes: Optional[int] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self._registry = registry if registry is not None else default_registry()
        if model is not None:
            size = model.config.input_size
            input_hw = (size, size) if input_hw is None else input_hw
            num_classes = model.num_classes if num_classes is None else num_classes
        elif backend is None:
            raise ValueError("either a model or a backend is required")
        self._input_hw = input_hw
        self._num_classes = num_classes
        tau = self.config.threshold
        if tau is None:
            tau = float(getattr(model, "threshold", 0.0))

        initial_backend = (
            backend if backend is not None else self._build_backend(model)
        )
        # An injected backend cannot be rebuilt, so swap_model() is
        # unavailable for it (there is no model to clone either).
        self._swappable = backend is None and model is not None
        self.cache: Optional[ResultCache] = None
        if self.config.cache_bytes > 0:
            self.cache = ResultCache(max_bytes=self.config.cache_bytes)
        self._batcher = MicroBatcher(
            max_batch_size=self.config.max_batch_size,
            queue_limit=self.config.queue_limit,
        )

        # Telemetry instruments (get-or-create; shared registries fine).
        reg = self._registry
        self._requests = reg.counter("serve.requests_total")
        self._shed = reg.counter("serve.shed_total")
        self._errors = reg.counter("serve.errors_total")
        self._batches = reg.counter("serve.batches_total")
        self._cache_hits = reg.counter("serve.cache.hits")
        self._cache_misses = reg.counter("serve.cache.misses")
        self._queue_depth = reg.gauge("serve.queue_depth")
        self._cache_bytes_gauge = reg.gauge("serve.cache.nbytes")
        self._latency = reg.histogram("serve.latency_s")
        self._batch_size_hist = reg.histogram("serve.batch.size")
        self._batch_compute = reg.histogram("serve.batch.compute_s")
        self._batch_total = reg.histogram("serve.batch.total_s")
        self._rejected = reg.counter("serve.rejected_total")
        self._accepted_total = reg.counter("serve.accepted_total")
        self._abstained_total = reg.counter("serve.abstained_total")
        self._swaps = reg.counter("serve.swaps_total")
        self._swap_failures = reg.counter("serve.swap_failures_total")
        self._generation_gauge = reg.gauge("serve.generation")
        self._flush_counters = {
            reason: reg.counter(f"serve.batch.flush.{reason}")
            for reason in FLUSH_REASONS
        }

        # The current serving generation.  Swaps build a sibling and
        # flip this pointer under _gen_cond (which also tracks batch
        # leases for draining the outgoing generation).
        self._gen_cond = threading.Condition()
        self._swap_lock = threading.Lock()
        self._generation = _Generation(
            gen_id=1, model=model, backend=initial_backend, threshold=float(tau),
        )
        self._generation_gauge.set(1)

        self._reclaimed = True  # nothing to free before the first batch
        self._closed = False
        self._runner = threading.Thread(
            target=self._run, daemon=True, name="serve-runner"
        )
        self._runner.start()

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """Acceptance threshold of the *current* generation."""
        return self._generation.threshold

    @property
    def generation(self) -> int:
        """Identifier of the serving generation (starts at 1)."""
        return self._generation.gen_id

    @property
    def _backend(self):
        """The current generation's backend (tests/ops poke at this)."""
        return self._generation.backend

    def _build_backend(self, model):
        return make_backend(model, self.config.max_batch_size, self._input_hw)

    def _lease(self) -> _Generation:
        """Pin the current generation for one batch."""
        with self._gen_cond:
            gen = self._generation
            gen.active += 1
            return gen

    def _release(self, gen: _Generation) -> None:
        with self._gen_cond:
            gen.active -= 1
            self._gen_cond.notify_all()

    def swap_model(
        self,
        checkpoint: str,
        threshold: Optional[float] = None,
        drain_timeout_s: float = 30.0,
    ) -> SwapReport:
        """Atomically replace the serving model from a checkpoint dir.

        Blue-green sequence, each stage a chaos fault point:

        1. ``serve.swap.verify`` — CRC-verify the checkpoint manifest
           and ``state.json`` (:func:`~repro.resilience.checkpoint.
           validate_checkpoint`) *before* anything is built.
        2. ``serve.swap.load`` — clone the current model and load the
           candidate weights into the clone (the serving model is
           never mutated).
        3. ``serve.swap.build`` — build a complete sibling backend,
           which compiles the candidate for ``max_batch_size`` wafers,
           and probe it live with a zero wafer.  The first request
           after the commit compiles nothing.
        4. ``serve.swap.commit`` — flip the generation pointer.  The
           flip is one reference assignment: every request either ran
           entirely on the old generation or runs entirely on the new
           one, and ``ServeResult.generation`` says which.

        After the flip the result cache is invalidated (old-generation
        outputs must not be served as new-generation answers), the old
        generation is drained (in-flight batches finish on the weights
        they started with), and its backend is closed.

        A failure — or an injected crash — at any point *before* the
        commit leaves the old generation serving, untouched; the
        half-built candidate is torn down and :class:`SwapFailed`
        raised.  ``threshold`` overrides the acceptance threshold for
        the new generation (default: keep the current one).
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if not self._swappable:
            raise SwapFailed(
                "engine was built on an injected backend (or without a "
                "model); there is nothing to rebuild for a swap"
            )
        with self._swap_lock:
            current = self._generation
            next_id = current.gen_id + 1
            checkpoint = os.fspath(checkpoint)
            try:
                chaos_point("serve.swap.verify", path=checkpoint, generation=next_id)
                try:
                    state = validate_checkpoint(checkpoint)
                except IntegrityError as exc:
                    raise SwapFailed(
                        f"checkpoint {checkpoint} failed verification: {exc}"
                    ) from exc

                chaos_point("serve.swap.load", path=checkpoint, generation=next_id)
                from ..nn.serialization import load_model

                candidate = copy.deepcopy(current.model)
                try:
                    load_model(candidate, os.path.join(checkpoint, "model.npz"))
                except (IntegrityError, FileNotFoundError, ValueError, KeyError) as exc:
                    raise SwapFailed(
                        f"checkpoint {checkpoint} weights unloadable: {exc}"
                    ) from exc

                chaos_point("serve.swap.build", path=checkpoint, generation=next_id)
                backend = self._build_backend(candidate)
                try:
                    if self._input_hw is not None:
                        h, w = self._input_hw
                        # The runner cannot reach the candidate until the
                        # flip, so probing from this thread is safe; a
                        # broken candidate surfaces here, not post-commit.
                        backend.infer(0, np.zeros((1, 1, h, w), dtype=np.float32))
                except BaseException:
                    backend.close()
                    raise
                new_gen = _Generation(
                    gen_id=next_id,
                    model=candidate,
                    backend=backend,
                    threshold=current.threshold if threshold is None
                    else float(threshold),
                )

                chaos_point("serve.swap.commit", path=checkpoint, generation=next_id)
            except BaseException as exc:
                self._swap_failures.inc()
                record_flight_event(
                    "model_swap_failed", checkpoint=checkpoint,
                    generation=next_id, error=repr(exc),
                )
                if isinstance(exc, SwapFailed):
                    raise
                raise SwapFailed(f"swap aborted: {exc!r}") from exc

            # -- commit: one pointer flip -------------------------------
            with self._gen_cond:
                self._generation = new_gen
            if self.cache is not None:
                self.cache.clear()
                self._cache_bytes_gauge.set(self.cache.nbytes)
            self._swaps.inc()
            self._generation_gauge.set(next_id)
            record_flight_event(
                "model_swap", checkpoint=checkpoint, generation=next_id,
                epoch=int(state.get("epoch", -1)),
            )
            logger.info(
                "model swap committed: generation %d from %s", next_id, checkpoint
            )

            # -- drain: in-flight work finishes on the old generation ---
            deadline = time.monotonic() + drain_timeout_s
            drained = True
            with self._gen_cond:
                while current.active > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        drained = False
                        break
                    self._gen_cond.wait(remaining)
            if not drained:
                logger.warning(
                    "generation %d still had %d active lease(s) after "
                    "%.1fs drain; closing its backend anyway",
                    current.gen_id, current.active, drain_timeout_s,
                )
            current.backend.close()
            return SwapReport(
                generation=next_id,
                checkpoint=checkpoint,
                epoch=int(state.get("epoch", -1)),
                drained=drained,
            )

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, grid: np.ndarray, parent=None) -> PendingResult:
        """Enqueue one die grid; returns a :class:`PendingResult`.

        Cache hits complete immediately.  Raises :class:`Overloaded`
        (after counting the shed) when the pending queue is full, and
        :class:`InvalidInput` for grids carrying NaN/Inf cells —
        rejected before hashing, so a poisoned wafer never reaches the
        cache or the model.

        ``parent`` is an optional :class:`~repro.obs.trace.TraceContext`
        — when the gateway (or any other front door) already opened a
        request span, the engine's ``serve.request`` span joins that
        trace instead of rooting a fresh one, so one trace covers
        socket-read → admission → enqueue → batch → respond.
        """
        return self._submit((grid,), parent)[0]

    def _submit(self, grids: Sequence[np.ndarray], parent=None) -> List[PendingResult]:
        """Validate, look up and enqueue ``grids`` as one unit.

        Every grid is validated before anything is enqueued, and the
        cache misses enter the batcher together, all or nothing.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        started = time.monotonic()
        grids = [np.asarray(grid) for grid in grids]
        for grid in grids:
            self._validate(grid)
        self._requests.inc(len(grids))
        # THE disarmed fast path: one global read.  Everything tracing
        # costs beyond this probe only runs when a tracer is armed.
        tracer = current_tracer()
        futures: List[PendingResult] = []
        queued: List[_Request] = []
        for grid in grids:
            root = (
                tracer.start_span("serve.request", parent=parent, shape=grid.shape)
                if tracer is not None else None
            )
            key = None
            if self.cache is not None:
                key = self.cache.key(grid)
                entry = self.cache.get(key)
                if entry is not None:
                    self._cache_hits.inc()
                    future = PendingResult()
                    latency = time.monotonic() - started
                    future._set(self._finish(
                        entry.probabilities, entry.score,
                        cached=True, latency_s=latency, gen=self._generation,
                    ))
                    self._latency.observe(time.monotonic() - started)
                    if root is not None:
                        root.set("cache", "hit")
                        tracer.end(root, duration_s=latency)
                    futures.append(future)
                    continue
                self._cache_misses.inc()
                if root is not None:
                    root.set("cache", "miss")
            request = _Request(
                grid_to_tensor(grid), key, started, PendingResult(), trace=root
            )
            queued.append(request)
            futures.append(request.future)
        if queued:
            try:
                if len(queued) == 1:
                    self._batcher.put(queued[0])
                else:
                    self._batcher.put_many(queued)
            except Overloaded:
                self._shed.inc(len(queued))
                for request in queued:
                    if request.trace is not None:
                        request.trace.event(
                            "shed", queue_limit=self.config.queue_limit
                        )
                        tracer.end(request.trace, status="error")
                raise
            self._queue_depth.set(self._batcher.depth)
        return futures

    def classify(self, grid: np.ndarray, timeout: Optional[float] = None) -> ServeResult:
        """Synchronous single-wafer classification."""
        return self.submit(grid).result(timeout)

    def classify_many(
        self, grids: Sequence[np.ndarray], timeout: Optional[float] = None
    ) -> List[ServeResult]:
        """Classify a group of grids; results in order.

        The group is enqueued as one unit: its cache misses enter the
        queue together, so on an idle engine a group of at most
        ``max_batch_size`` wafers is served as exactly one batch.  A
        group that does not fit under ``queue_limit`` raises
        :class:`Overloaded` and enqueues nothing; use :meth:`submit`
        directly for open-ended streams.
        """
        futures = self._submit(list(grids))
        return [future.result(timeout) for future in futures]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Cache/queue snapshot for logs and benchmark payloads."""
        return {
            "queue_depth": self._batcher.depth,
            "requests": self._requests.value,
            "shed": self._shed.value,
            "batches": self._batches.value,
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain pending requests, stop the runner, shut the backend down."""
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        self._runner.join(timeout=RUNNER_JOIN_S)
        self._generation.backend.close()

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate(self, grid: np.ndarray) -> None:
        if grid.ndim != 2:
            raise ValueError(f"die grid must be 2-D, got shape {grid.shape}")
        if self._input_hw is not None and grid.shape != self._input_hw:
            raise ValueError(
                f"grid shape {grid.shape} does not match the model's "
                f"{self._input_hw}"
            )
        if np.issubdtype(grid.dtype, np.inexact) and not np.all(np.isfinite(grid)):
            self._rejected.inc()
            raise InvalidInput("wafer grid contains non-finite (NaN/Inf) cells")

    def _finish(
        self,
        probabilities: np.ndarray,
        score: float,
        cached: bool,
        latency_s: float,
        gen: _Generation,
    ) -> ServeResult:
        raw_label = int(np.argmax(probabilities))
        accepted = bool(score >= gen.threshold)
        (self._accepted_total if accepted else self._abstained_total).inc()
        return ServeResult(
            label=raw_label if accepted else ABSTAIN,
            raw_label=raw_label,
            selection_score=float(score),
            accepted=accepted,
            probabilities=np.array(probabilities, copy=True),
            cached=cached,
            latency_s=latency_s,
            generation=gen.gen_id,
        )

    def _run(self) -> None:
        staging = None
        if self._input_hw is not None:
            h, w = self._input_hw
            staging = np.empty(
                (self.config.max_batch_size, 1, h, w), dtype=np.float32
            )
        while True:
            flushed = self._batcher.get_batch_with_reason(
                timeout=self.config.idle_reclaim_s
            )
            if flushed is None:
                if self._batcher.closed:
                    return
                self._idle_reclaim()
                continue
            batch, flush_reason = flushed
            self._queue_depth.set(self._batcher.depth)
            # Lease once per batch: the whole batch runs on whatever
            # generation is current at pull time, even if a swap
            # commits mid-infer (in-flight requests finish on the old
            # generation; the swap drains on this lease).
            gen = self._lease()
            try:
                self._process(batch, staging, flush_reason, gen)
            except BaseException as error:  # keep the runner alive
                self._errors.inc()
                for request in batch:
                    request.future._fail(error)
            finally:
                self._release(gen)

    def _process(self, batch, staging, flush_reason, gen: _Generation) -> None:
        batch_started = time.monotonic()
        # One probe per batch; `request.trace` is only ever non-None
        # when a tracer was armed at submit time.
        tracer = current_tracer()
        traced = (
            [r for r in batch if r.trace is not None] if tracer is not None else []
        )
        batch_span = None
        if traced:
            # The batch span's parent is the first traced request (spans
            # of the other requests still share the batch via the `size`
            # attribute and their queue spans' timing overlap).
            batch_span = tracer.start_span(
                "serve.batch", parent=traced[0].trace.context,
                size=len(batch), flush=flush_reason,
            )
            for request in traced:
                queue_span = tracer.start_span(
                    "serve.queue", parent=request.trace.context,
                    start_unix=request.trace.start_unix,
                )
                tracer.end(
                    queue_span, duration_s=batch_started - request.submitted_at
                )
        count = len(batch)
        if staging is None:
            inputs = np.stack([request.tensor for request in batch])
        else:
            inputs = staging[:count]
            for i, request in enumerate(batch):
                inputs[i] = request.tensor
        compute_started = time.monotonic()
        try:
            probabilities, scores = gen.backend.infer(0, inputs)
        except BaseException as error:
            # The runner fails this batch's futures; its traces say so.
            if batch_span is not None:
                for span in [request.trace for request in traced] + [batch_span]:
                    span.event("error", type=type(error).__name__)
                    tracer.end(span, status="error")
            raise
        completed = time.monotonic()
        compute_s = completed - compute_started
        # A swap that committed while this batch was in flight cleared
        # the cache for the *new* generation; writing this
        # (old-generation) batch back would repollute it.
        cacheable = self.cache is not None and gen is self._generation
        for i, request in enumerate(batch):
            score = float(scores[i])
            if cacheable and request.key is not None:
                self.cache.put(request.key, probabilities[i], score)
            latency = completed - request.submitted_at
            request.future._set(self._finish(
                probabilities[i], score, cached=False,
                latency_s=latency, gen=gen,
            ))
            self._latency.observe(latency)
            if request.trace is not None and tracer is not None:
                respond = tracer.start_span(
                    "serve.respond", parent=request.trace.context,
                )
                tracer.end(respond)
                tracer.end(request.trace, duration_s=latency)
        if batch_span is not None:
            tracer.end(batch_span)
        self._flush_counters[flush_reason].inc()
        self._batches.inc()
        self._batch_size_hist.observe(count)
        self._batch_compute.observe(compute_s)
        # A request flushed while this batch is in flight waits the whole
        # staging + infer + completion span, not just the forward.
        self._batch_total.observe(time.monotonic() - batch_started)
        if self.cache is not None:
            self._cache_bytes_gauge.set(self.cache.nbytes)
        self._publish_memory_gauges()
        self._reclaimed = False

    def _idle_reclaim(self) -> None:
        """Release compiled arenas once per idle period.

        Unleased: reclaiming frees process-wide arenas and holds no
        backend state that a concurrent swap could close.
        """
        if self._reclaimed:
            return
        self._reclaimed = True
        self._generation.backend.reclaim()
        self._publish_memory_gauges()

    def _publish_memory_gauges(self) -> None:
        """Mirror nn memory introspection into the registry."""
        self._registry.gauge("nn.index_cache_nbytes").set(F.index_cache_nbytes())
