"""Inference backends: in-process serial and multi-process replicas.

A backend exposes ``num_lanes`` independent inference lanes; a lane is
safe to drive from exactly one thread at a time, and distinct lanes run
concurrently.  The serving engine starts one runner thread per lane, so
fan-out across replicas falls out of the lane count.

* :class:`InProcessBackend` — one lane calling the model directly on
  the caller's thread.  This is the serial fallback mirroring
  :func:`repro.parallel.parallel_map`'s: platforms without usable
  ``multiprocessing`` (or ``num_replicas <= 1``) serve with identical
  results, just without process-level parallelism.
* :class:`ReplicaPoolBackend` — N model replicas in separate processes
  (:class:`repro.parallel.WorkerPool`, BLAS pinned to one thread each)
  with batches and results crossing the process boundary through one
  shared-memory :class:`repro.parallel.ShmArena` — a request never
  pickles an ndarray after start-up.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Tuple

import numpy as np

from ..nn import Module
from ..nn.compile import compiled_for, release_compiled
from ..obs.flight import dump_flight, record_flight_event
from ..obs.trace import current_tracer, remote_span
from ..parallel import (
    ArraySpec,
    ShmArena,
    WorkerCrashed,
    WorkerPool,
    parallel_supported,
)
from ..resilience.chaos import chaos_point

__all__ = [
    "InProcessBackend",
    "ReplicaPoolBackend",
    "make_backend",
    "model_infer_fn",
    "reserve_compiled",
]

logger = logging.getLogger("repro.serve")

#: ``infer_fn(inputs) -> (probabilities, selection_scores)`` over a
#: float32 ``(B, 1, H, W)`` batch.
InferFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def model_infer_fn(model) -> InferFn:
    """Adapt a repro model to the backend's ``(probs, scores)`` contract.

    :class:`~repro.core.selective.SelectiveNet` exposes it directly via
    ``predict_batched``; full-coverage models with only
    ``predict_proba`` (:class:`~repro.core.cnn.WaferCNN`) get ``+inf``
    selection scores, i.e. every sample is accepted at any threshold.
    """
    if hasattr(model, "predict_batched"):
        return model.predict_batched
    if hasattr(model, "predict_proba"):

        def infer(inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            probabilities = model.predict_proba(inputs)
            scores = np.full(len(probabilities), np.inf, dtype=probabilities.dtype)
            return probabilities, scores

        return infer
    raise TypeError(
        f"{type(model).__name__} has neither predict_batched nor predict_proba"
    )


def reserve_compiled(model, max_batch: int, input_hw: Tuple[int, int]) -> bool:
    """Compile ``model``'s inference graph for batches of up to
    ``max_batch`` wafers before it serves, so no request waits on a
    compile.

    Runs nothing: the arena is allocated, not touched.  The graph is
    compiled in eval mode, the mode the predict path runs in.  Returns
    whether the model compiled (``False``: it will serve eagerly).
    """
    if not isinstance(model, Module):
        return False
    h, w = input_hw
    was_training = model.training
    model.eval()
    try:
        return compiled_for(model).reserve(
            np.zeros((1, 1, h, w), dtype=np.float32), max_batch
        )
    finally:
        model.train(was_training)


class InProcessBackend:
    """Single-lane backend running the model on the calling thread."""

    num_lanes = 1

    def __init__(self, infer_fn: InferFn) -> None:
        self._infer_fn = infer_fn

    def infer(self, lane: int, inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._infer_fn(inputs)

    def reclaim(self) -> None:
        """Release compiled arenas between bursts."""
        release_compiled()

    def close(self) -> None:
        pass

    def __enter__(self) -> "InProcessBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _replica_worker(rank, num_workers, pipe, payload) -> None:
    """Worker loop: bind the rank's arena slots, serve infer requests.

    Telemetry goes into a **fresh worker-local registry** (a forked
    child inherits the parent's registry contents; counting into it
    would double-count everything already recorded pre-fork).  The
    parent pulls a mergeable snapshot with a ``("telemetry",)`` message
    and folds it into the fleet view.

    An ``("infer", count, ctx)`` message carries an optional
    ``(trace_id, span_id)`` context: the forward pass is then wrapped
    in a ``replica.forward`` span whose record rides back with the
    ``("done", ...)`` ack for the parent tracer to ingest — the
    cross-process half of a request's trace.
    """
    from ..obs.aggregate import mergeable_snapshot
    from ..obs.metrics import MetricsRegistry

    model, handle, max_batch = payload
    infer_fn = model_infer_fn(model)
    registry = MetricsRegistry()
    m_batches = registry.counter("serve.worker.batches")
    m_items = registry.counter("serve.worker.items")
    m_infer = registry.histogram("serve.worker.infer_s")
    import time as _time

    with ShmArena.attach(handle) as arena:
        inputs = arena.view(f"in{rank}")
        probs = arena.view(f"probs{rank}")
        scores = arena.view(f"scores{rank}")
        reserve_compiled(model, max_batch, inputs.shape[2:])
        while True:
            message = pipe.recv()
            if message[0] == "stop":
                return
            if message[0] == "ping":
                pipe.send(("pong", rank))
                continue
            if message[0] == "reclaim":
                release_compiled()
                continue
            if message[0] == "telemetry":
                pipe.send(
                    ("telemetry", rank, mergeable_snapshot(registry, f"replica{rank}"))
                )
                continue
            count = message[1]
            ctx = message[2] if len(message) > 2 else None
            chaos_point("serve.replica.step", rank=rank, count=count)
            started = _time.perf_counter()
            with remote_span("replica.forward", ctx, rank=rank, batch=count) as span:
                p, s = infer_fn(inputs[:count])
            elapsed = _time.perf_counter() - started
            probs[:count] = p
            scores[:count] = s
            m_batches.inc()
            m_items.inc(count)
            m_infer.observe(elapsed)
            pipe.send(
                ("done", count, span.to_record() if span is not None else None)
            )


class ReplicaPoolBackend:
    """N model replicas in separate processes, one lane per replica.

    Each lane owns a private slice of the shared arena — an input slab
    of ``(max_batch, 1, H, W)`` plus probability/score output rows — and
    its own pipe, so all lanes can be in flight simultaneously.  The
    parent copies a batch into the lane's slab, sends a two-int message,
    and copies the results out when the worker acks.

    A replica that dies or wedges mid-batch is respawned in place (at
    most ``restarts`` times per lane, counted in
    ``serve.replica.restarts``) and the in-flight batch is retried on
    the fresh process — the input slab still holds it.  Once a lane's
    restart budget is spent, its :meth:`infer` raises
    :class:`~repro.parallel.WorkerCrashed` and the serving engine's
    circuit breaker routes around it.

    With an ``aggregator`` (a :class:`repro.obs.aggregate.FleetAggregator`),
    :meth:`poll_telemetry` pulls each replica's worker-local metric
    snapshot over its pipe and publishes it under ``replica<lane>``;
    :meth:`_revive` retires the casualty's last snapshot first, so a
    respawn never erases its contribution from the fleet totals.
    """

    #: Lane task envelopes carry a ``TraceContext``; the engine checks
    #: this before passing one (injected test backends lack it).
    accepts_trace = True

    def __init__(
        self,
        model,
        num_replicas: int,
        max_batch: int,
        input_hw: Tuple[int, int],
        num_classes: int,
        timeout: float = 120.0,
        restarts: int = 2,
        registry=None,
        aggregator=None,
    ) -> None:
        if num_replicas < 2:
            raise ValueError("ReplicaPoolBackend needs >= 2 replicas")
        if not parallel_supported(num_replicas):
            raise RuntimeError("multi-process replicas unsupported on this platform")
        if restarts < 0:
            raise ValueError("restarts must be non-negative")
        self.num_lanes = int(num_replicas)
        h, w = input_hw
        specs = []
        for rank in range(num_replicas):
            specs.append(ArraySpec(f"in{rank}", (max_batch, 1, h, w), "<f4"))
            specs.append(ArraySpec(f"probs{rank}", (max_batch, num_classes), "<f4"))
            specs.append(ArraySpec(f"scores{rank}", (max_batch,), "<f4"))
        self._arena = ShmArena.create(specs)
        self._max_batch = int(max_batch)
        self._timeout = float(timeout)
        self._restart_budget = int(restarts)
        self._restarts_used: Dict[int, int] = {}
        if registry is None:
            from ..obs.metrics import default_registry

            registry = default_registry()
        self._m_restarts = registry.counter("serve.replica.restarts")
        self._aggregator = aggregator
        try:
            self._pool = WorkerPool(
                num_replicas,
                _replica_worker,
                payload=(model, self._arena.handle(), max_batch),
                timeout=timeout,
            )
        except BaseException:
            self._arena.close()
            raise

    def infer(
        self, lane: int, inputs: np.ndarray, trace_ctx=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        count = len(inputs)
        if count > self._max_batch:
            raise ValueError(f"batch of {count} exceeds max_batch {self._max_batch}")
        self._arena.view(f"in{lane}")[:count] = inputs
        try:
            return self._infer_once(lane, count, trace_ctx)
        except WorkerCrashed:
            # The slab still holds the batch: revive the replica and
            # retry once.  A second crash (or a spent restart budget)
            # propagates for the engine's breaker to handle.
            self._revive(lane)
            return self._infer_once(lane, count, trace_ctx)

    def _infer_once(
        self, lane: int, count: int, trace_ctx=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        # The context crosses the boundary as a plain tuple; the reply
        # brings the worker-side span record home for our tracer.
        self._send(
            lane,
            ("infer", count, tuple(trace_ctx) if trace_ctx is not None else None),
        )
        ack = self._pool.recv(lane)
        if len(ack) > 2 and ack[2] is not None:
            tracer = current_tracer()
            if tracer is not None:
                tracer.ingest(ack[2])
        probabilities = self._arena.view(f"probs{lane}")[:count].copy()
        scores = self._arena.view(f"scores{lane}")[:count].copy()
        return probabilities, scores

    def poll_telemetry(self, lane: int):
        """Pull one replica's metric snapshot; returns it (or ``None``).

        Must be called from the lane's single driving thread (pipes are
        request-reply).  Failures are swallowed — a dead replica's
        telemetry is recovered by the retire-on-revive path instead.
        """
        try:
            self._send(lane, ("telemetry",))
            reply = self._pool.recv(lane, timeout=min(self._timeout, 30.0))
        except (WorkerCrashed, OSError):
            return None
        if not (isinstance(reply, tuple) and reply and reply[0] == "telemetry"):
            return None
        snapshot = reply[2]
        if self._aggregator is not None:
            self._aggregator.publish(f"replica{lane}", snapshot)
        return snapshot

    def _send(self, lane: int, message) -> None:
        try:
            self._pool.send(lane, message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"replica {lane} pipe broke: {exc}", lane)

    def _revive(self, lane: int) -> None:
        """Respawn one dead/wedged replica within its restart budget."""
        used = self._restarts_used.get(lane, 0)
        if used >= self._restart_budget:
            raise WorkerCrashed(
                f"replica {lane} lost and its restart budget "
                f"({self._restart_budget}) is spent",
                lane,
            )
        self._restarts_used[lane] = used + 1
        logger.warning(
            "replica %d lost (exit code %s); respawning",
            lane, self._pool.exitcode(lane),
        )
        # The casualty's registry died with it: fold its last-published
        # snapshot into the fleet baseline before the replacement
        # starts publishing from zero.
        if self._aggregator is not None:
            self._aggregator.retire(f"replica{lane}")
        record_flight_event(
            "replica_crash", lane=lane, exitcode=self._pool.exitcode(lane),
            restarts_used=self._restarts_used[lane],
        )
        dump_flight("replica-crash")
        try:
            self._pool.respawn(lane)
            self._pool.ping(lane, timeout=min(self._timeout, 30.0))
        except (RuntimeError, OSError) as exc:
            raise WorkerCrashed(f"replica {lane} respawn failed: {exc}", lane)
        self._m_restarts.inc()

    def reclaim(self) -> None:
        """Release compiled arenas in parent and replicas."""
        release_compiled()
        try:
            self._pool.broadcast(("reclaim",))
        except (BrokenPipeError, OSError):  # pragma: no cover - shutdown race
            pass

    def close(self) -> None:
        self._pool.shutdown()
        self._arena.close()

    def __enter__(self) -> "ReplicaPoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_backend(
    model,
    num_replicas: int,
    max_batch: int,
    input_hw: Tuple[int, int],
    num_classes: int,
    timeout: float = 120.0,
    restarts: int = 2,
    registry=None,
    aggregator=None,
):
    """Replica pool when possible, in-process fallback otherwise.

    Either way the model is compiled for ``max_batch`` wafers before the
    backend is returned (in each replica process for the pool).
    """
    if num_replicas > 1 and parallel_supported(num_replicas):
        return ReplicaPoolBackend(
            model, num_replicas, max_batch, input_hw, num_classes,
            timeout=timeout, restarts=restarts, registry=registry,
            aggregator=aggregator,
        )
    reserve_compiled(model, max_batch, input_hw)
    return InProcessBackend(model_infer_fn(model))
