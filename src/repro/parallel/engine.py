"""Synchronous data-parallel training engine with worker supervision.

Every mini-batch splits into fixed shards of at most :data:`SHARD_ROWS`
rows, chosen from its row count alone (:func:`shard_bounds`).  Worker
``k`` of ``W`` runs forward/backward on shards ``k, k+W, ...``, and the
parent sums the shard gradients *in shard order* into the model's
``param.grad`` before it applies one ordinary optimizer step.
:func:`sharded_step` runs the same per-shard functions in-process, in
the same order and, for a multi-shard batch, under the same one-thread
BLAS pin as the workers, so the worker count — none included — cannot
change a single bit of the trajectory.  It is the trainer's path for
every batch the pool does not run, one-shard batches included.

Exactness.  The SelectiveNet objective (Eq. 9) is *nonlinear* in batch
statistics — coverage appears in a denominator and inside the penalty —
so naively averaging per-shard losses would compute the gradient of a
different function.  Instead every step runs a two-phase protocol:

1. Workers forward their shards and report the three batch partial sums
   the objective depends on: ``U = sum(w*l*g)``, ``V = sum(g)``,
   ``W = sum(w*l)`` (per-sample CE ``l``, selection ``g``, weights
   ``w``).
2. The parent combines them, in shard order, into the full-batch
   statistics and sends back three scalar coefficients ``kU, kV, kW``
   — the partial derivatives of the objective with respect to those
   sums.  Each worker then backpropagates the *linear* surrogate
   ``kU*U_s + kV*V_s + kW*W_s`` of each of its shards.

By the chain rule the sum of the surrogate gradients equals the exact
gradient of the full-batch objective; plain cross-entropy is the
``kU = kV = 0, kW = 1/N`` special case.  Parameters, batches, and the
per-shard gradient slab all live in one shared-memory arena
(:mod:`repro.parallel.shm`), so no ndarray is ever pickled after
start-up; workers bind their model parameters directly onto the arena
views, making the parent's post-step weights visible for free.

Fault tolerance.  Gradients are only applied after a *complete*
attempt, so a step is idempotent and a crashed worker costs a retry,
never a corrupted update:

* A dead pipe, dead process, or missed per-call deadline surfaces as
  :class:`~repro.parallel.pool.WorkerCrashed`; the parent aborts the
  in-flight phase on the survivors (``abort``/``aborted`` handshake,
  draining stale messages) and hands the same shards to whoever is
  left, so a retried step sums the same bytes.
* Lost workers are respawned under a bounded exponential-backoff
  :class:`~repro.resilience.RetryPolicy`; a respawn only rejoins the
  active set after answering a heartbeat ping.
* When the active set degrades below two workers (data-parallel with
  one worker is pure overhead) the engine shuts down and raises
  :class:`ParallelUnavailable` — the trainer's signal to fall back to
  :func:`sharded_step`.

Every death, restart, and retried step increments a ``repro.obs``
counter (``resilience.worker.deaths`` / ``.restarts``,
``resilience.step.retries``).
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.flight import dump_flight, record_flight_event
from ..obs.trace import current_tracer, remote_span
from ..resilience.chaos import chaos_point
from ..resilience.retry import RetryPolicy
from .pool import WorkerCrashed, WorkerPool, parallel_supported, worker_blas
from .shm import ArraySpec, ShmArena

__all__ = [
    "SHARD_ROWS",
    "shard_bounds",
    "sharded_step",
    "ObjectiveSpec",
    "StepStats",
    "DataParallelEngine",
    "ParallelUnavailable",
]

logger = logging.getLogger("repro.parallel")


class ParallelUnavailable(RuntimeError):
    """The worker pool degraded below two usable workers.

    Raised after the engine has already shut itself down; the caller
    should continue in-process on :func:`sharded_step` (the trainer does
    exactly that, so training survives total pool loss).
    """


class _StepFailure(Exception):
    """Internal: one step attempt lost the listed worker ranks."""

    def __init__(self, dead: Sequence[int]) -> None:
        super().__init__(f"step lost workers {sorted(set(dead))}")
        self.dead = list(dead)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which training objective the workers evaluate.

    ``kind="cross_entropy"`` is the full-coverage path; ``"selective"``
    is the Eq. 9 objective with the trainer's hyper-parameters.
    ``eps`` must match :func:`repro.core.losses.selective_risk`.
    """

    kind: str = "cross_entropy"
    target_coverage: float = 1.0
    lam: float = 0.5
    alpha: float = 0.5
    penalty_mode: str = "symmetric"
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in ("cross_entropy", "selective"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.penalty_mode not in ("symmetric", "hinge"):
            raise ValueError(f"unknown penalty mode {self.penalty_mode!r}")


@dataclass
class StepStats:
    """Full-batch statistics of one protocol step, as the Eq. 9 terms
    (:class:`~repro.core.losses.SelectiveLossTerms`) report them."""

    loss: float
    coverage: float
    selective_risk: float
    correct: int


#: Rows per gradient shard.  Fixed, so a batch's shards — and with them
#: every floating-point sum of its step — depend on its row count
#: alone.  A one-shard batch is not worth a worker pool: on the
#: ``drift_retrain`` baseline fit (batch 16) two workers took
#: 1.96-2.19 s against 1.60-2.06 s serial; at batch 64 (two shards)
#: they gained about 55 %.
SHARD_ROWS = 32


def shard_bounds(n: int) -> List[Tuple[int, int]]:
    """Contiguous split of ``range(n)`` into ``ceil(n / SHARD_ROWS)``
    near-equal shards (the first ``n % count`` shards get the extra)."""
    count = max(1, -(-n // SHARD_ROWS))
    base, rem = divmod(n, count)
    bounds = []
    lo = 0
    for index in range(count):
        hi = lo + base + (1 if index < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _forward_shard(model, spec: ObjectiveSpec, inputs, labels, weights):
    """Forward one shard with its loss sums on the tape.

    Returns ``(tape, partial)``: ``tape`` is the ``(U, V, W)`` sum
    tensors (``U`` and ``V`` are ``None`` for cross-entropy), ``partial``
    their values plus the shard's correct-prediction count.
    """
    from .. import nn
    from ..nn.tensor import Tensor

    x = Tensor(inputs)
    if spec.kind == "selective":
        logits, selection = model(x)
    else:
        outputs = model(x)
        logits = outputs[0] if isinstance(outputs, tuple) else outputs
        selection = None
    per_sample = nn.cross_entropy(logits, labels, reduction="none")
    # Same float32 weight cast as selectivenet_objective.
    per_sample = per_sample * Tensor(np.asarray(weights, dtype=np.float32))
    w_sum = per_sample.sum()
    if selection is not None:
        u_sum = (per_sample * selection).sum()
        v_sum = selection.sum()
        partial = (float(u_sum.data), float(v_sum.data))
    else:
        u_sum = v_sum = None
        partial = (0.0, 0.0)
    correct = int((logits.data.argmax(axis=1) == labels).sum())
    return (u_sum, v_sum, w_sum), partial + (float(w_sum.data), correct)


def _backward_shard(params, tape, coefficients, row=None) -> None:
    """Backpropagate one shard's surrogate ``kU*U + kV*V + kW*W`` into
    fresh ``param.grad`` arrays; given a ``row``, also write the flat
    parameter gradient into it."""
    k_u, k_v, k_w = coefficients
    u_sum, v_sum, w_sum = tape
    for param in params:
        param.zero_grad()
    surrogate = k_w * w_sum
    if u_sum is not None:
        surrogate = surrogate + k_u * u_sum + k_v * v_sum
    surrogate.backward()
    if row is None:
        return
    offset = 0
    for param in params:
        size = param.data.size
        if param.grad is None:
            row[offset:offset + size] = 0
        else:
            row[offset:offset + size] = param.grad.reshape(-1)
        offset += size


def _reduce_partials(partials) -> Tuple[float, float, float, int]:
    """``(U, V, W, correct)`` of the batch, summed in shard order."""
    u = v = w = 0.0
    correct = 0
    for p_u, p_v, p_w, p_correct in partials:
        u += p_u
        v += p_v
        w += p_w
        correct += p_correct
    return u, v, w, correct


def _publish_grads(params, rows: np.ndarray, total: np.ndarray) -> None:
    """Sum the shard gradient rows in shard order into ``total`` and
    point every ``param.grad`` at its slice of it."""
    np.copyto(total, rows[0])
    for row in rows[1:]:
        total += row
    offset = 0
    for param in params:
        size = param.data.size
        param.grad = total[offset:offset + size].reshape(param.data.shape)
        offset += size


def _coefficients(
    spec: ObjectiveSpec, n: int, u: float, v: float, w: float
) -> Tuple[float, float, float]:
    """Partial derivatives (kU, kV, kW) of the objective with respect
    to the batch sums, evaluated at the current statistics."""
    if spec.kind == "cross_entropy":
        return 0.0, 0.0, 1.0 / n
    coverage = v / n
    d = coverage + spec.eps
    if spec.penalty_mode == "symmetric":
        dpsi = 2.0 * (coverage - spec.target_coverage)
    else:  # hinge: psi = max(0, c0 - c)^2
        gap = spec.target_coverage - coverage
        dpsi = -2.0 * gap if gap > 0 else 0.0
    k_u = spec.alpha / (n * d)
    k_v = spec.alpha * (-u / (n * n * d * d) + spec.lam * dpsi / n)
    k_w = (1.0 - spec.alpha) / n
    return k_u, k_v, k_w


def _batch_stats(
    spec: ObjectiveSpec, n: int, u: float, v: float, w: float, correct: int
) -> StepStats:
    """Recover the Eq. 9 loss terms from the sums."""
    if spec.kind == "cross_entropy":
        loss = w / n
        return StepStats(loss=loss, coverage=1.0, selective_risk=loss, correct=correct)
    coverage = v / n
    risk = (u / n) / (coverage + spec.eps)
    if spec.penalty_mode == "symmetric":
        penalty = (coverage - spec.target_coverage) ** 2
    else:
        penalty = max(0.0, spec.target_coverage - coverage) ** 2
    total = spec.alpha * (risk + spec.lam * penalty) + (1.0 - spec.alpha) * (w / n)
    return StepStats(
        loss=total, coverage=coverage, selective_risk=risk, correct=correct
    )


def sharded_step(
    model,
    objective: ObjectiveSpec,
    inputs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> StepStats:
    """One step of the engine's protocol, run in this process.

    The same shards, per-shard functions and shard-order sums as a
    :class:`DataParallelEngine` step.  A multi-shard batch runs under
    the one-thread BLAS pin the workers run with, so ``param.grad`` and
    the statistics equal a step on any number of workers bit for bit.
    A one-shard batch runs in the parent at every worker count, so it
    runs on the parent's own BLAS thread count.  The caller applies the
    optimizer step.
    """
    n = int(inputs.shape[0])
    bounds = shard_bounds(n)
    one_shard = len(bounds) == 1
    params = list(model.parameters())
    tapes, partials = [], []
    with nullcontext() if one_shard else worker_blas():
        for lo, hi in bounds:
            tape, partial = _forward_shard(
                model, objective, inputs[lo:hi], labels[lo:hi], weights[lo:hi]
            )
            tapes.append(tape)
            partials.append(partial)
        u, v, w, correct = _reduce_partials(partials)
        coefficients = _coefficients(objective, n, u, v, w)
        if one_shard:
            _backward_shard(params, tapes[0], coefficients)
        else:
            size = sum(p.data.size for p in params)
            rows = np.empty((len(bounds), size), dtype=params[0].data.dtype)
            for tape, row in zip(tapes, rows):
                _backward_shard(params, tape, coefficients, row)
            _publish_grads(params, rows, np.empty_like(rows[0]))
    return _batch_stats(objective, n, u, v, w, correct)


class DataParallelEngine:
    """Drives N supervised workers through the two-phase protocol.

    The arena is sized lazily on the first :meth:`train_step` (batch
    geometry and dtypes are only known then).  After each step the
    model's ``param.grad`` holds the summed shard gradients — the
    caller applies the optimizer exactly as after :func:`sharded_step`;
    the engine re-publishes the updated parameters at the start of the
    next step.

    ``retry`` bounds worker respawns (per rank) and paces them with
    exponential backoff; ``retry.max_retries == 0`` means a lost worker
    is never replaced and the pool simply shrinks.

    ``registry`` receives the counters the parent keeps (worker deaths,
    restarts and retried steps).  Workers keep no metrics registry:
    their per-shard time reaches the parent only as the
    ``parallel.shard`` and ``parallel.shard.backward`` spans of an
    armed tracer.
    """

    def __init__(
        self,
        model,
        objective: ObjectiveSpec,
        num_workers: int,
        max_batch: int,
        timeout: float = 120.0,
        retry: Optional[RetryPolicy] = None,
        registry=None,
    ) -> None:
        if num_workers < 2:
            raise ValueError("DataParallelEngine needs num_workers >= 2")
        if not parallel_supported(num_workers):
            raise RuntimeError("parallel execution is not supported here")
        self.model = model
        self.objective = objective
        self.num_workers = int(num_workers)
        self.max_batch = int(max_batch)
        self._timeout = float(timeout)
        self.retry = RetryPolicy() if retry is None else retry
        self._params = list(model.parameters())
        self._sizes = [int(p.data.size) for p in self._params]
        self._total_size = sum(self._sizes)
        self._pool: Optional[WorkerPool] = None
        self._arena: Optional[ShmArena] = None
        self._grad_total: Optional[np.ndarray] = None
        self._active: set = set()
        self._respawns: dict = {}
        from ..obs.metrics import default_registry

        reg = default_registry() if registry is None else registry
        self._m_deaths = reg.counter("resilience.worker.deaths")
        self._m_restarts = reg.counter("resilience.worker.restarts")
        self._m_retries = reg.counter("resilience.step.retries")

    # ------------------------------------------------------------------
    def _start(self, inputs: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> None:
        from ..nn.tensor import get_default_dtype

        capacity = max(self.max_batch, inputs.shape[0])
        self.max_batch = capacity
        param_dtype = self._params[0].data.dtype
        specs = [
            ArraySpec("params", (self._total_size,), np.dtype(param_dtype).str),
            ArraySpec(
                "grads",
                (len(shard_bounds(capacity)), self._total_size),
                np.dtype(param_dtype).str,
            ),
            ArraySpec(
                "inputs",
                (capacity,) + tuple(inputs.shape[1:]),
                np.dtype(inputs.dtype).str,
            ),
            ArraySpec("labels", (capacity,), np.dtype(np.int64).str),
            ArraySpec("weights", (capacity,), np.dtype(weights.dtype).str),
        ]
        self._arena = ShmArena.create(specs)
        self._grad_total = np.empty((self._total_size,), dtype=param_dtype)
        # The model ships with zeroed tape state so it pickles cleanly
        # under spawn; fork inherits it for free either way.
        self.model.zero_grad()
        payload = {
            "handle": self._arena.handle(),
            "model": self.model,
            "objective": self.objective,
            "dtype": np.dtype(get_default_dtype()).str,
        }
        self._pool = WorkerPool(
            self.num_workers, _engine_worker, payload=payload, timeout=self._timeout
        )
        self._active = set(range(self.num_workers))
        self._respawns = {}

    def _write_params(self) -> None:
        flat = self._arena.view("params")
        offset = 0
        for param, size in zip(self._params, self._sizes):
            flat[offset:offset + size] = param.data.reshape(-1)
            offset += size

    # ------------------------------------------------------------------
    def train_step(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> StepStats:
        """One synchronous data-parallel step over a mini-batch.

        On return ``param.grad`` of every model parameter is the exact
        full-batch gradient (summed over shards); the caller applies
        the optimizer step.

        A worker crash mid-step triggers abort → recover → retry of the
        *same* batch on the surviving (possibly respawned) workers;
        only a fully successful attempt publishes gradients, so the
        training trajectory is unaffected by the faults.  Raises
        :class:`ParallelUnavailable` (after shutting down) once fewer
        than two workers remain.
        """
        n = int(inputs.shape[0])
        if n == 0:
            raise ValueError("cannot step on an empty batch")
        if weights is None:
            weights = np.ones((n,), dtype=np.float32)
        if self._pool is None:
            self._start(inputs, labels, weights)
        if n > self.max_batch:
            raise ValueError(
                f"batch of {n} exceeds engine capacity {self.max_batch}"
            )
        self._write_params()
        self._arena.view("inputs")[:n] = inputs
        self._arena.view("labels")[:n] = labels
        self._arena.view("weights")[:n] = weights

        # Each failed attempt removes or respawns at least one worker,
        # and respawns are bounded per rank, so this loop terminates.
        attempts = self.num_workers * (self.retry.max_retries + 1) + 1
        for _ in range(attempts):
            if len(self._active) < 2:
                break
            try:
                return self._step_once(n)
            except _StepFailure as failure:
                self._m_retries.inc()
                self._recover(failure.dead)
            except Exception:
                # Worker-side logic error (deterministic — retrying
                # cannot help) or an unexpected parent-side fault:
                # release the pool and surface it.
                self.shutdown()
                raise
        self.shutdown()
        raise ParallelUnavailable(
            "data-parallel pool degraded below two workers; "
            "fall back to serial execution"
        )

    def _step_once(self, n: int) -> StepStats:
        """One attempt at the two-phase protocol over the active set."""
        active = sorted(self._active)
        bounds = shard_bounds(n)
        shards = [(index, lo, hi) for index, (lo, hi) in enumerate(bounds)]
        # Disarmed cost: one global read per step attempt.  Armed, the
        # step span's context rides each dispatch and the workers'
        # per-shard forward and backward span records come home with
        # the partials and the acks.
        tracer = current_tracer()
        step_span = (
            tracer.start_span("parallel.step", n=n, workers=len(active))
            if tracer is not None else None
        )
        ctx = tuple(step_span.context) if step_span is not None else None
        dead: List[int] = []
        delivered: List[int] = []
        for k, rank in enumerate(active):
            try:
                self._pool.send(rank, ("step", shards[k::len(active)], ctx))
                delivered.append(rank)
            except (BrokenPipeError, OSError):
                dead.append(rank)
        if dead:
            if step_span is not None:
                tracer.end(step_span, status="error")
            raise _StepFailure(dead + self._abort_ranks(delivered))

        partials: List[tuple] = [()] * len(bounds)
        records = []
        for rank in active:
            try:
                _, shard_partials, shard_records = self._pool.recv(rank)
            except WorkerCrashed:
                dead.append(rank)
                continue
            for index, partial in shard_partials:
                partials[index] = partial
            records.extend(shard_records)
        if dead:
            survivors = [r for r in active if r not in dead]
            if step_span is not None:
                tracer.end(step_span, status="error")
            raise _StepFailure(dead + self._abort_ranks(survivors))
        u, v, w, correct = _reduce_partials(partials)

        k_u, k_v, k_w = _coefficients(self.objective, n, u, v, w)
        for rank in active:
            try:
                self._pool.send(rank, ("coeff", k_u, k_v, k_w))
            except (BrokenPipeError, OSError):
                dead.append(rank)
        if not dead:
            for rank in active:
                try:
                    # "done" ack: the worker's gradient rows are complete.
                    records.extend(self._pool.recv(rank)[1])
                except WorkerCrashed:
                    dead.append(rank)
        if dead:
            survivors = [r for r in active if r not in dead]
            if step_span is not None:
                tracer.end(step_span, status="error")
            raise _StepFailure(dead + self._abort_ranks(survivors))
        if step_span is not None:
            for record in records:
                tracer.ingest(record)
            tracer.end(step_span)

        grads = self._arena.view("grads")[:len(bounds)]
        _publish_grads(self._params, grads, self._grad_total)
        return _batch_stats(self.objective, n, u, v, w, correct)

    # ------------------------------------------------------------------
    def _abort_ranks(self, ranks: Sequence[int]) -> List[int]:
        """Return the listed workers to protocol top-level.

        Sends the ``abort`` control message and drains stale in-flight
        replies (``partial`` / ``done``) until each worker acknowledges
        with ``aborted``.  Workers that die during the handshake are
        returned as additional casualties.
        """
        casualties: List[int] = []
        drain_timeout = min(self._timeout, 10.0)
        for rank in ranks:
            try:
                self._pool.send(rank, ("abort",))
            except (BrokenPipeError, OSError):
                casualties.append(rank)
                continue
            while True:
                try:
                    message = self._pool.recv(rank, timeout=drain_timeout)
                except RuntimeError:  # crashed, wedged, or errored
                    casualties.append(rank)
                    break
                if message[0] == "aborted":
                    break
        return casualties

    def _recover(self, dead: Sequence[int]) -> None:
        """Process casualties: log them and try to respawn each under
        the retry policy's budget."""
        for rank in sorted(set(dead)):
            self._active.discard(rank)
            self._m_deaths.inc()
            record_flight_event(
                "parallel_worker_death", rank=rank,
                exitcode=self._pool.exitcode(rank),
            )
            dump_flight("worker-crash")
            logger.warning(
                "parallel worker %d lost (exit code %s)",
                rank,
                self._pool.exitcode(rank),
            )
            used = self._respawns.get(rank, 0)
            while used < self.retry.max_retries:
                self.retry.sleep(used)
                used += 1
                self._respawns[rank] = used
                try:
                    self._pool.respawn(rank)
                    self._pool.ping(rank, timeout=min(self._timeout, 30.0))
                except (RuntimeError, OSError):
                    continue
                self._active.add(rank)
                self._m_restarts.inc()
                logger.info("parallel worker %d respawned", rank)
                break

    def health_check(self) -> None:
        """Heartbeat every active worker, replacing unresponsive ones.

        Raises :class:`ParallelUnavailable` (after shutdown) when the
        pool has degraded below two workers.  Called by the trainer at
        epoch boundaries; cost is one ping round-trip per worker.
        """
        if self._pool is None:
            return
        dead = []
        for rank in sorted(self._active):
            try:
                self._pool.ping(rank, timeout=min(self._timeout, 30.0))
            except WorkerCrashed:
                dead.append(rank)
        if dead:
            self._recover(dead)
        if len(self._active) < 2:
            self.shutdown()
            raise ParallelUnavailable(
                "data-parallel pool degraded below two workers; "
                "fall back to serial execution"
            )

    @property
    def active_workers(self) -> int:
        """Workers currently in the active set (0 before start-up)."""
        return len(self._active)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self._active = set()

    def __enter__(self) -> "DataParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
def _engine_worker(rank: int, num_workers: int, pipe, payload) -> None:
    """Worker side of the two-phase protocol (runs in a subprocess).

    Answers ``step``, ``coeff``, ``abort``, ``ping`` and ``stop``.  The
    worker records no metrics; with a trace context in the ``step``
    message, each shard's forward and backward come home as span
    records with the partials and the ``done`` ack.
    """
    from ..nn.tensor import set_default_dtype

    set_default_dtype(np.dtype(payload["dtype"]).type)
    arena = ShmArena.attach(payload["handle"])
    model = payload["model"]
    spec: ObjectiveSpec = payload["objective"]
    model.train()

    params = list(model.parameters())
    sizes = [int(p.data.size) for p in params]
    flat_params = arena.view("params")
    # Bind every parameter onto the shared segment: the parent's
    # post-optimizer writes become visible without any transport.
    offset = 0
    for param, size in zip(params, sizes):
        param.data = flat_params[offset:offset + size].reshape(param.data.shape)
        offset += size
    inputs = arena.view("inputs")
    labels = arena.view("labels")
    weights = arena.view("weights")
    grads = arena.view("grads")

    def ping(message) -> bool:
        """Answer a heartbeat; False when ``message`` was not one."""
        if message[0] != "ping":
            return False
        chaos_point("parallel.worker.ping", rank=rank)
        pipe.send(("pong", rank))
        return True

    try:
        while True:
            message = pipe.recv()
            if message[0] == "stop":
                return
            if message[0] == "abort":  # nothing in flight — just acknowledge
                pipe.send(("aborted",))
                continue
            if ping(message):
                continue
            _, shards, ctx = message
            chaos_point(
                "parallel.worker.step", rank=rank,
                shards=[index for index, _, _ in shards],
            )
            tapes, partials, records = [], [], []
            for index, lo, hi in shards:
                with remote_span(
                    "parallel.shard", ctx, rank=rank, shard=index, lo=lo, hi=hi
                ) as span:
                    tape, partial = _forward_shard(
                        model, spec, inputs[lo:hi], labels[lo:hi], weights[lo:hi]
                    )
                tapes.append(tape)
                partials.append((index, partial))
                if span is not None:
                    records.append(span.to_record())
            pipe.send(("partial", partials, records))

            # Phase 2: wait for the coefficients, answering pings;
            # "abort" drops the step and returns to top.
            while True:
                message = pipe.recv()
                if message[0] == "stop":
                    return
                if message[0] == "abort":
                    pipe.send(("aborted",))
                    break
                if ping(message):
                    continue
                coefficients = message[1:]
                records = []
                for (index, _, _), tape in zip(shards, tapes):
                    with remote_span(
                        "parallel.shard.backward", ctx, rank=rank, shard=index
                    ) as span:
                        _backward_shard(params, tape, coefficients, grads[index])
                    if span is not None:
                        records.append(span.to_record())
                pipe.send(("done", records))
                break
            tapes.clear()  # release the step's activations before idling
    finally:
        arena.close()
