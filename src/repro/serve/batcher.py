"""Work-conserving micro-batching queue.

Requests accumulate in a bounded pending queue; the serving engine's
runner pulls them out in *batches*.  Dispatch is **work-conserving**:
a free consumer never idles while requests are pending —
:meth:`MicroBatcher.get_batch` hands it everything pending, up to
``max_batch_size``, at once.  Batches form by themselves under load,
because requests queue while the forward is busy, and a lone request
never waits for company.

There is no dispatcher thread: :meth:`MicroBatcher.get_batch` itself
performs any wait, so the consumer blocks directly on the queue's
condition variable.

Backpressure is explicit: :meth:`put` raises :class:`Overloaded` when
``queue_limit`` requests are already pending, so callers shed load with
a definite signal instead of unbounded queue growth.
:meth:`put_many` enqueues a group all-or-nothing under one lock, so a
free consumer sees the whole group at once.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, List, Optional, Sequence, Tuple

__all__ = [
    "Overloaded",
    "MicroBatcher",
    "FLUSH_IMMEDIATE",
    "FLUSH_SIZE",
    "FLUSH_CLOSE",
    "FLUSH_REASONS",
    "SHED_QUEUE_FULL",
    "SHED_BUCKET_EXHAUSTED",
    "SHED_LABEL_QUEUE_FULL",
    "SHED_LABEL_BUDGET",
    "SHED_REASONS",
]

#: Why a batch flushed: the consumer took a partial batch (everything
#: pending), a full one, or the batcher was closed and is draining.
#: Surfaced per batch so traces and ``serve.batch.flush.*`` counters
#: can tell the triggers apart.
FLUSH_IMMEDIATE = "immediate"
FLUSH_SIZE = "size"
FLUSH_CLOSE = "close"
FLUSH_REASONS = (FLUSH_IMMEDIATE, FLUSH_SIZE, FLUSH_CLOSE)


#: Machine-readable shed reasons carried by :class:`Overloaded`.  Every
#: layer that sheds names its trigger — the batcher's bounded queue or
#: an admission-control token bucket (gateway) — so shed responses
#: (and tests) can tell *which* backpressure mechanism fired without
#: parsing message strings.
SHED_QUEUE_FULL = "queue_full"
SHED_BUCKET_EXHAUSTED = "bucket_exhausted"
#: Continual-operations sheds (``repro.stream``): the bounded human
#: label queue is at capacity, or the per-window labeling budget is
#: already spent.
SHED_LABEL_QUEUE_FULL = "label_queue_full"
SHED_LABEL_BUDGET = "label_budget_exhausted"
SHED_REASONS = (
    SHED_QUEUE_FULL,
    SHED_BUCKET_EXHAUSTED,
    SHED_LABEL_QUEUE_FULL,
    SHED_LABEL_BUDGET,
)


class Overloaded(RuntimeError):
    """The request was shed, not enqueued (or not served).

    ``reason`` is one of :data:`SHED_REASONS` — a machine-readable
    shed trigger that survives pickling and maps directly onto the
    gateway's typed reject responses.
    """

    def __init__(self, message: str, reason: str = SHED_QUEUE_FULL) -> None:
        super().__init__(message)
        if reason not in SHED_REASONS:
            raise ValueError(f"unknown shed reason {reason!r}")
        self.reason = reason

    def __reduce__(self):
        # Default BaseException reduce drops keyword state; keep the
        # reason across pickling (futures crossing process replies).
        return (type(self), (self.args[0] if self.args else "", self.reason))


class MicroBatcher:
    """Work-conserving batching queue (thread-safe)."""

    def __init__(self, max_batch_size: int = 64, queue_limit: int = 1024) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.max_batch_size = int(max_batch_size)
        self.queue_limit = int(queue_limit)
        self._pending: Deque[Any] = deque()
        self._closed = False
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of requests currently pending (not yet batched)."""
        return len(self._pending)

    def put(self, value: Any) -> None:
        """Enqueue one request; raises :class:`Overloaded` when full."""
        self.put_many((value,))

    def put_many(self, values: Sequence[Any]) -> None:
        """Enqueue ``values`` as one unit, all or nothing.

        Raises :class:`Overloaded` — enqueuing none of them — when they
        do not all fit under ``queue_limit``.  A free consumer therefore
        takes the group whole (up to ``max_batch_size``) instead of
        racing the enqueue and taking its head alone.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if len(self._pending) + len(values) > self.queue_limit:
                raise Overloaded(
                    f"pending queue full ({self.queue_limit} requests)",
                    reason=SHED_QUEUE_FULL,
                )
            self._pending.extend(values)
            self._cond.notify_all()

    def get_batch(self, timeout: Optional[float] = None) -> Optional[List[Any]]:
        """Block until a batch is ready; return its values.

        Returns ``None`` when ``timeout`` elapses with nothing pending
        (an *idle* tick — callers use it to reclaim memory) or
        when the batcher is closed and drained.
        """
        result = self.get_batch_with_reason(timeout)
        return None if result is None else result[0]

    def get_batch_with_reason(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[List[Any], str]]:
        """Like :meth:`get_batch`, also naming the flush trigger.

        Returns ``(values, reason)`` with ``reason`` one of
        :data:`FLUSH_REASONS`.
        """
        wait_deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                if wait_deadline is None:
                    self._cond.wait()
                else:
                    remaining = wait_deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
            if len(self._pending) >= self.max_batch_size:
                reason = FLUSH_SIZE
            elif self._closed:
                reason = FLUSH_CLOSE
            else:
                reason = FLUSH_IMMEDIATE
            batch = [
                self._pending.popleft()
                for _ in range(min(self.max_batch_size, len(self._pending)))
            ]
            return batch, reason

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting requests and wake every blocked consumer.

        Pending requests remain fetchable (a close flushes rather than
        drops), after which :meth:`get_batch` returns ``None``.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed
