"""Distributed tracing: request-scoped spans across process boundaries.

One *trace* is the story of one unit of work — a served wafer request,
a data-parallel training step — told as a tree of *spans*.  A span has
a name, a wall-clock start, a duration, free-form attributes, and
point-in-time events; its ``trace_id`` ties it to the request and its
``parent_id`` to the enclosing span.  Context crosses process
boundaries **by value**: a :class:`TraceContext` is a two-string tuple
small enough to ride any task envelope (the serve backend's pipe
messages, the data-parallel step dispatch), and the worker-side span
record travels back with the reply for the parent to
:meth:`Tracer.ingest`.

Arming.  Tracing is **disarmed by default** and the disarmed fast path
is a single module-global read (:func:`current_tracer` returning
``None``) — the hard budget is <1%% added to the batched serving path,
measured by ``benchmarks/perf/bench_obs.py`` and gated in
``scripts/check.sh``.  Arm with::

    tracer = arm_tracing()                 # ring buffer only
    tracer = arm_tracing(run_logger=log)   # + JSONL trace_span records
    ...
    disarm_tracing()

or scope it with ``with traced() as tracer:``.

Span records are plain dicts (schema :data:`TRACE_SCHEMA_VERSION`)
that serialize through the same sanitizer as run-log events, so a
``trace_span`` record in ``events.jsonl`` round-trips through
:func:`repro.obs.events.load_run` like any other record.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceContext",
    "Span",
    "Tracer",
    "arm_tracing",
    "disarm_tracing",
    "current_tracer",
    "tracing_enabled",
    "traced",
    "remote_span",
    "span_tree",
    "format_span_tree",
]

TRACE_SCHEMA_VERSION = 1

#: Statuses a span can end with.
OK = "ok"
ERROR = "error"


def _new_trace_id() -> str:
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class TraceContext(tuple):
    """Immutable ``(trace_id, span_id)`` pair propagated by value.

    A plain tuple subclass: picklable, tiny, and cheap to ship inside
    worker task envelopes.  ``span_id`` is the propagating span — the
    parent of whatever span the receiver opens.
    """

    __slots__ = ()

    def __new__(cls, trace_id: str, span_id: str) -> "TraceContext":
        return tuple.__new__(cls, (str(trace_id), str(span_id)))

    def __getnewargs__(self) -> tuple:
        # tuple subclasses with a custom __new__ need this to pickle.
        return (self[0], self[1])

    @property
    def trace_id(self) -> str:
        return self[0]

    @property
    def span_id(self) -> str:
        return self[1]


class Span:
    """One timed operation inside a trace.

    Created through :meth:`Tracer.start_span` / :func:`remote_span` (or
    :meth:`Span.start` directly); finalized by :meth:`finish`, which
    freezes the duration and produces the schema-versioned record.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix",
        "_start_perf",
        "duration_s",
        "attrs",
        "events",
        "status",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start_unix: float,
        start_perf: Optional[float],
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_unix = start_unix
        self._start_perf = start_perf
        self.duration_s: Optional[float] = None
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.events: List[Dict[str, Any]] = []
        self.status = OK

    # ------------------------------------------------------------------
    @classmethod
    def start(
        cls,
        name: str,
        parent: Optional[TraceContext] = None,
        trace_id: Optional[str] = None,
        start_unix: Optional[float] = None,
        **attrs: Any,
    ) -> "Span":
        """Open a span: child of ``parent`` or root of a fresh trace.

        ``start_unix`` backdates the span (used to materialize a
        queue-wait span whose start was recorded before the span
        object existed); backdated spans must be finished with an
        explicit ``duration_s``.
        """
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = trace_id if trace_id is not None else _new_trace_id()
            parent_id = None
        backdated = start_unix is not None
        return cls(
            name,
            trace_id,
            _new_span_id(),
            parent_id,
            start_unix if backdated else time.time(),
            None if backdated else time.perf_counter(),
            attrs,
        )

    @property
    def context(self) -> TraceContext:
        """The by-value context that makes this span a parent."""
        return TraceContext(self.trace_id, self.span_id)

    def set(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def event(self, name: str, **data: Any) -> "Span":
        """Attach a point-in-time event (retry, shed, ...)."""
        self.events.append({"name": name, "ts": time.time(), "data": data})
        return self

    def finish(
        self, status: Optional[str] = None, duration_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Freeze the span and return its record (idempotent)."""
        if self.duration_s is None:
            if duration_s is not None:
                self.duration_s = float(duration_s)
            elif self._start_perf is not None:
                self.duration_s = time.perf_counter() - self._start_perf
            else:
                self.duration_s = 0.0
        if status is not None:
            self.status = status
        return self.to_record()

    def to_record(self) -> Dict[str, Any]:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s if self.duration_s is not None else 0.0,
            "status": self.status,
            "pid": os.getpid(),
            "attrs": self.attrs,
            "events": self.events,
        }


@contextmanager
def remote_span(
    name: str, context: Optional[Tuple[str, str]], **attrs: Any
) -> Iterator[Optional[Span]]:
    """Worker-side span helper: needs no armed tracer.

    A worker process receives a context tuple inside a task envelope,
    wraps its work in ``with remote_span(...) as span:``, and ships
    ``span.finish()``'s record back with the reply — the parent's
    tracer ingests it into the same trace.  Yields ``None`` (and does
    nothing) when the envelope carried no context, so call sites stay
    branch-free.
    """
    if context is None:
        yield None
        return
    span = Span.start(name, parent=TraceContext(context[0], context[1]), **attrs)
    try:
        yield span
    except BaseException:
        span.finish(status=ERROR)
        raise
    else:
        span.finish()


class Tracer:
    """Collects finished spans into a bounded ring, fanning out to a run
    log and the flight recorder.

    Parameters
    ----------
    capacity:
        Ring-buffer bound on retained span records (oldest dropped).
    run_logger:
        Optional :class:`~repro.obs.events.RunLogger`; each finished
        span is appended as a ``trace_span`` record.
    recorder:
        Optional :class:`~repro.obs.flight.FlightRecorder`; finished
        spans are mirrored into the flight ring for post-mortem dumps.
    """

    def __init__(
        self,
        capacity: int = 4096,
        run_logger=None,
        recorder=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._run_logger = run_logger
        self._recorder = recorder

    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        start_unix: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span (root when ``parent`` is None); finish it with
        :meth:`end` (or ``span.finish()`` + :meth:`ingest`)."""
        return Span.start(name, parent=parent, start_unix=start_unix, **attrs)

    def end(
        self, span: Span, status: Optional[str] = None,
        duration_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Finish ``span`` and record it; returns the record."""
        record = span.finish(status=status, duration_s=duration_s)
        self.ingest(record)
        return record

    @contextmanager
    def span(
        self, name: str, parent: Optional[TraceContext] = None, **attrs: Any
    ) -> Iterator[Span]:
        """``with`` form: the block is the span's lifetime."""
        span = self.start_span(name, parent=parent, **attrs)
        try:
            yield span
        except BaseException:
            self.end(span, status=ERROR)
            raise
        else:
            self.end(span)

    def ingest(self, record: Dict[str, Any]) -> None:
        """Record a finished span — local or shipped from a worker."""
        with self._lock:
            self._ring.append(record)
        if self._run_logger is not None:
            self._run_logger.log("trace_span", **record)
        if self._recorder is not None:
            self._recorder.record_span(record)

    # ------------------------------------------------------------------
    def spans(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Retained span records, optionally filtered to one trace."""
        with self._lock:
            records = list(self._ring)
        if trace_id is None:
            return records
        return [r for r in records if r["trace_id"] == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids currently retained, oldest first."""
        seen: Dict[str, None] = {}
        for record in self.spans():
            seen.setdefault(record["trace_id"], None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


# ----------------------------------------------------------------------
# The process-global tracer.  ``current_tracer()`` is THE hot-path
# probe: production call sites do ``tracer = current_tracer()`` and
# skip all tracing work when it returns None.  Keep it a bare global
# read — no locks, no function-call indirection beyond the accessor.
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The armed tracer, or ``None`` (the disarmed fast path)."""
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER is not None


def arm_tracing(
    capacity: int = 4096,
    run_logger=None,
    recorder=None,
) -> Tracer:
    """Install (and return) the process-global tracer.

    ``recorder`` defaults to the process flight recorder so recent
    spans are always available to a post-mortem dump; pass
    ``recorder=False`` to opt out.
    """
    global _TRACER
    if recorder is None:
        from .flight import default_flight_recorder

        recorder = default_flight_recorder()
    elif recorder is False:
        recorder = None
    _TRACER = Tracer(capacity=capacity, run_logger=run_logger, recorder=recorder)
    return _TRACER


def disarm_tracing() -> None:
    """Remove the process-global tracer (probes go back to no-ops)."""
    global _TRACER
    _TRACER = None


@contextmanager
def traced(**kwargs: Any) -> Iterator[Tracer]:
    """Scope an armed tracer to a ``with`` block (tests, demos)."""
    tracer = arm_tracing(**kwargs)
    try:
        yield tracer
    finally:
        disarm_tracing()


# ----------------------------------------------------------------------
# Span-tree utilities (ops surface / examples / tests)
# ----------------------------------------------------------------------
def span_tree(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Arrange span records of one trace into parent->children trees.

    Returns the root spans, each with a ``children`` list (recursively).
    Orphans (parent not in the record set — e.g. ring-buffer eviction)
    are promoted to roots so nothing silently disappears.
    """
    nodes = {r["span_id"]: dict(r, children=[]) for r in records}
    roots: List[Dict[str, Any]] = []
    for node in nodes.values():
        parent = node.get("parent_id")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["start_unix"])
    roots.sort(key=lambda node: node["start_unix"])
    return roots


def format_span_tree(records: List[Dict[str, Any]]) -> str:
    """Indented one-line-per-span rendering of a trace."""
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        duration_ms = (node.get("duration_s") or 0.0) * 1e3
        marker = "" if node.get("status") == OK else f" [{node.get('status')}]"
        lines.append(
            f"{'  ' * depth}{node['name']}  {duration_ms:.3f} ms"
            f"  (pid {node.get('pid')}){marker}"
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in span_tree(records):
        walk(root, 0)
    return "\n".join(lines)
