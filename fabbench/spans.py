"""Outside-in span recording for the traced benchmark run.

The benchmark never edits the program: it replaces public callables
(a module-level function, or a method on a class) with thin wrappers
that record a span around each call, and puts the originals back
afterwards.  A name is patched where the caller looks it up — e.g.
``repro.serve.gateway.decode_payload``, because the gateway imported
it by name.

A span is ``[name, start, end, parent, child_seconds, attrs]``.  The
current span lives in a :mod:`contextvars` variable, so spans nest
correctly per thread *and* per asyncio task (each gateway request is
its own task).  A child adds its duration to its parent's
``child_seconds`` when it ends, so a span's self time is simply
``end - start - child_seconds``.

Only the traced run (``--trace 1``) installs wrappers; untraced runs
execute unpatched code, which :meth:`Patcher.restore` guarantees and
the harness self-tests check.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from typing import Any, Callable, Dict, List, Optional

_current: contextvars.ContextVar = contextvars.ContextVar("fabbench_span", default=None)

NAME, START, END, PARENT, CHILD, ATTRS = range(6)

_MISSING = object()


class Recorder:
    """In-memory span sink; spans are plain lists for cheap appends."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.calls = 0
        self.clock = time.perf_counter

    def reset(self) -> None:
        self.spans = []
        self.calls = 0

    def open(self, name: str, attrs: Optional[dict] = None) -> list:
        self.calls += 1
        return [name, self.clock(), None, _current.get(), 0.0, attrs]

    def close(self, span: list, end: Optional[float] = None) -> None:
        span[END] = self.clock() if end is None else end
        parent = span[PARENT]
        if parent is not None:
            parent[CHILD] += span[END] - span[START]
        self.spans.append(span)

    def add(self, name: str, start: float, end: float, parent=None,
            attrs: Optional[dict] = None) -> list:
        """Record an already-finished span (e.g. a wait measured by callback)."""
        self.calls += 1
        span = [name, start, None, parent, 0.0, attrs]
        self.close(span, end)
        return span

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable[..., Optional[dict]]] = None,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """Span-recording wrapper for a sync, async or generator callable.

        ``attrs(*args, **kwargs)`` may attach a dict to the span;
        ``after(span, result, *args, **kwargs)`` runs once the call
        returned (sync/async only).
        """
        recorder = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = recorder.open(name, attrs(*args, **kwargs) if attrs else None)
                token = _current.set(span)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _current.reset(token)
                    recorder.close(span)
                if after is not None:
                    after(span, result, *args, **kwargs)
                return result
            return async_wrapper

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # One span per item: the time the consumer waited in next().
                inner = fn(*args, **kwargs)
                while True:
                    span = recorder.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, attrs(*args, **kwargs) if attrs else None)
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                _current.reset(token)
                recorder.close(span)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result
        return wrapper


class Patcher:
    """Installs replacements on objects and restores the originals.

    Restoring an attribute that the owner only inherited deletes the
    override instead of copying the inherited value onto the owner, so
    the object ends up exactly as it was.
    """

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> Any:
        own = owner.__dict__.get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        original = getattr(owner, attr)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is a static/class method")
        self._saved.append((owner, attr, own))
        setattr(owner, attr, replacement)
        return original

    def wrap(self, recorder: Recorder, owner: Any, attr: str, name: str, **kw) -> None:
        original = getattr(owner, attr)
        self.patch(owner, attr, recorder.wrap(original, name, **kw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @property
    def active(self) -> int:
        return len(self._saved)


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured extra seconds one wrapped call costs over a plain call."""
    recorder = Recorder()

    def noop():
        return None

    wrapped = recorder.wrap(noop, "calibrate")
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(samples):
            noop()
        best_plain = min(best_plain, time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best_wrapped = min(best_wrapped, time.perf_counter() - started)
    return max(0.0, (best_wrapped - best_plain) / samples)


def summarize(spans: List[list]) -> Dict[str, Dict[str, Any]]:
    """Per-name totals: count, total/self seconds and durations."""
    out: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        entry = out.get(span[NAME])
        if entry is None:
            entry = out[span[NAME]] = {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                       "durations": []}
        duration = span[END] - span[START]
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - span[CHILD]
        entry["durations"].append(duration)
    return out
