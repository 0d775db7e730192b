"""Flight recorder: a bounded ring of recent spans/events, dumped on faults.

Production telemetry answers "how is the system doing"; the flight
recorder answers "what were the last N things it did before it broke".
It is a fixed-capacity in-memory ring that costs nothing until a fault
path — watchdog rollback, worker crash, an injected chaos fault —
asks for a dump, at which point the ring is written
atomically (via :mod:`repro.resilience.atomic`) as a provenance-stamped
JSON file an operator can open cold.

Dumping is opt-in: :func:`dump_flight` is a no-op until a dump
directory is configured, either with :func:`set_flight_dump_dir` or the
``REPRO_FLIGHT_DIR`` environment variable — fault paths can therefore
call it unconditionally.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FLIGHT_DIR_ENV",
    "FlightRecorder",
    "default_flight_recorder",
    "reset_default_flight_recorder",
    "set_flight_dump_dir",
    "flight_dump_dir",
    "record_flight_event",
    "dump_flight",
]

FLIGHT_SCHEMA_VERSION = 1

#: Environment variable naming the dump directory (empty/unset = disabled).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"


class FlightRecorder:
    """Fixed-capacity ring of recent span records and point events.

    Spans arrive from an armed :class:`~repro.obs.trace.Tracer` (which
    mirrors every ingested record here); events arrive from fault-path
    instrumentation (:func:`record_flight_event`).  Both share one ring
    so a dump reads as a single time-ordered story.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._dropped = 0
        self._dumps = 0
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def record_span(self, record: Dict[str, Any]) -> None:
        self._append({"kind": "span", "ts": record.get("start_unix", time.time()),
                      "data": record})

    def record_event(self, name: str, **data: Any) -> None:
        self._append({"kind": "event", "ts": time.time(),
                      "data": {"name": name, "pid": os.getpid(), **data}})

    def _append(self, entry: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(entry)

    # -- reading -------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """Current ring contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Entries evicted by the capacity bound since creation."""
        return self._dropped

    @property
    def dumps(self) -> int:
        """How many dump files this recorder has written."""
        return self._dumps

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # -- dumping -------------------------------------------------------
    def dump(self, path: str, reason: str = "manual") -> str:
        """Write the ring to ``path`` atomically; returns the path.

        The payload is self-describing: schema version, the triggering
        reason, pid/time, provenance (git sha + machine), and the
        entries oldest-first.
        """
        from ..resilience.atomic import atomic_write_text
        from .export import provenance

        payload = {
            "schema": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "provenance": provenance(),
            "dropped": self._dropped,
            "entries": self.snapshot(),
        }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        atomic_write_text(path, json.dumps(payload, indent=2, default=str))
        with self._lock:
            self._dumps += 1
        return path


# ----------------------------------------------------------------------
# Process-global recorder + opt-in dump directory
# ----------------------------------------------------------------------
_default_recorder: Optional[FlightRecorder] = None
_recorder_lock = threading.Lock()
_dump_dir: Optional[str] = None
#: Per-process dump sequence: two dumps with the same reason in the
#: same second still get distinct files.
_dump_seq = itertools.count()


def default_flight_recorder() -> FlightRecorder:
    """The process-global recorder, created on first use."""
    global _default_recorder
    with _recorder_lock:
        if _default_recorder is None:
            _default_recorder = FlightRecorder()
        return _default_recorder


def reset_default_flight_recorder() -> None:
    """Drop the global recorder and dump-dir override (tests)."""
    global _default_recorder, _dump_dir
    with _recorder_lock:
        _default_recorder = None
        _dump_dir = None


def set_flight_dump_dir(path: Optional[str]) -> None:
    """Enable (or with ``None`` disable) automatic fault dumps."""
    global _dump_dir
    _dump_dir = path


def flight_dump_dir() -> Optional[str]:
    """The effective dump directory: explicit setting, else env, else None."""
    if _dump_dir is not None:
        return _dump_dir
    from_env = os.environ.get(FLIGHT_DIR_ENV, "").strip()
    return from_env or None


def record_flight_event(name: str, **data: Any) -> None:
    """Append a fault-path event to the global ring (always cheap)."""
    default_flight_recorder().record_event(name, **data)


def dump_flight(reason: str) -> Optional[str]:
    """Dump the global ring if a dump directory is configured.

    Fault paths call this unconditionally; it returns the written path,
    or ``None`` when dumping is disabled.  Every call writes its own
    file: the name ends in the process's dump sequence number.
    Failures to write are swallowed — the flight recorder must never
    turn a recoverable fault into a fatal one.
    """
    directory = flight_dump_dir()
    if directory is None:
        return None
    stamp = time.strftime("%Y%m%dT%H%M%S")
    safe_reason = "".join(c if c.isalnum() or c in "-_" else "-" for c in reason)
    path = os.path.join(
        directory,
        f"flight_{stamp}_{safe_reason}_pid{os.getpid()}_{next(_dump_seq)}.json",
    )
    try:
        return default_flight_recorder().dump(path, reason=reason)
    except OSError:
        return None
