"""Structured run logging: JSONL event records with a stable schema.

A *run* is one training or evaluation session.  :class:`RunLogger`
owns a run directory, appends one JSON object per line to
``events.jsonl`` inside it, and guarantees that :func:`load_run` reads
back exactly the records that were written (the round-trip contract
the tests pin down).

Record schema (version 1) — every record carries:

* ``schema``: integer schema version (:data:`SCHEMA_VERSION`);
* ``run_id``: identifier shared by all records of the run;
* ``seq``: 0-based position of the record within the run;
* ``ts``: unix timestamp (float seconds) when the record was logged;
* ``type``: record kind (``run_start``, ``config``, ``epoch``,
  ``metrics``, ``alert``, ``run_end``, or any custom string);
* ``data``: the JSON-safe payload.

Payloads are sanitized on write (numpy scalars/arrays, dataclasses and
tuples become plain JSON types), so equality after a round-trip is
equality of what was actually persisted.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import threading
import time
import uuid
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

__all__ = ["SCHEMA_VERSION", "RunLogger", "load_run", "iter_records"]

logger = logging.getLogger("repro.obs")

SCHEMA_VERSION = 1

#: Filename used for the event stream inside a run directory.
EVENTS_FILENAME = "events.jsonl"


def _json_safe(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serializable plain types."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else repr(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _json_safe(float(value))
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _json_safe(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    return repr(value)


class RunLogger:
    """Append-only JSONL logger for one run.

    Parameters
    ----------
    run_dir:
        Directory to write into; created (with parents) if missing.
        Callers typically pass something like ``runs/<experiment>``.
    run_id:
        Stable identifier stamped on every record; a random UUID-based
        one is generated when omitted.

    The file handle is opened lazily on the first record and flushed
    after every write so a crashed run still leaves a readable log.
    Use as a context manager to get the ``run_end`` record and the
    file closed automatically.

    Thread-safe: the lazy open, the ``seq`` number, the write and the
    flush of each record happen under one lock, so spans ending on
    several threads (``arm_tracing(run_logger=...)``) can share a
    logger.
    """

    def __init__(self, run_dir: str, run_id: Optional[str] = None) -> None:
        self.run_dir = str(run_dir)
        self.run_id = run_id if run_id is not None else f"run-{uuid.uuid4().hex[:12]}"
        self.path = os.path.join(self.run_dir, EVENTS_FILENAME)
        self._seq = 0
        self._file = None
        self._closed = False
        # Reentrant: close() writes run_end through log() while holding it.
        self._lock = threading.RLock()

    # -- core ----------------------------------------------------------
    def log(self, record_type: str, **data: Any) -> Dict[str, Any]:
        """Append one record; returns the sanitized record as written."""
        with self._lock:
            if self._closed:
                raise RuntimeError("RunLogger is closed")
            record = {
                "schema": SCHEMA_VERSION,
                "run_id": self.run_id,
                "seq": self._seq,
                "ts": time.time(),
                "type": str(record_type),
                "data": _json_safe(data),
            }
            if self._file is None:
                os.makedirs(self.run_dir, exist_ok=True)
                # One run directory per run: a stale events.jsonl from an
                # earlier run would corrupt the seq/run_id invariants, so
                # the stream is truncated rather than appended to.
                self._file = open(self.path, "w", encoding="utf-8")
                if self._seq == 0:
                    # Stamp the stream before the first caller record.
                    self._file.write(json.dumps(self._start_record()) + "\n")
                    self._seq = 1
                    record["seq"] = 1
            self._file.write(json.dumps(record) + "\n")
            self._file.flush()
            self._seq += 1
            return record

    def _start_record(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "seq": 0,
            "ts": time.time(),
            "type": "run_start",
            "data": {"pid": os.getpid()},
        }

    # -- convenience wrappers ------------------------------------------
    def log_config(self, config: Any) -> Dict[str, Any]:
        """Record a run configuration (dataclass or mapping)."""
        return self.log("config", config=config)

    def log_epoch(self, stats: Any) -> Dict[str, Any]:
        """Record per-epoch training statistics (an ``EpochStats``)."""
        return self.log("epoch", stats=stats)

    def log_metrics(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """Record a :meth:`MetricsRegistry.snapshot` export."""
        return self.log("metrics", **snapshot)

    def log_alert(self, message: str, **data: Any) -> Dict[str, Any]:
        return self.log("alert", message=message, **data)

    # -- lifecycle -----------------------------------------------------
    def close(self, **data: Any) -> None:
        """Write the ``run_end`` record, fsync, and close the file.

        The fsync makes the completed stream durable: a machine crash
        right after ``close()`` cannot take the run's records with it.
        """
        with self._lock:
            if self._closed:
                return
            self.log("run_end", **data)
            self._closed = True
            if self._file is not None:
                try:
                    os.fsync(self._file.fileno())
                except OSError:  # pragma: no cover - fsync unsupported
                    pass
                self._file.close()
                self._file = None

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(ok=exc_type is None)


def iter_records(path: str) -> Iterator[Dict[str, Any]]:
    """Yield records from a JSONL event file (or a run directory).

    A *torn tail* — an unparsable **final** line with no trailing
    newline, the signature of a process killed mid-append — is skipped
    with a logged warning: every complete record before it is still
    served.  An unparsable line anywhere else (or one that was fully
    written, newline included) is real corruption and raises
    ``ValueError``.
    """
    if os.path.isdir(path):
        path = os.path.join(path, EVENTS_FILENAME)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for line_number, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            is_last = line_number == len(lines) - 1
            if is_last and not raw.endswith("\n"):
                logger.warning(
                    "%s:%d: dropping torn final record (crash mid-append)",
                    path, line_number + 1,
                )
                return
            raise ValueError(
                f"{path}:{line_number + 1}: malformed event record"
            ) from exc
        yield record


def load_run(path: str, validate: bool = True) -> List[Dict[str, Any]]:
    """Load every record of a run; optionally validate the schema.

    Validation checks each record carries the required keys, a known
    schema version, and strictly increasing ``seq`` numbers from a
    single ``run_id`` — the invariants writers rely on.
    """
    records = list(iter_records(path))
    if validate:
        run_ids = set()
        last_seq = -1
        for record in records:
            missing = {"schema", "run_id", "seq", "ts", "type", "data"} - set(record)
            if missing:
                raise ValueError(f"record missing keys: {sorted(missing)}")
            if record["schema"] > SCHEMA_VERSION:
                raise ValueError(
                    f"record schema {record['schema']} is newer than "
                    f"supported version {SCHEMA_VERSION}"
                )
            if record["seq"] <= last_seq:
                raise ValueError("record seq numbers must strictly increase")
            last_seq = record["seq"]
            run_ids.add(record["run_id"])
        if len(run_ids) > 1:
            raise ValueError(f"event file mixes runs: {sorted(run_ids)}")
    return records
