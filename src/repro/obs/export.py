"""Metric exporters: Prometheus text format, JSON snapshots, provenance.

The registry (:mod:`repro.obs.metrics`) holds numbers in memory; this
module turns them into bytes other systems consume:

* :func:`to_prometheus` renders a summary snapshot in the Prometheus
  text exposition format (counters, gauges, and histogram summaries as
  quantile-labelled summary metrics);
* :func:`lint_prometheus` is a self-contained exposition-format checker
  used by the CI gate, so a malformed rename never reaches a scraper;
* :func:`to_json` / :class:`SnapshotWriter` persist machine-readable
  snapshots (atomically) for the ops console and offline analysis;
* :func:`provenance` is the **one** provenance block — git sha,
  machine description, obs schema versions — stamped into every
  ``BENCH_*.json``, flight dump, and exported snapshot, so any emitted
  artifact is attributable to a commit and a machine.

Run as a CLI::

    python -m repro.obs.export --format prometheus --demo
    python -m repro.obs.export --format json --snapshot run/metrics.json
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "OBS_SCHEMA_VERSIONS",
    "machine_info",
    "provenance",
    "to_prometheus",
    "lint_prometheus",
    "to_json",
    "SnapshotWriter",
    "main",
]


def _obs_schema_versions() -> Dict[str, int]:
    from .events import SCHEMA_VERSION as EVENTS_SCHEMA_VERSION
    from .flight import FLIGHT_SCHEMA_VERSION
    from .trace import TRACE_SCHEMA_VERSION

    return {
        "events": EVENTS_SCHEMA_VERSION,
        "trace": TRACE_SCHEMA_VERSION,
        "flight": FLIGHT_SCHEMA_VERSION,
    }


#: Schema versions of every obs wire format, stamped into provenance.
OBS_SCHEMA_VERSIONS = _obs_schema_versions()


@functools.lru_cache(maxsize=None)
def _git_sha() -> Optional[str]:
    """Commit SHA of the working tree (``+dirty`` suffix), or None.

    Committed artifacts need to be attributable to a commit to compare
    runs; swallow every failure mode (no git binary, not a repository,
    timeout) — exporters must run anywhere.  Computed once per process,
    so the sha names the code this process imported, even if the tree
    is edited later, and a flight dump runs no subprocess.
    """
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        dirty = "+dirty" if status.returncode == 0 and status.stdout.strip() else ""
        return sha.stdout.strip() + dirty
    except (OSError, subprocess.SubprocessError):
        return None


def machine_info() -> Dict[str, Any]:
    """Where the numbers came from — needed to compare across runs.

    The ``env`` block records the BLAS threadpool knobs: worker-scaling
    numbers are meaningless without knowing whether the serial baseline
    was itself multi-threaded.  ``warnings`` makes the single-core
    caveat machine-readable instead of prose-only (parallel scaling
    curves measure protocol overhead, not speedup, on one CPU).
    """
    import numpy as np

    from ..parallel import BLAS_ENV_VARS

    cpu_count = os.cpu_count()
    warnings = []
    if cpu_count == 1:
        warnings.append(
            "single-CPU machine: worker scaling cases measure "
            "protocol overhead, not parallel speedup"
        )
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": cpu_count,
        "warnings": warnings,
        "env": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
    }


def provenance() -> Dict[str, Any]:
    """The shared provenance block for every emitted artifact.

    One helper instead of per-emitter copies: ``BENCH_*.json`` suites,
    flight dumps, and exported snapshots all stamp this block, so a
    file found cold is attributable to a commit, a machine, and the
    schema versions that wrote it.
    """
    return {
        "git_sha": _git_sha(),
        "machine": machine_info(),
        "obs_schema": dict(OBS_SCHEMA_VERSIONS),
        "created_unix": time.time(),
    }


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))"
    r"(?: [0-9]+)?$"
)
_LABELS_OK = re.compile(
    r'^\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}$'
)


def _prom_name(name: str, prefix: str = "repro") -> str:
    """Map a dotted metric name onto the Prometheus grammar."""
    flat = re.sub(r"[^a-zA-Z0-9_:]", "_", f"{prefix}_{name}" if prefix else name)
    if not _NAME_OK.match(flat):
        flat = "_" + flat
    return flat


def _fmt(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def to_prometheus(snapshot: Dict[str, Any], prefix: str = "repro") -> str:
    """Render a summary snapshot as Prometheus text exposition format.

    Accepts the shape produced by ``MetricsRegistry.snapshot()``:
    counters and gauges as scalars, histograms as summary dicts —
    exported as Prometheus *summary* metrics (quantile-labelled samples
    plus ``_sum`` and ``_count`` series).
    """
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        flat = _prom_name(name, prefix)
        lines.append(f"# HELP {flat} Counter {name}")
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_fmt(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        flat = _prom_name(name, prefix)
        lines.append(f"# HELP {flat} Gauge {name}")
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_fmt(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        summary = snapshot["histograms"][name]
        flat = _prom_name(name, prefix)
        lines.append(f"# HELP {flat} Histogram {name}")
        lines.append(f"# TYPE {flat} summary")
        for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            lines.append(
                f'{flat}{{quantile="{q_label}"}} {_fmt(summary.get(q_key, 0.0))}'
            )
        lines.append(f"{flat}_sum {_fmt(summary.get('sum', 0.0))}")
        lines.append(f"{flat}_count {_fmt(summary.get('count', 0))}")
    return "\n".join(lines) + "\n" if lines else ""


def lint_prometheus(text: str) -> List[str]:
    """Check exposition-format text; returns a list of problems.

    Self-contained (no prometheus client dependency): validates line
    grammar, label syntax, that every sample's base name has a ``TYPE``
    declared before it, and that no name is ``TYPE``-declared twice.
    An empty list means the text is clean.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {lineno}: unknown comment keyword {parts[1]!r}")
                continue
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    problems.append(f"line {lineno}: malformed TYPE line")
                    continue
                _, _, name, kind = parts
                if kind not in ("counter", "gauge", "summary", "histogram", "untyped"):
                    problems.append(f"line {lineno}: unknown metric type {kind!r}")
                if name in typed:
                    problems.append(f"line {lineno}: duplicate TYPE for {name!r}")
                typed[name] = kind
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            problems.append(f"line {lineno}: malformed sample line {line!r}")
            continue
        labels = match.group("labels")
        if labels and not _LABELS_OK.match(labels):
            problems.append(f"line {lineno}: malformed labels {labels!r}")
        name = match.group("name")
        base = re.sub(r"_(sum|count|bucket|total)$", "", name)
        if name not in typed and base not in typed:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE declaration")
    return problems


# ----------------------------------------------------------------------
# JSON snapshots
# ----------------------------------------------------------------------
def to_json(
    snapshot: Dict[str, Any], indent: Optional[int] = 2, stamp: bool = True
) -> str:
    """Serialize a snapshot (optionally provenance-stamped) as JSON."""
    payload: Dict[str, Any] = dict(snapshot)
    if stamp:
        payload = {"provenance": provenance(), **payload}
    return json.dumps(payload, indent=indent, sort_keys=True, default=str)


class SnapshotWriter:
    """Background thread persisting periodic snapshots atomically.

    ``source`` is any zero-argument callable returning a snapshot dict
    — typically a registry's ``snapshot`` method.  Each tick the
    snapshot is written with
    :func:`repro.resilience.atomic.atomic_write_text`, so a scraper (or
    ``repro.obs.top``) polling the file never reads a torn write.
    """

    def __init__(self, source, path: str, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self._source = source
        self.path = path
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.writes = 0

    def write_once(self) -> None:
        from ..resilience.atomic import atomic_write_text

        atomic_write_text(self.path, to_json(self._source(), stamp=False))
        self.writes += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.write_once()
            except OSError:
                pass  # transient fs trouble must not kill the writer

    def start(self) -> "SnapshotWriter":
        if self._thread is not None:
            raise RuntimeError("snapshot writer already started")
        self.write_once()
        self._thread = threading.Thread(
            target=self._loop, name="obs-snapshot-writer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SnapshotWriter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _demo_snapshot() -> Dict[str, Any]:
    """A small populated registry for trying the exporters offline."""
    from .metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("serve.requests_total").inc(1234)
    registry.counter("serve.shed_total").inc(7)
    registry.counter("serve.cache.hits").inc(311)
    registry.gauge("serve.queue_depth").set(3)
    latency = registry.histogram("serve.latency_s")
    for i in range(500):
        latency.observe(0.002 + 0.0001 * (i % 40))
    return registry.snapshot()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Export a metrics snapshot as Prometheus text or JSON.",
    )
    parser.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus"
    )
    parser.add_argument(
        "--snapshot", metavar="PATH",
        help="snapshot JSON file to export (as written by SnapshotWriter); "
        "default: the process-global registry",
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="export a synthetic populated snapshot instead",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write to PATH (atomic) instead of stdout"
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="lint the rendered Prometheus text and fail on problems",
    )
    args = parser.parse_args(argv)

    if args.demo:
        snapshot = _demo_snapshot()
    elif args.snapshot:
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    else:
        from .metrics import default_registry

        snapshot = default_registry().snapshot()

    if args.format == "prometheus":
        rendered = to_prometheus(snapshot)
        if args.lint:
            problems = lint_prometheus(rendered)
            if problems:
                for problem in problems:
                    print(f"LINT: {problem}", file=sys.stderr)
                return 1
    else:
        rendered = to_json(snapshot) + "\n"

    if args.out:
        from ..resilience.atomic import atomic_write_text

        atomic_write_text(args.out, rendered)
    else:
        sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
