"""repro.obs — observability for the training/inference stack.

The pillars, one per module:

* :mod:`repro.obs.metrics` — counters, gauges, streaming histograms in
  a :class:`MetricsRegistry` (process-global default + injectable),
  read in the process that records them;
* :mod:`repro.obs.events` — structured JSONL run logs via
  :class:`RunLogger`, round-trippable with :func:`load_run`;
* :mod:`repro.obs.trace` — distributed tracing: request-scoped span
  trees propagated by value across process boundaries, disarmed by
  default at near-zero cost.  Data-parallel workers keep no metrics;
  their per-shard time comes home only as spans;
* :mod:`repro.obs.flight` — a bounded flight-recorder ring of recent
  spans/events, dumped atomically on fault paths;
* :mod:`repro.obs.export` — Prometheus-text / JSON exporters and the
  shared provenance block (``python -m repro.obs.export``);
* :mod:`repro.obs.top` — a terminal ops console for live QPS, latency
  quantiles, shed/hit/abstain rates, and worker respawns
  (``python -m repro.obs.top``);
* :mod:`repro.obs.profile` — per-layer forward/backward profiling
  built on ``nn.Module.register_hook``;
* :mod:`repro.obs.monitor` — :class:`SelectiveMonitor`, rolling
  coverage/abstention telemetry with concept-shift alert hooks.

Everything is opt-in: with tracing disarmed, no logger attached, and no
hooks installed the training and inference hot paths are unchanged.
"""

from .events import SCHEMA_VERSION, RunLogger, iter_records, load_run
from .flight import (
    FlightRecorder,
    default_flight_recorder,
    dump_flight,
    record_flight_event,
    set_flight_dump_dir,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
)
from .monitor import CoverageAlert, SelectiveMonitor
from .profile import LayerProfiler, LayerStats, profile_model
from .trace import (
    Span,
    TraceContext,
    Tracer,
    arm_tracing,
    current_tracer,
    disarm_tracing,
    format_span_tree,
    remote_span,
    span_tree,
    traced,
    tracing_enabled,
)

__all__ = [
    "SCHEMA_VERSION",
    "RunLogger",
    "iter_records",
    "load_run",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "reset_default_registry",
    "Span",
    "TraceContext",
    "Tracer",
    "arm_tracing",
    "current_tracer",
    "disarm_tracing",
    "format_span_tree",
    "remote_span",
    "span_tree",
    "traced",
    "tracing_enabled",
    "FlightRecorder",
    "default_flight_recorder",
    "dump_flight",
    "record_flight_event",
    "set_flight_dump_dir",
    "CoverageAlert",
    "SelectiveMonitor",
    "LayerProfiler",
    "LayerStats",
    "profile_model",
]
