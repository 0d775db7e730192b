"""``repro.stream`` — continual operations for the fab wafer stream.

The paper's deployment setting (Sec. I) is an open-ended stream whose
distribution drifts; its selective model hands rejected wafers "on for
manual classification".  This package operationalizes the complete
loop around those two facts:

* :mod:`~repro.stream.simulator` — seeded, replayable
  :class:`WaferStream` with scripted concept-shift episodes (elevated
  background noise, mixed patterns, novel out-of-vocabulary classes)
  and a digest-stamped JSONL episode trace;
* :mod:`~repro.stream.queue` — :class:`HumanLabelQueue`, the bounded
  manual-classification queue: typed ``Overloaded`` sheds on capacity
  and per-window label budget, seeded oracle labeler with configurable
  latency and accuracy;
* :mod:`~repro.stream.router` — :class:`AbstentionRouter`, the triage
  between :class:`~repro.serve.engine.ServeEngine` and humans, feeding
  the drift-classifying :class:`~repro.obs.monitor.SelectiveMonitor`;
* :mod:`~repro.stream.shadow` — :class:`ShadowTrainer` (fine-tune a
  copy on queued labels, never the serving model) and
  :class:`PromotionController` (pre-gate, atomic
  :meth:`~repro.serve.engine.ServeEngine.swap_model`, trusted-probe
  auto-rollback);
* :mod:`~repro.stream.scenario` — :func:`run_scenario`, the
  deterministic end-to-end harness measuring time-to-detect,
  time-to-recover, and label budget spent, with poisoned-retrain and
  chaos-at-every-swap-point legs.

``python -m repro.stream.smoke`` asserts the whole loop; the
repository benchmark (``fabbench``, workload ``drift_retrain``)
measures it beside live traffic.
"""

from .queue import HumanLabelQueue, LabeledWafer, OracleLabeler
from .router import AbstentionRouter, StepOutcome
from .scenario import (
    SCENARIO_SCHEMA_VERSION,
    SWAP_FAULT_POINTS,
    ScenarioConfig,
    ScenarioResult,
    decision_digest,
    run_scenario,
)
from .shadow import (
    CandidateReport,
    LabelStore,
    PromotionController,
    PromotionReport,
    ShadowTrainer,
)
from .simulator import (
    NOVEL_LABEL,
    TRACE_SCHEMA_VERSION,
    EpisodeSpec,
    StreamBatch,
    StreamConfig,
    WaferStream,
    load_stream_trace,
    save_stream_trace,
    stream_trace_digest,
)

__all__ = [
    "NOVEL_LABEL",
    "TRACE_SCHEMA_VERSION",
    "SCENARIO_SCHEMA_VERSION",
    "SWAP_FAULT_POINTS",
    "EpisodeSpec",
    "StreamBatch",
    "StreamConfig",
    "WaferStream",
    "save_stream_trace",
    "load_stream_trace",
    "stream_trace_digest",
    "OracleLabeler",
    "LabeledWafer",
    "HumanLabelQueue",
    "AbstentionRouter",
    "StepOutcome",
    "LabelStore",
    "ShadowTrainer",
    "CandidateReport",
    "PromotionController",
    "PromotionReport",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "decision_digest",
]
