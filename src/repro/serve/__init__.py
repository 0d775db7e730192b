"""``repro.serve`` — high-throughput online inference engine.

Turns the single-forward speed of the compiled nn forward and the
process machinery of :mod:`repro.parallel` into *serving throughput*
for the paper's deployment setting (a fab classifying a continuous
wafer stream, Sec. I / Fig. 1).  Four cooperating pieces:

* :mod:`~repro.serve.batcher` — :class:`MicroBatcher`, work-conserving
  micro-batching (a free lane takes everything pending) with an opt-in
  linger, plus explicit :class:`Overloaded` backpressure;
* :mod:`~repro.serve.cache` — :class:`ResultCache`, content-hash
  (byte-exact or dihedral-canonical) LRU result cache under a byte
  budget;
* :mod:`~repro.serve.backend` — one in-process lane or N model
  replicas in worker processes fed through a shared-memory arena;
* :mod:`~repro.serve.engine` — :class:`ServeEngine`, tying the three
  together with obs metrics, per-batch tracer spans, and idle-time
  scratch reclamation;
* :mod:`~repro.serve.gateway` — :class:`Gateway`, the asyncio traffic
  front door: length-prefixed JSON-over-TCP
  (:mod:`~repro.serve.protocol`), per-tenant token-bucket admission
  (:mod:`~repro.serve.admission`), and typed shed reasons end to end;
* :mod:`~repro.serve.loadgen` — seeded Poisson / bursty traffic
  traces, replayable as JSONL, and their deterministic admission
  replay.  Live open-loop load is measured by the repository
  benchmark (``fabbench``, workload ``serve_frontdoor``).

>>> from repro.serve import ServeConfig, ServeEngine
>>> engine = ServeEngine(model, ServeConfig(max_batch_size=32))   # doctest: +SKIP
>>> result = engine.classify(grid)                                # doctest: +SKIP
>>> result.label                                                  # doctest: +SKIP
3

``python -m repro.serve.smoke`` is the fast end-to-end check.
"""

from .admission import AdmissionController, ManualClock, TenantPolicy, TokenBucket
from .backend import InProcessBackend, ReplicaPoolBackend, make_backend, model_infer_fn
from .batcher import (
    SHED_BREAKER_OPEN,
    SHED_BUCKET_EXHAUSTED,
    SHED_LABEL_BUDGET,
    SHED_LABEL_QUEUE_FULL,
    SHED_QUEUE_FULL,
    SHED_REASONS,
    MicroBatcher,
    Overloaded,
)
from .cache import CachedResult, ResultCache, dihedral_key, exact_key
from .engine import (
    InvalidInput,
    PendingResult,
    ServeConfig,
    ServeEngine,
    ServeResult,
    SwapFailed,
    SwapReport,
)
from .gateway import (
    Gateway,
    GatewayConfig,
    InProcessGatewayClient,
    TCPGatewayClient,
)
from .protocol import FrameDecoder, FrameTooLarge, ProtocolError

__all__ = [
    "MicroBatcher",
    "Overloaded",
    "SHED_QUEUE_FULL",
    "SHED_BUCKET_EXHAUSTED",
    "SHED_BREAKER_OPEN",
    "SHED_LABEL_QUEUE_FULL",
    "SHED_LABEL_BUDGET",
    "SHED_REASONS",
    "InvalidInput",
    "SwapFailed",
    "SwapReport",
    "ResultCache",
    "CachedResult",
    "exact_key",
    "dihedral_key",
    "InProcessBackend",
    "ReplicaPoolBackend",
    "make_backend",
    "model_infer_fn",
    "ServeConfig",
    "ServeEngine",
    "ServeResult",
    "PendingResult",
    "Gateway",
    "GatewayConfig",
    "InProcessGatewayClient",
    "TCPGatewayClient",
    "AdmissionController",
    "TokenBucket",
    "TenantPolicy",
    "ManualClock",
    "ProtocolError",
    "FrameTooLarge",
    "FrameDecoder",
]
