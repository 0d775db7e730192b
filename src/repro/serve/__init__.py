"""``repro.serve`` — high-throughput online inference engine.

Turns the single-forward speed of the compiled nn forward into
*serving throughput* for the paper's deployment setting (a fab
classifying a continuous wafer stream, Sec. I / Fig. 1).  Cooperating
pieces:

* :mod:`~repro.serve.batcher` — :class:`MicroBatcher`, work-conserving
  micro-batching (a free runner takes everything pending), plus
  explicit :class:`Overloaded` backpressure;
* :mod:`~repro.serve.cache` — :class:`ResultCache`, byte-exact
  content-hash LRU result cache under a byte budget;
* :mod:`~repro.serve.backend` — :class:`InProcessBackend`, the model
  compiled for the batch capacity and called on the runner thread;
* :mod:`~repro.serve.engine` — :class:`ServeEngine`, tying the three
  together on one in-process lane with obs metrics, per-batch tracer
  spans, blue-green model swaps, and idle-time arena reclamation;
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
from .backend import InProcessBackend, make_backend, model_infer_fn
from .batcher import (
    SHED_BUCKET_EXHAUSTED,
    SHED_LABEL_BUDGET,
    SHED_LABEL_QUEUE_FULL,
    SHED_QUEUE_FULL,
    SHED_REASONS,
    MicroBatcher,
    Overloaded,
)
from .cache import CachedResult, ResultCache, exact_key
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
    "SHED_LABEL_QUEUE_FULL",
    "SHED_LABEL_BUDGET",
    "SHED_REASONS",
    "InvalidInput",
    "SwapFailed",
    "SwapReport",
    "ResultCache",
    "CachedResult",
    "exact_key",
    "InProcessBackend",
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
