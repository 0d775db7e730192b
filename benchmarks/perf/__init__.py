"""Wall-clock micro-benchmarks for repro.nn inference and training.

Unlike the artifact benchmarks one directory up (which regenerate paper
tables), this package measures *performance*: conv forward kernels, the
Table-I CNN forward on the reference tape path vs. the same forward
under :class:`~repro.nn.tensor.inference_mode` (no tape) and compiled,
SelectiveNet end-to-end prediction, one training epoch, data-parallel
scaling, and the disarmed-tracing overhead.

Run it as a module::

    PYTHONPATH=src python -m benchmarks.perf --out-dir benchmarks/perf

which writes one schema-versioned ``BENCH_<suite>.json`` per suite
(see :mod:`benchmarks.perf.harness` for the schema).  ``--smoke``
shrinks every workload so the whole run finishes in seconds — that
tier is wired into ``scripts/check.sh``.  Serving latency and
throughput, open-loop gateway load, checkpoint cost and the drift →
retrain → promote loop are measured end to end by the repository
benchmark (``fabbench``).
"""

from .harness import BENCH_SCHEMA_VERSION, CaseResult, machine_info, run_case, write_suite

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "CaseResult",
    "machine_info",
    "run_case",
    "write_suite",
]
