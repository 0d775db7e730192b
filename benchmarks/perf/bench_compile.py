"""Compiler benchmarks: compiled inference vs the tape and eager paths.

The acceptance set (gated by ``scripts/check.sh`` via the committed
``BENCH_compile.json``):

* ``cnn_forward_compiled.speedup_vs_tape`` — the compiled Table-I CNN
  batched forward must keep a >= 2.0x win over the tape path;
* ``conv_forward_compiled.speedup_vs_tape`` — a *single* compiled conv
  layer must not lose to the tape path (>= 1.0x): with one op there is
  nothing to fuse, so this pins the compiler's dispatch+arena overhead
  at zero net cost.

``compile_cold`` times the full trace→fuse→plan→lower pipeline and
records the planner/fusion telemetry (kernel count, ops fused, arena
bytes, arena reuse ratio) so compile-time regressions and planner
quality are visible in the committed artifact.

The thread-scaling section (``*_threaded_t{1,2,4}``) measures the
threaded backend against a same-run numpy-backend baseline on the
compiled CNN and a single conv; ``scripts/check.sh`` gates
``cnn_forward_threaded_t1.speedup_vs_numpy >= 0.95`` — with one worker
the threaded backend degenerates to the serial tile sequence, so
parallelism being unavailable must cost nothing.  Multi-thread points
are the scaling curve; on a single-CPU container they measure
scheduling overhead, not speedup (flagged in machine_info warnings).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import nn
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet
from repro.nn.compile import (
    compiled_for,
    configure_threads,
    eager_only,
    get_backend,
    thread_count,
)
from repro.nn.compile.api import _build_graph
from repro.nn.compile.executor import CompiledGraph
from repro.nn.compile.fuse import fuse_graph
from repro.nn.compile.plan import plan_buffers

from .harness import CaseResult, run_case

__all__ = ["run_compile_suite"]


def _conv_cases(repeats: int, smoke: bool) -> List[CaseResult]:
    """Single Conv2D: tape reference vs the compiled singleton kernel."""
    batch, size = (8, 32) if smoke else (64, 64)
    rng = np.random.default_rng(0)
    layer = nn.Conv2D(1, 64, 5, padding="same", rng=rng)
    layer.eval()  # try_run only compiles eval-mode modules
    x_grad = nn.Tensor(rng.normal(size=(batch, 1, size, size)), requires_grad=True)
    x_plain = np.ascontiguousarray(x_grad.data)
    params = {"batch": batch, "input_size": size, "filters": 64, "kernel": 5}

    tape = run_case(
        "conv_forward_tape", lambda: layer(x_grad), repeats=repeats, params=params
    )

    compiled_layer = compiled_for(layer)
    assert compiled_layer.try_run(x_plain) is not None, "conv layer must compile"
    compiled = run_case(
        "conv_forward_compiled",
        lambda: compiled_layer.try_run(x_plain),
        repeats=repeats,
        params=params,
    )
    compiled.metrics["speedup_vs_tape"] = tape.wall_s_median / compiled.wall_s_median
    return [tape, compiled]


def _cnn_cases(repeats: int, smoke: bool) -> List[CaseResult]:
    """Table-I CNN batched forward: tape vs compiled.

    The compiled case runs the full ``predict_proba`` graph (including
    the softmax the tape case stops short of), so its speedup is
    measured conservatively.
    """
    batch, size = (8, 32) if smoke else (64, 64)
    config = BackboneConfig(input_size=size)
    model = WaferCNN(num_classes=9, config=config)
    model.eval()
    rng = np.random.default_rng(1)
    x_grad = nn.Tensor(rng.normal(size=(batch, 1, size, size)), requires_grad=True)
    x_plain = np.ascontiguousarray(x_grad.data)
    params = {"batch": batch, "input_size": size, "arch": "table1"}

    tape = run_case(
        "cnn_forward_tape", lambda: model(x_grad), repeats=repeats, params=params
    )

    compiled_model = compiled_for(model)
    assert compiled_model.try_run(x_plain) is not None, "Table-I CNN must compile"
    compiled = run_case(
        "cnn_forward_compiled",
        lambda: compiled_model.try_run(x_plain),
        repeats=repeats,
        params=params,
    )
    compiled.metrics["speedup_vs_tape"] = tape.wall_s_median / compiled.wall_s_median
    compiled.metrics["throughput_samples_per_s"] = batch / compiled.wall_s_median
    graph = next(iter(compiled_model.graphs.values()))
    compiled.metrics["kernels"] = graph.kernel_count
    compiled.metrics["ops_fused"] = graph.ops_fused
    compiled.metrics["arena_bytes"] = graph.arena_nbytes
    return [tape, compiled]


def _selective_cases(repeats: int, smoke: bool) -> List[CaseResult]:
    """End-to-end ``predict_selective``: eager vs compiled."""
    count, size = (32, 32) if smoke else (256, 64)
    config = BackboneConfig(input_size=size)
    model = SelectiveNet(num_classes=9, config=config)
    model.eval()
    rng = np.random.default_rng(2)
    inputs = rng.normal(size=(count, 1, size, size)).astype(np.float32)
    params = {"count": count, "input_size": size, "batch_size": 64}

    def eager() -> None:
        with eager_only():
            model.predict_selective(inputs, batch_size=64)

    eager_case = run_case(
        "selectivenet_predict_eager", eager, repeats=repeats, params=params
    )
    compiled_case = run_case(
        "selectivenet_predict_compiled",
        lambda: model.predict_selective(inputs, batch_size=64),
        repeats=repeats,
        params=params,
    )
    compiled_case.metrics["speedup_vs_eager"] = (
        eager_case.wall_s_median / compiled_case.wall_s_median
    )
    compiled_case.metrics["throughput_samples_per_s"] = (
        count / compiled_case.wall_s_median
    )
    return [eager_case, compiled_case]


def _compile_cold_case(repeats: int, smoke: bool) -> CaseResult:
    """Cost of one cold trace→fuse→plan→lower, plus planner telemetry."""
    batch, size = (8, 32) if smoke else (64, 64)
    config = BackboneConfig(input_size=size)
    model = WaferCNN(num_classes=9, config=config)
    model.eval()
    shape = (batch, 1, size, size)
    backend = get_backend("numpy")

    def compile_once() -> CompiledGraph:
        graph = _build_graph(model, shape, np.dtype(np.float32))
        program = fuse_graph(graph)
        plan = plan_buffers(program, backend)
        compiled = CompiledGraph(program, plan, backend)
        compiled.run(np.zeros(shape, dtype=np.float32))  # force lowering
        return compiled

    case = run_case(
        "compile_cold",
        compile_once,
        repeats=repeats,
        params={"batch": batch, "input_size": size, "arch": "table1"},
    )
    compiled = compile_once()
    case.metrics["kernels"] = compiled.kernel_count
    case.metrics["ops_fused"] = compiled.ops_fused
    case.metrics["arena_bytes"] = compiled.arena_nbytes
    naive = compiled.plan.peak_naive_bytes
    case.metrics["arena_reuse_ratio"] = naive / max(compiled.arena_nbytes, 1)
    return case


#: Pool sizes of the committed thread-scaling curve.
SCALING_THREADS = (1, 2, 4)


def _thread_scaling_cases(repeats: int, smoke: bool) -> List[CaseResult]:
    """Threaded backend vs a same-run numpy baseline at 1/2/4 threads.

    Both backends execute the *same* compiled graphs (the partition
    plan does not depend on the pool size), so every point is the cost
    of threading alone.  The baseline is measured in this run for the
    same reason the fused-parity case is: cross-file ratios swing with
    machine load, same-run ratios do not.
    """
    batch, size = (8, 32) if smoke else (64, 64)
    rng = np.random.default_rng(3)
    config = BackboneConfig(input_size=size)
    model = WaferCNN(num_classes=9, config=config)
    model.eval()
    x_cnn = rng.normal(size=(batch, 1, size, size)).astype(np.float32)
    conv = nn.Conv2D(1, 64, 5, padding="same", rng=rng)
    conv.eval()
    x_conv = rng.normal(size=(batch, 1, size, size)).astype(np.float32)

    workloads = [
        ("cnn_forward", model, x_cnn, {"arch": "table1"}),
        ("conv_forward", conv, x_conv, {"filters": 64, "kernel": 5}),
    ]
    cases: List[CaseResult] = []
    previous = thread_count()
    try:
        for stem, module, x, extra in workloads:
            base_params = {"batch": batch, "input_size": size, **extra}
            baseline_compiled = compiled_for(module, backend="numpy")
            assert baseline_compiled.try_run(x) is not None
            baseline = run_case(
                f"{stem}_compiled_numpy",
                lambda c=baseline_compiled: c.try_run(x),
                repeats=repeats,
                params={**base_params, "backend": "numpy", "threads": 1},
            )
            cases.append(baseline)
            threaded_compiled = compiled_for(module, backend="threaded")
            for threads in SCALING_THREADS:
                configure_threads(threads)
                assert threaded_compiled.try_run(x) is not None
                case = run_case(
                    f"{stem}_threaded_t{threads}",
                    lambda c=threaded_compiled: c.try_run(x),
                    repeats=repeats,
                    params={**base_params, "backend": "threaded",
                            "threads": threads},
                )
                case.metrics["speedup_vs_numpy"] = (
                    baseline.wall_s_median / case.wall_s_median
                )
                cases.append(case)
    finally:
        configure_threads(previous)
    return cases


def run_compile_suite(smoke: bool = False, repeats: int = 5) -> List[CaseResult]:
    """All compiler cases; ``smoke=True`` shrinks workloads to seconds."""
    if smoke:
        repeats = min(repeats, 2)
    cases: List[CaseResult] = []
    cases.extend(_conv_cases(repeats, smoke))
    cases.extend(_cnn_cases(repeats, smoke))
    cases.extend(_selective_cases(repeats, smoke))
    cases.append(_compile_cold_case(repeats, smoke))
    cases.extend(_thread_scaling_cases(repeats, smoke))
    return cases
