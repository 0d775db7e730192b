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
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import nn
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet
from repro.nn.compile import NumpyBackend, compiled_for, eager_only
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
    backend = NumpyBackend()

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


def run_compile_suite(smoke: bool = False, repeats: int = 5) -> List[CaseResult]:
    """All compiler cases; ``smoke=True`` shrinks workloads to seconds."""
    if smoke:
        repeats = min(repeats, 2)
    cases: List[CaseResult] = []
    cases.extend(_conv_cases(repeats, smoke))
    cases.extend(_cnn_cases(repeats, smoke))
    cases.extend(_selective_cases(repeats, smoke))
    cases.append(_compile_cold_case(repeats, smoke))
    return cases
