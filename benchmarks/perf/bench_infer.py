"""Inference benchmarks: conv kernel, CNN forward, SelectiveNet predict.

The headline case is ``cnn_forward`` — the Table-I CNN forward on a
batch, timed on the reference tape path (gradients recorded) and again
under :class:`~repro.nn.tensor.inference_mode` (the same forward with
no tape).  ``conv_forward_inference.speedup_median`` is gated at >= 1x
by ``scripts/check.sh``: eager inference must not lose to the tape.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import nn
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet

from .harness import CaseResult, run_case

__all__ = ["run_infer_suite"]


def _conv_cases(repeats: int, smoke: bool) -> List[CaseResult]:
    """Single Conv2D forward: tape path vs. tape-free eager path."""
    batch, size = (8, 32) if smoke else (64, 64)
    rng = np.random.default_rng(0)
    layer = nn.Conv2D(1, 64, 5, padding="same", rng=rng)
    x_grad = nn.Tensor(rng.normal(size=(batch, 1, size, size)), requires_grad=True)
    x_plain = nn.Tensor(x_grad.data.copy())
    params = {"batch": batch, "input_size": size, "filters": 64, "kernel": 5}

    tape = run_case(
        "conv_forward_tape",
        lambda: layer(x_grad),
        repeats=repeats,
        params=params,
    )

    def fast() -> None:
        with nn.inference_mode():
            layer(x_plain)

    inference = run_case(
        "conv_forward_inference",
        fast,
        repeats=repeats,
        params=params,
        metrics={"speedup_median": tape.wall_s_median},
    )
    inference.metrics["speedup_median"] = tape.wall_s_median / inference.wall_s_median
    return [tape, inference]


def _cnn_cases(repeats: int, smoke: bool) -> List[CaseResult]:
    """Table-I CNN forward, batched — the 2x acceptance workload."""
    batch, size = (8, 32) if smoke else (64, 64)
    config = BackboneConfig(input_size=size)
    model = WaferCNN(num_classes=9, config=config)
    model.eval()
    rng = np.random.default_rng(1)
    x_grad = nn.Tensor(rng.normal(size=(batch, 1, size, size)), requires_grad=True)
    x_plain = nn.Tensor(x_grad.data.copy())
    params = {"batch": batch, "input_size": size, "arch": "table1"}

    tape = run_case(
        "cnn_forward_tape",
        lambda: model(x_grad),
        repeats=repeats,
        params=params,
    )

    def fast() -> None:
        with nn.inference_mode():
            model(x_plain)

    inference = run_case("cnn_forward_inference", fast, repeats=repeats, params=params)
    inference.metrics["speedup_median"] = tape.wall_s_median / inference.wall_s_median
    inference.metrics["speedup_min"] = tape.wall_s_min / inference.wall_s_min
    inference.metrics["throughput_samples_per_s"] = batch / inference.wall_s_median
    return [tape, inference]


def _selective_case(repeats: int, smoke: bool) -> CaseResult:
    """End-to-end ``predict_selective`` over a held-out-sized array."""
    count, size = (32, 32) if smoke else (256, 64)
    config = BackboneConfig(input_size=size)
    model = SelectiveNet(num_classes=9, config=config)
    model.eval()
    rng = np.random.default_rng(2)
    inputs = rng.normal(size=(count, 1, size, size)).astype(np.float32)
    case = run_case(
        "selectivenet_predict",
        lambda: model.predict_selective(inputs, batch_size=64),
        repeats=repeats,
        params={"count": count, "input_size": size, "batch_size": 64},
    )
    case.metrics["throughput_samples_per_s"] = count / case.wall_s_median
    return case


def run_infer_suite(smoke: bool = False, repeats: int = 5) -> List[CaseResult]:
    """All inference cases; ``smoke=True`` shrinks workloads to seconds."""
    if smoke:
        repeats = min(repeats, 2)
    cases = []
    cases.extend(_conv_cases(repeats, smoke))
    cases.extend(_cnn_cases(repeats, smoke))
    cases.append(_selective_case(repeats, smoke))
    return cases
