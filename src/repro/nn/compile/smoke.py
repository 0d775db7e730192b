"""Compiler smoke check: ``python -m repro.nn.compile.smoke``.

Builds a small Table-I-shaped CNN and a SelectiveNet whose second conv
narrows (8 -> 4 channels, the transposed-conv route), compiles each
once at a batch capacity of 16, runs it at batch sizes 1, 5 and 16,
and asserts the compiled outputs are **bit-identical** to the eager
``inference_mode`` outputs at every size — and that each model
compiled exactly one graph.  Prints a one-line JSON summary and exits
nonzero on any failure, so CI (``scripts/check.sh``) can gate on it in
a few seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np


#: Capacity every model is compiled at, and the batch sizes run on it.
CAPACITY = 16
BATCH_SIZES = (1, 5, 16)


def _check(model_name: str, compiled, x, reference: dict) -> dict:
    """Run ``compiled`` at every size in :data:`BATCH_SIZES` against the
    eager ``reference[n]`` outputs."""
    ok = compiled.reserve(x, CAPACITY)
    for n in BATCH_SIZES:
        out = compiled.try_run(x[:n])
        ok = ok and out is not None and all(
            np.array_equal(got, want) for got, want in zip(out, reference[n])
        )
    graphs = list(compiled.graphs.values())
    graph = graphs[0] if graphs else None
    return {
        "model": model_name,
        "graphs": len(graphs),
        "bit_identical": bool(ok),
        "kernels": graph.kernel_count if graph else 0,
        "ops_fused": graph.ops_fused if graph else 0,
        "arena_bytes": graph.arena_nbytes if graph else 0,
    }


def run_smoke() -> dict:
    from ...core.cnn import BackboneConfig, WaferCNN
    from ...core.selective import SelectiveNet
    from . import compile_module, eager_only

    # The 8 -> 4 conv narrows, so it runs the transposed-conv lowering.
    config = BackboneConfig(
        input_size=32, conv_channels=(8, 4), conv_kernels=(5, 3), fc_units=32, seed=3
    )
    rng = np.random.default_rng(99)
    x = rng.normal(size=(CAPACITY, 1, 32, 32)).astype(np.float32)

    summary = {"capacity": CAPACITY, "batch_sizes": list(BATCH_SIZES),
               "checks": [], "ok": True}

    cnn = WaferCNN(num_classes=5, config=config)
    cnn.eval()
    net = SelectiveNet(num_classes=5, config=config)
    net.eval()
    with eager_only():
        cnn_ref = {n: (cnn.predict_proba(x[:n], batch_size=n),) for n in BATCH_SIZES}
        net_ref = {n: net.predict_batched(x[:n], batch_size=n) for n in BATCH_SIZES}

    for name, model, ref in (
        ("WaferCNN", cnn, cnn_ref),
        ("SelectiveNet", net, net_ref),
    ):
        # A fresh wrapper per check, so its graph count is its own.
        check = _check(name, compile_module(model), x, ref)
        summary["checks"].append(check)
        summary["ok"] &= check["bit_identical"] and check["graphs"] == 1
    summary["ok"] = bool(summary["ok"])
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.nn.compile.smoke",
        description="Compile two reference models once each and check bit-identity.",
    )
    parser.parse_args(argv)
    summary = run_smoke()
    print(json.dumps(summary))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
