"""Compiler smoke check: ``python -m repro.nn.compile.smoke``.

Builds a small Table-I-shaped CNN and a SelectiveNet whose second conv
narrows (8 -> 4 channels, the transposed-conv route), compiles each
once at a batch capacity of 16, runs it at batch sizes 1, 5 and 16,
and asserts the compiled outputs are **bit-identical** to the eager
``inference_mode`` outputs at every size — and that each model
compiled exactly one graph.  Prints a one-line JSON summary and exits
nonzero on any failure, so CI (``scripts/check.sh``) can gate on it in
a few seconds.

``--backend NAME`` selects the compile backend (default ``numpy``);
``--backend threaded`` additionally checks every pool size in
``--threads`` (default ``1,4``) against the same eager reference, so
the CI gate covers both the serial degeneration and a real pool.
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


def run_smoke(backend: Optional[str] = None, threads: Sequence[int] = (1, 4)) -> dict:
    from ...core.cnn import BackboneConfig, WaferCNN
    from ...core.selective import SelectiveNet
    from . import (
        compile_module,
        configure_threads,
        eager_only,
        resolve_backend_name,
        thread_count,
    )

    backend = resolve_backend_name(backend)
    # The 8 -> 4 conv narrows, so it runs the transposed-conv lowering.
    config = BackboneConfig(
        input_size=32, conv_channels=(8, 4), conv_kernels=(5, 3), fc_units=32, seed=3
    )
    rng = np.random.default_rng(99)
    x = rng.normal(size=(CAPACITY, 1, 32, 32)).astype(np.float32)

    summary = {"backend": backend, "capacity": CAPACITY,
               "batch_sizes": list(BATCH_SIZES), "checks": [], "ok": True}

    cnn = WaferCNN(num_classes=5, config=config)
    cnn.eval()
    net = SelectiveNet(num_classes=5, config=config)
    net.eval()
    with eager_only():
        cnn_ref = {n: (cnn.predict_proba(x[:n], batch_size=n),) for n in BATCH_SIZES}
        net_ref = {n: net.predict_batched(x[:n], batch_size=n) for n in BATCH_SIZES}

    pool_sizes = list(threads) if backend == "threaded" else [None]
    previous = thread_count()
    try:
        for pool in pool_sizes:
            if pool is not None:
                configure_threads(pool)
            for name, model, ref in (
                ("WaferCNN", cnn, cnn_ref),
                ("SelectiveNet", net, net_ref),
            ):
                # A fresh wrapper per check, so its graph count is its own.
                compiled = compile_module(model, backend=backend)
                check = _check(name, compiled, x, ref)
                if pool is not None:
                    check["threads"] = pool
                summary["checks"].append(check)
                summary["ok"] &= check["bit_identical"] and check["graphs"] == 1
    finally:
        configure_threads(previous)
    summary["ok"] = bool(summary["ok"])
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.nn.compile.smoke",
        description="Compile two reference models once each and check bit-identity.",
    )
    parser.add_argument(
        "--backend", default=None,
        help="compile backend name (default: REPRO_COMPILE_BACKEND or numpy)",
    )
    parser.add_argument(
        "--threads", default="1,4", metavar="N,N",
        help="comma-separated pool sizes checked with --backend threaded",
    )
    args = parser.parse_args(argv)
    threads = tuple(int(part) for part in args.threads.split(",") if part)
    summary = run_smoke(backend=args.backend, threads=threads)
    print(json.dumps(summary))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
