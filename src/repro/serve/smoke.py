"""Serving smoke test (``python -m repro.serve.smoke``).

A fast end-to-end exercise of the serving stack — micro-batcher,
content-hash cache and the in-process lane — on a tiny SelectiveNet.
Exits non-zero if any served decision or label diverges from direct
``predict_selective`` or if duplicate traffic fails to hit the cache.  ``scripts/check.sh``
runs it under a hard timeout.
"""

from __future__ import annotations

import sys

import numpy as np

from ..core.cnn import BackboneConfig
from ..core.selective import SelectiveNet
from ..data.wafer import grid_to_tensor
from ..obs.metrics import MetricsRegistry
from .engine import ServeConfig, ServeEngine

#: Probability/score agreement tolerance between served (batched) and
#: direct outputs: GEMM blocking differs with batch shape, so float32
#: results agree to rounding, not bitwise.
ATOL = 1e-5


def _tiny_model() -> SelectiveNet:
    return SelectiveNet(
        4,
        BackboneConfig(
            input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=11,
        ),
    )


def _grids(n: int, size: int = 16, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=(n, size, size)).astype(np.uint8)


def _check_match(results, reference, what: str) -> bool:
    labels = np.array([r.label for r in results])
    accepted = np.array([r.accepted for r in results])
    if not np.array_equal(labels, reference.labels):
        print(f"FAIL: {what}: served labels diverge from predict_selective")
        return False
    if not np.array_equal(accepted, reference.accepted):
        print(f"FAIL: {what}: served decisions diverge from predict_selective")
        return False
    probs = np.stack([r.probabilities for r in results])
    if not np.allclose(probs, reference.probabilities, atol=ATOL):
        print(f"FAIL: {what}: served probabilities drift beyond {ATOL}")
        return False
    return True


def main() -> int:
    model = _tiny_model()
    grids = _grids(32)
    tensors = np.stack([grid_to_tensor(g) for g in grids])
    reference = model.predict_selective(tensors)

    registry = MetricsRegistry()
    config = ServeConfig(max_batch_size=8, queue_limit=256)
    with ServeEngine(model, config, registry=registry) as engine:
        results = engine.classify_many(list(grids), timeout=60.0)
        if not _check_match(results, reference, "batched"):
            return 1
        # Re-sending wafers already served must hit the cache.
        duplicates = engine.classify_many(list(grids[:8]), timeout=60.0)
        hits = engine.cache.hits
        if hits < 8:
            print(f"FAIL: duplicate traffic got only {hits} cache hits (< 8)")
            return 1
        for duplicate, original in zip(duplicates, results[:8]):
            if duplicate.label != original.label or not duplicate.cached:
                print("FAIL: cached result diverges from its source computation")
                return 1
    print(f"serve smoke: batched + cache OK ({hits} hits, "
          f"{registry.counter('serve.batches_total').value} batches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
