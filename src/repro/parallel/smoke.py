"""Two-worker training smoke test (``python -m repro.parallel.smoke``).

A fast end-to-end exercise of the whole parallel stack — shared-memory
arena, worker pool, two-phase gradient protocol, in-process fallback —
on a tiny synthetic dataset: batch 64 on 96 maps, so every epoch has a
two-shard batch the workers split and a one-shard tail.  Exits non-zero
unless the two-worker parameters equal a serial run's byte for byte;
``scripts/check.sh`` runs it under a hard timeout.
"""

from __future__ import annotations

import sys

import numpy as np

from ..core.cnn import BackboneConfig, WaferCNN
from ..core.trainer import TrainConfig, Trainer
from ..data.dataset import WaferDataset
from .pool import parallel_supported


def _tiny_dataset(n: int = 96, size: int = 16) -> WaferDataset:
    rng = np.random.default_rng(0)
    grids = rng.integers(0, 3, size=(n, size, size))
    labels = rng.integers(0, 4, size=(n,)).astype(np.int64)
    return WaferDataset(grids, labels, ("a", "b", "c", "d"))


def _train(num_workers: int) -> WaferCNN:
    model = WaferCNN(
        4,
        BackboneConfig(
            input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=7,
        ),
    )
    config = TrainConfig(
        epochs=2, batch_size=64, seed=3, num_workers=num_workers
    )
    Trainer(model, config).fit(_tiny_dataset())
    return model


def main() -> int:
    if not parallel_supported(2):
        print("parallel execution unsupported on this platform; "
              "serial fallback covers it — smoke SKIPPED")
        return 0
    serial = _train(num_workers=1)
    parallel = _train(num_workers=2)
    for (name, p_serial), (_, p_parallel) in zip(
        serial.named_parameters(), parallel.named_parameters()
    ):
        if p_serial.data.tobytes() != p_parallel.data.tobytes():
            worst = float(np.abs(p_serial.data - p_parallel.data).max())
            print(f"FAIL: parameter {name} differs between serial and "
                  f"2-worker training (max |diff| = {worst:.3g})")
            return 1
    print("parallel smoke OK (2 workers, parameters byte-identical to serial)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
