"""Training benchmark: one epoch of the Table-I CNN via the Trainer.

Times the full epoch loop — forward, loss, backward, Adam step — on a
synthetic dataset, as the baseline against which training-path
regressions are judged.  The trainer runs at its defaults, so a batch
of 64 (two 32-row shards) trains on two workers where two cores are
usable; ``params.workers`` records how many ran (0: in-process).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.trainer import TrainConfig, Trainer
from repro.data.dataset import WaferDataset
from repro.parallel import parallel_supported, shard_bounds

from .harness import CaseResult, run_case

__all__ = ["run_train_suite"]


def _synthetic_dataset(count: int, size: int, num_classes: int, seed: int = 0) -> WaferDataset:
    rng = np.random.default_rng(seed)
    grids = rng.integers(0, 3, size=(count, size, size)).astype(np.uint8)
    labels = rng.integers(0, num_classes, size=count).astype(np.int64)
    names = tuple(f"class{i}" for i in range(num_classes))
    return WaferDataset(grids=grids, labels=labels, class_names=names)


def run_train_suite(smoke: bool = False, repeats: int = 3) -> List[CaseResult]:
    """Time one training epoch; ``smoke=True`` shrinks the workload."""
    if smoke:
        repeats = min(repeats, 1)
    count, size, batch = (32, 32, 16) if smoke else (128, 64, 64)
    num_classes = 4
    dataset = _synthetic_dataset(count, size, num_classes)
    config = BackboneConfig(input_size=size)

    def one_epoch() -> None:
        model = WaferCNN(num_classes=num_classes, config=config)
        trainer = Trainer(
            model,
            TrainConfig(epochs=1, batch_size=batch, shuffle=False, seed=0),
        )
        trainer.fit(dataset)

    workers = min(TrainConfig(epochs=1).num_workers, len(shard_bounds(batch)))
    case = run_case(
        "train_epoch_cnn",
        one_epoch,
        repeats=repeats,
        warmup=0,
        params={
            "samples": count, "input_size": size, "batch_size": batch,
            "arch": "table1",
            "workers": workers if parallel_supported(workers) else 0,
        },
    )
    case.metrics["samples_per_s"] = count / case.wall_s_median
    return [case]
