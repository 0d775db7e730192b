"""Worker-scaling benchmarks for ``repro.parallel``.

Two groups of cases:

* ``train_step_w{N}`` — mean train-step wall-clock on the Table-I CNN
  for 1 (in-process), 2, and 4 workers, with ``speedup_vs_serial``;
  every batch holds two 32-row shards, smoke included, and the suite
  fails unless each worker count ends on the parameter bytes of w1;
* ``augment_w{N}`` — per-class augmentation (auto-encoder training +
  synthetic generation, >= 2 minority classes) serial vs fanned out.

A worker count above the usable cores (:func:`repro.parallel.usable_cores`)
is refused, not recorded: it would measure oversubscription, not
scaling.  ``machine.cpu_count`` in the emitted JSON says which counts
could run.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.augmentation import AugmentationConfig, augment_dataset
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.trainer import TrainConfig, Trainer
from repro.data.dataset import WaferDataset
from repro.parallel import parallel_supported, usable_cores

from .harness import CaseResult, run_case

__all__ = ["run_parallel_suite"]


def _synthetic_dataset(count: int, size: int, num_classes: int, seed: int = 0) -> WaferDataset:
    rng = np.random.default_rng(seed)
    grids = rng.integers(0, 3, size=(count, size, size)).astype(np.uint8)
    labels = rng.integers(0, num_classes, size=count).astype(np.int64)
    names = tuple(f"class{i}" for i in range(num_classes))
    return WaferDataset(grids=grids, labels=labels, class_names=names)


def _imbalanced_dataset(majority: int, minority: int, size: int, seed: int = 0) -> WaferDataset:
    """Three classes: one majority plus two minority classes to augment."""
    rng = np.random.default_rng(seed)
    counts = (majority, minority, minority)
    grids = np.concatenate([
        rng.integers(0, 3, size=(count, size, size)).astype(np.uint8)
        for count in counts
    ])
    labels = np.concatenate([
        np.full(count, label, dtype=np.int64) for label, count in enumerate(counts)
    ])
    return WaferDataset(grids=grids, labels=labels, class_names=("maj", "min_a", "min_b"))


def _worker_counts(counts) -> List[int]:
    """``counts`` that this machine can run: 1 always, more only up to
    the usable cores and where multiprocessing works."""
    allowed = []
    for workers in counts:
        if workers > 1 and (workers > usable_cores() or not parallel_supported(workers)):
            print(f"bench_parallel: refusing {workers} workers "
                  f"({usable_cores()} usable cores)")
            continue
        allowed.append(workers)
    return allowed


def _train_step_cases(smoke: bool, repeats: int) -> List[CaseResult]:
    count, size, batch = (64, 32, 64) if smoke else (128, 64, 64)
    num_classes = 4
    dataset = _synthetic_dataset(count, size, num_classes)
    config = BackboneConfig(input_size=size)
    steps = max(1, (count + batch - 1) // batch)
    final_bytes = {}

    def one_epoch(num_workers: int):
        def run() -> None:
            model = WaferCNN(num_classes=num_classes, config=config)
            trainer = Trainer(
                model,
                TrainConfig(
                    epochs=1, batch_size=batch, shuffle=False, seed=0,
                    num_workers=num_workers,
                ),
            )
            trainer.fit(dataset)
            final_bytes[num_workers] = [p.data.tobytes() for p in model.parameters()]
        return run

    cases: List[CaseResult] = []
    serial_step = None
    for workers in _worker_counts((1, 2, 4)):
        case = run_case(
            f"train_step_w{workers}",
            one_epoch(workers),
            repeats=repeats,
            warmup=1,
            params={
                "samples": count, "input_size": size, "batch_size": batch,
                "arch": "table1", "num_workers": workers, "steps": steps,
            },
        )
        if final_bytes[workers] != final_bytes[1]:
            raise RuntimeError(
                f"train_step_w{workers} ended on other parameter bytes than w1"
            )
        step_s = case.wall_s_median / steps
        case.metrics["step_s"] = step_s
        case.metrics["samples_per_s"] = count / case.wall_s_median
        if workers == 1:
            serial_step = step_s
        else:
            case.metrics["speedup_vs_serial"] = serial_step / step_s
        cases.append(case)
    return cases


def _augment_cases(smoke: bool, repeats: int) -> List[CaseResult]:
    majority, minority, size = (24, 4, 16) if smoke else (64, 8, 32)
    dataset = _imbalanced_dataset(majority, minority, size)
    config = AugmentationConfig(
        target_count=majority,
        ae_epochs=2 if smoke else 5,
        ae_batch_size=8,
        realias_range=None,
        seed=0,
    )

    def augment(num_workers: int):
        def run() -> None:
            augment_dataset(dataset, config, num_workers=num_workers)
        return run

    cases: List[CaseResult] = []
    serial = None
    for workers in _worker_counts((1, 2)):
        case = run_case(
            f"augment_w{workers}",
            augment(workers),
            repeats=repeats,
            warmup=1,
            params={
                "minority_classes": 2, "minority_count": minority,
                "target_count": majority, "input_size": size,
                "ae_epochs": config.ae_epochs, "num_workers": workers,
            },
        )
        if workers == 1:
            serial = case.wall_s_median
        else:
            case.metrics["speedup_vs_serial"] = serial / case.wall_s_median
        cases.append(case)
    return cases


def run_parallel_suite(smoke: bool = False, repeats: int = 3) -> List[CaseResult]:
    """Worker-scaling curves; ``smoke=True`` shrinks every workload."""
    if smoke:
        repeats = min(repeats, 1)
    cases = _train_step_cases(smoke, repeats)
    cases.extend(_augment_cases(smoke, repeats))
    return cases
