"""Seeded benchmark inputs: generator wafer maps with the paper's class mix.

Both benchmark processes derive every input from a seed through
:func:`derive`, so the same seed gives byte-identical inputs: the
workload seed for the measured phase, the workload's fixed model seed
for the served model and its warm-up.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np


def derive(seed: int, purpose: str) -> int:
    """A stable 31-bit sub-seed for one use of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def arch_kwargs(arch: dict) -> dict:
    """``BackboneConfig`` keyword arguments from their JSON form."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in arch.items()}


def paper_maps(count: int, size: int, seed: int,
               classes: Optional[Sequence[str]] = None):
    """A shuffled :class:`~repro.data.WaferDataset` of about ``count`` maps.

    Class counts follow the paper's Table II training column (restricted
    to ``classes`` when given), every class keeping at least one map;
    the dataset is trimmed to exactly ``count`` after shuffling.
    """
    from repro.data import PAPER_TRAIN_COUNTS, generate_dataset

    names = tuple(classes) if classes is not None else tuple(PAPER_TRAIN_COUNTS)
    mix = {name: PAPER_TRAIN_COUNTS[name] for name in names}
    total = float(sum(mix.values()))
    counts = {name: max(1, int(round(count * n / total))) for name, n in mix.items()}
    # Top up the majority class so at least ``count`` maps exist.
    shortfall = count - sum(counts.values())
    if shortfall > 0:
        counts[max(mix, key=mix.get)] += shortfall
    dataset = generate_dataset(counts, size=size, seed=seed, class_names=names)
    return dataset.subset(np.arange(count))


def unique_maps(count: int, size: int, seed: int,
                classes: Optional[Sequence[str]] = None):
    """:func:`paper_maps` without byte-identical repeats.

    Small defect-free maps can coincide; the serving workloads control
    cache hits themselves, so accidental twins are dropped and replaced.
    """
    from repro.data import WaferDataset

    grids, labels, seen = [], [], set()
    attempt = 0
    while len(grids) < count:
        data = paper_maps(count + count // 10, size, derive(seed, f"unique{attempt}"), classes)
        for grid, label in zip(data.grids, data.labels):
            key = grid.tobytes()
            if key not in seen and len(grids) < count:
                seen.add(key)
                grids.append(grid)
                labels.append(label)
        attempt += 1
    return WaferDataset(np.stack(grids), np.asarray(labels), data.class_names)
