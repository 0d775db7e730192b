"""Dataset container, splits, and mini-batch iteration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .wafer import grid_to_tensor

__all__ = ["WaferDataset", "BatchIterator", "stratified_split"]


@dataclass
class WaferDataset:
    """A labeled collection of wafer die grids.

    Attributes
    ----------
    grids:
        ``(N, H, W)`` uint8 array of die grids with values {0,1,2}.
    labels:
        ``(N,)`` integer class indices into ``class_names``.
    class_names:
        Canonical names for the label indices.
    sample_weights:
        Optional ``(N,)`` float weights; the augmentation pipeline sets
        these to ``w < 1`` for synthetic samples (paper Sec. III-B).
    """

    grids: np.ndarray
    labels: np.ndarray
    class_names: Tuple[str, ...]
    sample_weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.grids = np.asarray(self.grids, dtype=np.uint8)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_names = tuple(self.class_names)
        if self.grids.ndim != 3:
            raise ValueError(f"grids must be (N, H, W), got shape {self.grids.shape}")
        if self.labels.shape != (len(self.grids),):
            raise ValueError("labels must be 1-D and match the number of grids")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise ValueError("labels out of range for class_names")
        if self.sample_weights is not None:
            self.sample_weights = np.asarray(self.sample_weights, dtype=np.float32)
            if self.sample_weights.shape != (len(self.grids),):
                raise ValueError("sample_weights must match the number of grids")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.grids)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def map_size(self) -> int:
        return self.grids.shape[1]

    def weights(self) -> np.ndarray:
        """Per-sample weights, defaulting to all ones."""
        if self.sample_weights is None:
            return np.ones(len(self), dtype=np.float32)
        return self.sample_weights

    def class_counts(self) -> Dict[str, int]:
        """Number of samples per class, keyed by class name."""
        counts = np.bincount(self.labels, minlength=self.num_classes)
        return {name: int(count) for name, count in zip(self.class_names, counts)}

    def tensors(self) -> np.ndarray:
        """All grids as normalized CNN inputs, shape ``(N, 1, H, W)``."""
        return np.stack([grid_to_tensor(grid) for grid in self.grids])

    def subset(self, indices: Sequence[int]) -> "WaferDataset":
        """Dataset restricted to ``indices`` (weights carried along)."""
        indices = np.asarray(indices, dtype=np.intp)
        weights = self.sample_weights[indices] if self.sample_weights is not None else None
        return WaferDataset(self.grids[indices], self.labels[indices], self.class_names, weights)

    def filter_classes(self, keep: Sequence[str], relabel: bool = False) -> "WaferDataset":
        """Keep only the named classes.

        With ``relabel=True`` the kept classes are re-indexed densely in
        their ``keep`` order and ``class_names`` shrinks accordingly —
        used by the leave-one-class-out experiment (Table IV).
        """
        keep = tuple(keep)
        unknown = set(keep) - set(self.class_names)
        if unknown:
            raise ValueError(f"unknown classes: {sorted(unknown)}")
        keep_indices = [self.class_names.index(name) for name in keep]
        selector = np.isin(self.labels, keep_indices)
        grids = self.grids[selector]
        labels = self.labels[selector]
        weights = self.sample_weights[selector] if self.sample_weights is not None else None
        if relabel:
            remap = {old: new for new, old in enumerate(keep_indices)}
            labels = np.array([remap[int(label)] for label in labels], dtype=np.int64)
            return WaferDataset(grids, labels, keep, weights)
        return WaferDataset(grids, labels, self.class_names, weights)

    def merge(self, other: "WaferDataset") -> "WaferDataset":
        """Concatenate two datasets with identical class vocabularies."""
        if self.class_names != other.class_names:
            raise ValueError("cannot merge datasets with different class names")
        if len(self) and len(other) and self.map_size != other.map_size:
            raise ValueError("cannot merge datasets with different map sizes")
        weights = None
        if self.sample_weights is not None or other.sample_weights is not None:
            weights = np.concatenate([self.weights(), other.weights()])
        return WaferDataset(
            np.concatenate([self.grids, other.grids]),
            np.concatenate([self.labels, other.labels]),
            self.class_names,
            weights,
        )

    def shuffled(self, rng: np.random.Generator) -> "WaferDataset":
        """Return a copy with samples in random order."""
        permutation = rng.permutation(len(self))
        return self.subset(permutation)


def stratified_split(
    dataset: WaferDataset,
    fractions: Sequence[float],
    rng: np.random.Generator,
) -> Tuple[WaferDataset, ...]:
    """Split a dataset per-class into parts with the given fractions.

    The paper uses a stratified 0.8:0.2 train-test split of the WM-811K
    "Train" set (Sec. IV-A) and a 0.7:0.1:0.2 split in its
    data-discrepancy study.  Fractions must sum to 1 (within 1e-6).

    Returns one :class:`WaferDataset` per fraction; every class is
    partitioned independently so minority classes appear in all splits
    whenever they have enough samples.
    """
    fractions = list(fractions)
    if any(f <= 0 for f in fractions):
        raise ValueError("all fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-6:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")

    part_indices: list = [[] for _ in fractions]
    for class_index in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == class_index)
        members = rng.permutation(members)
        boundaries = np.floor(np.cumsum(fractions) * len(members)).astype(int)
        start = 0
        for part, stop in enumerate(boundaries):
            part_indices[part].extend(members[start:stop])
            start = stop
    return tuple(
        dataset.subset(rng.permutation(np.asarray(indices, dtype=np.intp)))
        for indices in part_indices
    )


class BatchIterator:
    """Shuffling mini-batch iterator over a :class:`WaferDataset`.

    Yields ``(inputs, labels, weights)`` with inputs already converted
    to normalized ``(B, 1, H, W)`` float tensors.

    Unweighted datasets skip the per-batch weight gather and slice one
    shared all-ones vector instead.
    """

    def __init__(
        self,
        dataset: WaferDataset,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
        drop_last: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.shuffle = shuffle
        self.drop_last = drop_last
        # Tensor conversion is cheap but not free; cache once.
        self._tensors = dataset.tensors()
        # All-ones fast path: without explicit sample weights, one
        # shared vector serves every batch as a contiguous slice.
        self._uniform = dataset.sample_weights is None
        self._weights = dataset.weights()

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            order = self.rng.permutation(order)
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            if self.drop_last and len(batch) < self.batch_size:
                return
            weights = (
                self._weights[: len(batch)] if self._uniform else self._weights[batch]
            )
            yield self._tensors[batch], self.dataset.labels[batch], weights
