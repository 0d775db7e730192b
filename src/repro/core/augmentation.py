"""Data augmentation for under-represented classes (Algorithm 1).

For a minority class ``cl`` with ``n_cl`` originals and target count
``T``:

1. train a convolutional auto-encoder on the class's training samples;
2. ``n_r = ceil(T / n_cl) - 1`` synthetic variants per original;
3. for each original image and each variant ``i``: perturb the latent
   ``z' = z + N(0, sigma_0^2)``, decode, quantize back to the 3 pixel
   levels, rotate by ``i * 360 / n_r`` degrees, and flip a few random
   die labels (salt-and-pepper);
4. synthetic samples join training with loss weight ``w < 1``.

Only *training* samples of the class feed both the auto-encoder and the
augmentation (the paper keeps the test set purely original).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from ..data.dataset import WaferDataset
from ..data.wafer import (
    add_salt_pepper,
    grid_to_tensor,
    quantize_to_levels,
    resize_grid,
    rotate_grid,
)
from .autoencoder import AutoencoderConfig, ConvAutoencoder, train_autoencoder

__all__ = ["AugmentationConfig", "augment_class", "augment_dataset"]


@dataclass
class AugmentationConfig:
    """Hyper-parameters for Algorithm 1.

    Attributes
    ----------
    target_count:
        ``T`` — minimum samples per class after augmentation (the paper
        uses 8000 at full dataset scale).
    latent_sigma:
        ``sigma_0`` — std-dev of the Gaussian latent perturbation.
    salt_pepper_fraction:
        Fraction of on-wafer dies whose label is flipped per synthetic
        sample ("few die locations" in the paper).
    synthetic_weight:
        ``w`` — loss weight of synthetic samples (< 1).
    realias_range:
        Optional ``(low, high)`` native-resolution range.  Training
        wafers synthesized by :mod:`repro.data.generator` carry the
        blocky aliasing of WM-811K's variable native die-grid sizes,
        but auto-encoder decodes are smooth; re-aliasing each synthetic
        wafer through a random native size keeps the synthetic
        distribution aligned with the originals.  ``None`` disables.
    ae_epochs, ae_batch_size, ae_learning_rate, ae_channels:
        Auto-encoder training budget and architecture.
    seed:
        Base seed; per-class seeds are derived from it.
    """

    target_count: int = 8000
    latent_sigma: float = 0.1
    salt_pepper_fraction: float = 0.01
    synthetic_weight: float = 0.5
    realias_range: Optional[tuple] = (12, 40)
    ae_epochs: int = 40
    ae_batch_size: int = 32
    ae_learning_rate: float = 1e-3
    ae_channels: tuple = (16, 8, 8)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_count <= 0:
            raise ValueError("target_count must be positive")
        if self.latent_sigma < 0:
            raise ValueError("latent_sigma must be non-negative")
        if not 0.0 <= self.salt_pepper_fraction <= 1.0:
            raise ValueError("salt_pepper_fraction must be in [0, 1]")
        if not 0.0 < self.synthetic_weight <= 1.0:
            raise ValueError("synthetic_weight must be in (0, 1]")


def rotations_per_sample(target_count: int, original_count: int) -> int:
    """``n_r = ceil(T / n_cl) - 1`` (Algorithm 1, line 1)."""
    if original_count <= 0:
        raise ValueError("original_count must be positive")
    return max(math.ceil(target_count / original_count) - 1, 0)


def augment_class(
    grids: np.ndarray,
    config: AugmentationConfig,
    autoencoder: Optional[ConvAutoencoder] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Run Algorithm 1 for one class; returns synthetic die grids.

    Parameters
    ----------
    grids:
        ``(n_cl, H, W)`` original training grids of the class.
    autoencoder:
        Optionally a pre-trained auto-encoder (otherwise one is trained
        on ``grids`` per line 1 of the algorithm).
    """
    grids = np.asarray(grids, dtype=np.uint8)
    if grids.ndim != 3:
        raise ValueError("grids must be (N, H, W)")
    n_cl = len(grids)
    if n_cl == 0:
        raise ValueError("cannot augment an empty class")
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    n_r = rotations_per_sample(config.target_count, n_cl)
    if n_r == 0:
        return np.empty((0,) + grids.shape[1:], dtype=np.uint8)

    if autoencoder is None:
        autoencoder = train_autoencoder(
            grids,
            config=AutoencoderConfig(
                input_size=grids.shape[1], channels=config.ae_channels, seed=config.seed
            ),
            epochs=config.ae_epochs,
            batch_size=config.ae_batch_size,
            learning_rate=config.ae_learning_rate,
            seed=config.seed,
        )

    inputs = np.stack([grid_to_tensor(grid) for grid in grids])
    latents = autoencoder.encode_numpy(inputs)
    fail_counts = (grids == 2).reshape(len(grids), -1).sum(axis=1)
    # Each wafer keeps its own silhouette: WM-811K maps come in varying
    # native resolutions, so the off-wafer mask is per-sample.
    masks = grids != 0

    synthetic = []
    for z, fail_count, mask in zip(latents, fail_counts, masks):
        # Batch the n_r perturbed decodes of this sample (lines 4-10).
        noise = rng.normal(0.0, config.latent_sigma, size=(n_r,) + z.shape).astype(np.float32)
        decoded = autoencoder.decode_numpy(z[None] + noise)
        for i in range(n_r):
            # Count-matched quantization keeps the synthetic wafer's
            # failure density equal to its source's (see
            # data.wafer.quantize_to_levels for the rationale).
            grid = quantize_to_levels(decoded[i], mask=mask, fail_count=int(fail_count))
            grid = rotate_grid(grid, i * 360.0 / n_r)
            if config.realias_range is not None:
                low, high = config.realias_range
                native = int(rng.integers(low, high + 1))
                if native < grid.shape[0]:
                    grid = resize_grid(resize_grid(grid, native), grid.shape[0])
            grid = add_salt_pepper(grid, config.salt_pepper_fraction, rng)
            synthetic.append(grid)
    return np.stack(synthetic)


def _augment_one_class(task) -> np.ndarray:
    """Run Algorithm 1 for one class from a self-contained task tuple.

    ``task`` is ``(grids, config_kwargs)`` with the per-class seed
    already derived, so the synthetic output depends only on the class
    itself — never on which other classes are being augmented or on
    which worker handled it.  Top-level so it pickles under any
    multiprocessing start method.
    """
    members, config_kwargs = task
    class_config = AugmentationConfig(**config_kwargs)
    rng = np.random.default_rng(class_config.seed)
    return augment_class(members, class_config, rng=rng)


def augment_dataset(
    train: WaferDataset,
    config: Optional[AugmentationConfig] = None,
    skip_classes: Mapping[str, bool] | None = None,
    verbose: bool = False,
    num_workers: int = 1,
) -> WaferDataset:
    """Augment every under-represented class of a training set.

    Classes whose count already meets ``config.target_count`` are left
    untouched (the paper does not augment ``None``).  Returns a new
    dataset = originals (weight 1) + synthetics (weight ``w``), with
    per-class counts matching Table II's ``Train_aug`` construction:
    ``n_cl * (n_r + 1)`` samples for each augmented class.

    ``num_workers > 1`` fans the per-class work — each class trains its
    own auto-encoder, so the classes are embarrassingly parallel —
    across processes via :func:`repro.parallel.parallel_map`, each class
    to whichever worker is free.  Every class uses an rng derived from
    ``config.seed + label``, and workers and the serial loop alike run
    BLAS on one thread, so the synthetic maps are bit-identical for any
    worker count (including serial).
    """
    from ..parallel import parallel_map

    config = config if config is not None else AugmentationConfig()
    skip = dict(skip_classes or {})

    tasks = []
    task_labels = []
    for label, name in enumerate(train.class_names):
        if skip.get(name):
            continue
        members = train.grids[train.labels == label]
        if len(members) == 0 or len(members) >= config.target_count:
            continue
        if verbose:
            print(f"augmenting {name}: {len(members)} -> target {config.target_count}")
        config_kwargs = {**config.__dict__, "seed": config.seed + label}
        tasks.append((members, config_kwargs))
        task_labels.append(label)

    grids = [train.grids]
    labels = [train.labels]
    weights = [train.weights()]
    for label, synthetic in zip(
        task_labels, parallel_map(_augment_one_class, tasks, num_workers=num_workers)
    ):
        if len(synthetic) == 0:
            continue
        grids.append(synthetic)
        labels.append(np.full(len(synthetic), label, dtype=np.int64))
        weights.append(np.full(len(synthetic), config.synthetic_weight, dtype=np.float32))

    return WaferDataset(
        np.concatenate(grids),
        np.concatenate(labels),
        train.class_names,
        np.concatenate(weights),
    )
