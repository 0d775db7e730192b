"""Model and optimizer checkpointing to ``.npz`` files.

Writes go through :func:`repro.resilience.atomic_savez` (tmp + fsync +
rename), so a crash mid-save leaves the previous archive intact, never
a torn one.  Loads re-raise any unreadable/truncated-archive failure as
:class:`repro.resilience.IntegrityError` *before* touching the target
object — a corrupt file can never half-load a model.
"""

from __future__ import annotations

import os
import zipfile
from typing import Dict, Union

import numpy as np

from ..resilience.atomic import IntegrityError, atomic_savez
from .layers.base import Module
from .optim import Optimizer

__all__ = [
    "save_model",
    "load_model",
    "save_optimizer",
    "load_optimizer",
    "IntegrityError",
]

PathLike = Union[str, "os.PathLike[str]"]


def _read_npz(path: PathLike) -> Dict[str, np.ndarray]:
    """Fully materialize an npz archive, or raise :class:`IntegrityError`.

    Every member is decompressed here (not lazily), so truncation
    anywhere in the archive surfaces as one typed error at load time
    instead of a crash halfway through mutating the caller's state.
    A missing file stays ``FileNotFoundError`` — absent is not corrupt.
    """
    try:
        with np.load(os.fspath(path)) as archive:
            return {key: archive[key] for key in archive.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError) as exc:
        raise IntegrityError(f"{os.fspath(path)}: unreadable archive: {exc}") from exc


def save_model(model: Module, path: PathLike) -> None:
    """Write a module's parameters to a compressed npz.

    Parameter names containing dots are npz-safe, so the state dict maps
    directly onto npz keys.  The write is atomic: readers observe the
    old archive or the complete new one, nothing in between.
    """
    atomic_savez(path, **model.state_dict())


def load_model(model: Module, path: PathLike) -> Module:
    """Load parameters saved with :func:`save_model` into ``model``.

    The model must already be constructed with matching architecture;
    shape mismatches raise ``ValueError`` and leave the model untouched,
    unreadable archives :class:`IntegrityError`.
    """
    state = _read_npz(path)
    model.load_state_dict(state)
    return model


def save_optimizer(optimizer: Optimizer, path: PathLike) -> None:
    """Write optimizer state (learning rate, step count, Adam's moment
    slots) to a compressed npz, atomically.

    Together with :func:`save_model` this makes a training run fully
    resumable: load both and continuing matches the uninterrupted run.
    """
    atomic_savez(path, **optimizer.state_dict())


def load_optimizer(optimizer: Optimizer, path: PathLike) -> Optimizer:
    """Load state saved with :func:`save_optimizer` into ``optimizer``.

    The optimizer must already be constructed over the same parameter
    list (same order and shapes); slot shape mismatches raise
    ``ValueError`` and leave the optimizer untouched, unreadable
    archives :class:`IntegrityError`.
    """
    state = _read_npz(path)
    optimizer.load_state_dict(state)
    return optimizer
