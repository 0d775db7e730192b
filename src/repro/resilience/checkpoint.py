"""Crash-safe training checkpoints: atomic directories + CRC manifests.

A checkpoint is one directory ``ckpt-<epoch>`` holding the model
weights, the optimizer slots, the trainer's RNG state, and arbitrary
extra bookkeeping, covered by a CRC32 :data:`~.atomic.MANIFEST_NAME`.
Writes are staged in a temporary sibling directory and published with
one ``rename``, so a ``SIGKILL`` at any instant leaves either the
previous checkpoint set or the previous set plus one complete new
checkpoint — never a torn directory that loads half a model.

:meth:`CheckpointManager.latest_valid` is the resume entry point: it
walks checkpoints newest-first, CRC-verifies each, and *skips* corrupt
ones with a logged warning (counted in
``train.checkpoint.corrupt_skipped``) instead of refusing to resume.
Verified manifests are memoized by ``(path, mtime_ns, size)`` so the
shadow-retrain loop can poll ``latest_valid()`` every stream step
without re-reading checkpoint bytes.

:meth:`CheckpointManager.save` is synchronous: it returns once the
checkpoint is durable.  A fault injected at the pre-rename chaos point
``checkpoint.publish`` leaves only the staging directory, which the
failed save removes, so ``latest_valid()`` stays on the previous
checkpoint.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import threading
from typing import Any, Dict, List, Optional, Tuple

from .atomic import (
    IntegrityError,
    MANIFEST_NAME,
    atomic_savez,
    atomic_write_text,
    fsync_directory,
    verify_manifest,
    write_manifest,
)
from .chaos import chaos_point

__all__ = [
    "CheckpointManager",
    "IntegrityError",
    "validate_checkpoint",
]

logger = logging.getLogger("repro.resilience")

_CKPT_RE = re.compile(r"^ckpt-(\d{5})$")
_MODEL_FILE = "model.npz"
_OPTIMIZER_FILE = "optimizer.npz"
_STATE_FILE = "state.json"

#: ``state.json`` schema version.
STATE_SCHEMA = 1


def _registry(registry):
    if registry is not None:
        return registry
    from ..obs.metrics import default_registry

    return default_registry()


def validate_checkpoint(path: str) -> Dict[str, Any]:
    """CRC-verify one checkpoint directory and return its ``state.json``.

    Raises :class:`IntegrityError` on a missing/torn manifest, an
    unreadable state file, or a state schema newer than this code
    understands.  Module-level so consumers that hold only a path (the
    serving engine's ``swap_model``) verify with the same rules as the
    manager that wrote it.
    """
    verify_manifest(path)
    try:
        with open(os.path.join(path, _STATE_FILE), "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: unreadable state.json: {exc}") from exc
    if state.get("schema", 0) > STATE_SCHEMA:
        raise IntegrityError(
            f"{path}: state schema {state.get('schema')} is newer than "
            f"supported version {STATE_SCHEMA}"
        )
    return state


def _manifest_stamp(path: str) -> Optional[Tuple[int, int]]:
    """Freshness key for a verified checkpoint: manifest (mtime_ns, size)."""
    try:
        st = os.stat(os.path.join(path, MANIFEST_NAME))
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size)


class CheckpointManager:
    """Owns one checkpoint directory tree and its retention policy.

    Parameters
    ----------
    directory:
        Root under which ``ckpt-<epoch>`` directories are created.
    keep:
        Retention bound — after each save only the newest ``keep``
        checkpoints survive (older ones are pruned).  ``0`` keeps all.
    registry:
        Metrics sink for save / corrupt-skip counters; defaults to the
        process-global registry.
    """

    def __init__(self, directory: str, keep: int = 3, registry=None) -> None:
        if keep < 0:
            raise ValueError("keep must be non-negative")
        self.directory = os.fspath(directory)
        self.keep = int(keep)
        reg = _registry(registry)
        self._saves = reg.counter("train.checkpoint.saves")
        self._corrupt_skipped = reg.counter("train.checkpoint.corrupt_skipped")
        self._verify_hits = reg.counter("train.checkpoint.verify_cache_hits")
        # (path -> (manifest stamp, state)) for checkpoints that passed
        # CRC verification; consulted by validate()/latest_valid().
        self._verified: Dict[str, Tuple[Tuple[int, int], Dict[str, Any]]] = {}
        # Serializes the write/publish phase across saving threads.
        self._write_lock = threading.Lock()

    # ------------------------------------------------------------------
    def save(
        self,
        epoch: int,
        model=None,
        optimizer=None,
        rng=None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Write one complete checkpoint for ``epoch``; returns its path.

        ``rng`` is a ``numpy.random.Generator`` whose bit-generator
        state is captured so a resumed run consumes the exact same
        shuffle stream as the uninterrupted one.  Blocks until the
        checkpoint is durable.
        """
        epoch = int(epoch)
        final = os.path.join(self.directory, f"ckpt-{epoch:05d}")
        state_payload = {
            "schema": STATE_SCHEMA,
            "epoch": epoch,
            "rng_state": None if rng is None else rng.bit_generator.state,
            "extra": extra or {},
        }
        with self._write_lock:
            staging = f"{final}.tmp.{os.getpid()}"
            if os.path.isdir(staging):  # stale orphan from a crashed save
                shutil.rmtree(staging)
            os.makedirs(staging)
            try:
                members: List[str] = []
                if model is not None:
                    atomic_savez(os.path.join(staging, _MODEL_FILE), **model.state_dict())
                    members.append(_MODEL_FILE)
                if optimizer is not None:
                    atomic_savez(
                        os.path.join(staging, _OPTIMIZER_FILE), **optimizer.state_dict()
                    )
                    members.append(_OPTIMIZER_FILE)
                atomic_write_text(
                    os.path.join(staging, _STATE_FILE),
                    json.dumps(state_payload, sort_keys=True) + "\n",
                )
                members.append(_STATE_FILE)
                write_manifest(staging, members, extra={"epoch": epoch})
                # A fault here must leave only the staging dir — the
                # previous latest_valid() stays intact (the checkpoint
                # chaos tests pin this).
                chaos_point("checkpoint.publish", path=final, epoch=epoch)
                # Publish: move any previous same-epoch checkpoint aside
                # (rollback re-runs epochs), then one atomic rename.
                if os.path.isdir(final):
                    self._verified.pop(final, None)
                    shutil.rmtree(final)
                os.rename(staging, final)
                fsync_directory(self.directory)
            except BaseException:
                shutil.rmtree(staging, ignore_errors=True)
                raise
            self._saves.inc()
            self._prune()
        return final

    # ------------------------------------------------------------------
    def checkpoints(self) -> List[str]:
        """All checkpoint paths, oldest first (no validity check)."""
        if not os.path.isdir(self.directory):
            return []
        found = []
        for name in os.listdir(self.directory):
            match = _CKPT_RE.match(name)
            if match:
                found.append((int(match.group(1)), os.path.join(self.directory, name)))
        return [path for _, path in sorted(found)]

    def validate(self, path: str) -> Dict[str, Any]:
        """CRC-verify one checkpoint and return its ``state.json``.

        Successful verifications are memoized by the manifest's
        ``(mtime_ns, size)`` stamp, so re-validating an unchanged
        checkpoint costs one ``stat`` instead of a full CRC pass.
        """
        stamp = _manifest_stamp(path)
        if stamp is not None:
            cached = self._verified.get(path)
            if cached is not None and cached[0] == stamp:
                self._verify_hits.inc()
                return cached[1]
        state = validate_checkpoint(path)
        if stamp is not None:
            self._verified[path] = (stamp, state)
        return state

    def latest_valid(self) -> Optional[str]:
        """Newest checkpoint that passes validation, skipping corrupt
        ones with a warning; ``None`` when nothing valid exists."""
        for path in reversed(self.checkpoints()):
            try:
                self.validate(path)
                return path
            except IntegrityError as exc:
                self._corrupt_skipped.inc()
                logger.warning("skipping corrupt checkpoint %s: %s", path, exc)
        return None

    # ------------------------------------------------------------------
    def load(self, path: str, model=None, optimizer=None) -> Dict[str, Any]:
        """Restore ``model`` / ``optimizer`` from a verified checkpoint.

        Returns the state mapping (``epoch``, ``rng_state``, ``extra``).
        Verification happens *before* any mutation, so a corrupt
        checkpoint raises :class:`IntegrityError` without half-loading.
        """
        from ..nn.serialization import load_model, load_optimizer

        state = self.validate(path)
        if model is not None:
            load_model(model, os.path.join(path, _MODEL_FILE))
        if optimizer is not None:
            load_optimizer(optimizer, os.path.join(path, _OPTIMIZER_FILE))
        return state

    @staticmethod
    def restore_rng(rng, rng_state: Dict[str, Any]) -> None:
        """Load a captured bit-generator state back into ``rng``."""
        rng.bit_generator.state = rng_state

    # ------------------------------------------------------------------
    def _prune(self) -> None:
        if self.keep == 0:
            return
        stale = self.checkpoints()[:-self.keep]
        for path in stale:
            self._verified.pop(path, None)
            shutil.rmtree(path, ignore_errors=True)
