"""Chaos smoke gate (``python -m repro.resilience.smoke``).

Drives the two headline failure scenarios end-to-end with
deterministic fault injection (:mod:`repro.resilience.chaos`) and exits
non-zero unless every recovery contract holds:

1. **Worker loss → serial fallback, exact trajectory.**  A worker of a
   two-worker training pool (batch 64 on 96 maps: two shards per full
   batch) is killed at its first step with no respawn budget; the
   engine degrades, the trainer finishes the whole run in-process, and
   the final weights are *bit-identical* to a serial run with the same
   seed (no step was lost or double-applied).
2. **SIGKILL between checkpoints → resume matches uninterrupted.**  A
   training subprocess dies (``os._exit``) right after publishing its
   second checkpoint; ``fit(resume="auto")`` in a fresh process picks
   it up and the resumed final weights are bit-identical to an
   uninterrupted run.

``scripts/check.sh`` (and ``make chaos``) run this under a timeout.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import sys
import tempfile

import numpy as np

from ..core.cnn import BackboneConfig, WaferCNN
from ..core.trainer import TrainConfig, Trainer
from ..data.dataset import WaferDataset
from ..obs.metrics import default_registry
from ..parallel import parallel_supported
from .chaos import ChaosPlan, activate, active_plan, kill_process, make_token

_SIZE = 16


def _tiny_dataset(n: int = 48) -> WaferDataset:
    rng = np.random.default_rng(0)
    grids = rng.integers(0, 3, size=(n, _SIZE, _SIZE))
    labels = rng.integers(0, 4, size=(n,)).astype(np.int64)
    return WaferDataset(grids, labels, ("a", "b", "c", "d"))


def _backbone(seed: int = 7) -> BackboneConfig:
    return BackboneConfig(
        input_size=_SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
        fc_units=16, seed=seed,
    )


def _make_trainer(
    num_workers: int = 1,
    worker_retries: int = 0,
    checkpoint_dir=None,
    epochs: int = 2,
    batch_size: int = 16,
):
    model = WaferCNN(4, _backbone())
    config = TrainConfig(
        epochs=epochs, batch_size=batch_size, seed=3, num_workers=num_workers,
        worker_retries=worker_retries, checkpoint_dir=checkpoint_dir,
    )
    return model, Trainer(model, config)


def _weights_equal(a, b) -> float:
    """Max absolute parameter difference (0.0 means bit-identical)."""
    worst = 0.0
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        worst = max(worst, float(np.abs(pa.data - pb.data).max(initial=0.0)))
    return worst


# ----------------------------------------------------------------------
def scenario_worker_loss() -> int:
    """Kill one of two workers mid-epoch; expect the serial trajectory."""
    if not parallel_supported(2):
        print("chaos smoke: parallel unsupported; worker-loss scenario SKIPPED")
        return 0
    deaths_before = default_registry().counter("resilience.worker.deaths").value
    tmp = tempfile.mkdtemp(prefix="chaos-smoke-")
    try:
        token = make_token(tmp)
        plan = ChaosPlan().inject(
            "parallel.worker.step", kill_process, token=token, rank=1
        )
        with active_plan(plan):
            faulted, trainer = _make_trainer(
                num_workers=2, worker_retries=0, batch_size=64
            )
            trainer.fit(_tiny_dataset(96))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    serial, trainer = _make_trainer(num_workers=1, batch_size=64)
    trainer.fit(_tiny_dataset(96))
    diff = _weights_equal(faulted, serial)
    deaths = default_registry().counter("resilience.worker.deaths").value
    if diff != 0.0:
        print(f"FAIL: faulted run diverged from serial (max diff {diff:.3g})")
        return 1
    if deaths <= deaths_before:
        print("FAIL: worker death was not recorded in resilience.worker.deaths")
        return 1
    print("chaos smoke: worker kill -> serial fallback, weights bit-identical OK")
    return 0


# ----------------------------------------------------------------------
def _interrupted_fit(checkpoint_dir: str) -> None:
    """Child process: train, dying right after the second checkpoint."""
    plan = ChaosPlan().inject("train.checkpoint.saved", kill_process, after=1)
    activate(plan)
    _, trainer = _make_trainer(checkpoint_dir=checkpoint_dir, epochs=4)
    trainer.fit(_tiny_dataset())


def scenario_checkpoint_resume() -> int:
    """SIGKILL between checkpoints; resume="auto" matches uninterrupted."""
    tmp = tempfile.mkdtemp(prefix="chaos-smoke-ckpt-")
    try:
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        child = ctx.Process(target=_interrupted_fit, args=(tmp,))
        child.start()
        child.join(timeout=300)
        if child.is_alive():
            child.kill()
            print("FAIL: interrupted training child hung")
            return 1
        if child.exitcode == 0:
            print("FAIL: chaos kill never fired in the training child")
            return 1
        resumed, trainer = _make_trainer(checkpoint_dir=tmp, epochs=4)
        trainer.fit(_tiny_dataset(), resume="auto")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    baseline, trainer = _make_trainer(epochs=4)
    trainer.fit(_tiny_dataset())
    diff = _weights_equal(resumed, baseline)
    if diff != 0.0:
        print(f"FAIL: resumed run diverged from uninterrupted (max diff {diff:.3g})")
        return 1
    print("chaos smoke: SIGKILL between checkpoints -> resume bit-identical OK")
    return 0


def main() -> int:
    failures = 0
    failures += scenario_worker_loss()
    failures += scenario_checkpoint_resume()
    if failures:
        print(f"chaos smoke FAILED ({failures} scenario(s))")
        return 1
    print("chaos smoke OK (worker loss, checkpoint resume)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
