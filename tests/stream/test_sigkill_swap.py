"""SIGKILL during the swap: the process dies, the checkpoint survives.

The atomic-swap chaos sweep (in-process, ``test_promote.py``) pins
that a *raised* fault never tears the serving generation.  This module
pins the harsher failure: the whole serving process is killed dead at
each swap fault point.  Nothing in the swap path writes to the
checkpoint directory, so after the crash a fresh process must be able
to restart serving from ``latest_valid()`` — the blue-green contract's
other half.
"""

import multiprocessing as mp
import os

import pytest

from repro.core.cnn import BackboneConfig
from repro.core.selective import SelectiveNet
from repro.obs.metrics import MetricsRegistry
from repro.resilience.chaos import (
    KILL_EXIT_CODE,
    ChaosPlan,
    activate,
    kill_process,
)
from repro.resilience.checkpoint import CheckpointManager
from repro.stream.scenario import SWAP_FAULT_POINTS

SIZE = 12


def make_model():
    return SelectiveNet(
        num_classes=3,
        config=BackboneConfig(
            input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=0,
        ),
    )


def _swap_to_death(checkpoint_dir, point):
    """Child target: die mid-swap at ``point``."""
    from repro.serve.engine import ServeConfig, ServeEngine

    manager = CheckpointManager(checkpoint_dir, keep=0, registry=MetricsRegistry())
    checkpoint = manager.latest_valid()
    engine = ServeEngine(make_model(), ServeConfig(
        max_batch_size=8, cache_bytes=0, threshold=-1.0,
    ), registry=MetricsRegistry())
    activate(ChaosPlan().inject(point, kill_process))
    engine.swap_model(checkpoint, threshold=-1.0)


needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="fork unavailable"
)


class TestSigkillAtSwapPoints:
    @needs_fork
    @pytest.mark.parametrize("point", SWAP_FAULT_POINTS)
    def test_kill_leaves_checkpoint_restartable(self, tmp_path, point):
        manager = CheckpointManager(
            str(tmp_path), keep=0, registry=MetricsRegistry()
        )
        saved = manager.save(epoch=0, model=make_model())

        child = mp.get_context("fork").Process(
            target=_swap_to_death, args=(str(tmp_path), point)
        )
        child.start()
        child.join(timeout=120)
        assert not child.is_alive()
        assert child.exitcode == KILL_EXIT_CODE

        # The swap path never touches the checkpoint tree: the saved
        # checkpoint is byte-for-byte still the latest valid one, and a
        # restarted process can load it into a fresh model.
        fresh = CheckpointManager(
            str(tmp_path), keep=0, registry=MetricsRegistry()
        )
        assert fresh.latest_valid() == saved
        assert sorted(os.listdir(tmp_path)) == ["ckpt-00000"]
        fresh.load(saved, model=make_model())
