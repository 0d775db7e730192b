"""Training loops keep their heap, and hand it back when they end.

``kept_heap`` pins glibc's allocator thresholds as a loop starts, so a
step's freed arrays stay in the heap for the next step, and trims the
heap's free pages as the loop ends.  The gate counts pages, not time:
a one-shard fit in a fresh process, on one BLAS thread, must stay under
a minor-fault bound per step that the default thresholds exceed
(1,220-1,680 faults per step against about 125), and must leave less
resident memory behind than a pin that is never handed back (about
12.6 MB against about 1.2 MB).
"""

import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import AutoencoderConfig, BackboneConfig, SelectiveNet, TrainConfig, Trainer
from repro.core.autoencoder import train_autoencoder
from repro.data.dataset import WaferDataset
from repro.parallel import pool

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

FAULTS_PER_STEP_BOUND = 400
RESIDENT_GROWTH_BOUND_MB = 5.0

# 96 maps at 32x32, batch 16 (one shard per batch, so every step runs
# in this process), 4 epochs: 24 steps.
FIT = """
import json, os, resource
from repro.core import BackboneConfig, SelectiveNet, TrainConfig, Trainer
from repro.data import generate_dataset

def resident():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

train = generate_dataset({"Center": 32, "Edge-Ring": 32, "None": 32}, size=32, seed=0)
model = SelectiveNet(train.num_classes, BackboneConfig(
    input_size=32, conv_channels=(16, 16), conv_kernels=(3, 3), fc_units=32, seed=0))
trainer = Trainer(model, TrainConfig(
    epochs=4, batch_size=16, target_coverage=0.5, num_workers=1, seed=0))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
before = resident()
trainer.fit(train)
print(json.dumps({
    "faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
    "growth_mb": (resident() - before) / 2**20,
    "steps": 4 * -(-len(train) // 16),
}))
"""


def _libc_exports(name):
    try:
        return getattr(ctypes.CDLL(None), name, None) is not None
    except OSError:
        return False


@pytest.mark.skipif(not _libc_exports("mallopt"), reason="the C library has no mallopt")
@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="no /proc/self/statm")
def test_one_shard_fit_keeps_its_heap_and_hands_it_back():
    # One BLAS thread: the first touches of each thread's BLAS buffers
    # fall inside the count, and their number grows with the cores.
    env = dict(os.environ, **{var: "1" for var in pool.BLAS_ENV_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", FIT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["steps"] == 24
    faults_per_step = result["faults"] / result["steps"]
    assert faults_per_step < FAULTS_PER_STEP_BOUND, result
    assert result["growth_mb"] < RESIDENT_GROWTH_BOUND_MB, result


@pytest.fixture
def libc_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(pool, "_libc", lambda name, *argtypes: (
        lambda *args: calls.append((name,) + args)))
    return calls


def test_kept_heap_pins_on_entry_and_hands_back_on_raise(libc_calls):
    with pytest.raises(KeyError):
        with pool.kept_heap():
            assert libc_calls == [("mallopt", -3, 8 << 20), ("mallopt", -1, 256 << 20)]
            raise KeyError("boom")
    assert libc_calls[-1] == ("malloc_trim", 0)


def test_kept_heap_is_a_no_op_without_the_c_functions(monkeypatch):
    monkeypatch.setattr(pool, "_libc", lambda name, *argtypes: None)
    with pool.kept_heap():
        pass


def test_training_loops_run_on_a_kept_heap(libc_calls):
    model = SelectiveNet(2, BackboneConfig(input_size=16, conv_channels=(4, 4),
                                           conv_kernels=(3, 3), fc_units=8))
    empty = WaferDataset(np.zeros((0, 16, 16), np.uint8), np.zeros(0, np.int64), ("a", "b"))
    with pytest.raises(ValueError):
        Trainer(model, TrainConfig(epochs=1, num_workers=1)).fit(empty)
    assert [call[0] for call in libc_calls] == ["mallopt", "mallopt", "malloc_trim"]

    del libc_calls[:]
    train_autoencoder(np.zeros((4, 16, 16), np.uint8),
                      AutoencoderConfig(input_size=16, channels=(2,)), epochs=1)
    assert [call[0] for call in libc_calls] == ["mallopt", "mallopt", "malloc_trim"]
