"""The worker count must not change a single bit of training.

Every mini-batch splits into fixed 32-row shards chosen from its row
count alone, and the shard gradients are summed in shard order whether
the shards run in worker processes or in-process, under the same
one-thread BLAS pin.  So ``num_workers`` 1, 2 and 3 end on equal
parameter bytes and equal per-epoch statistics, in float32 as in
float64, for every objective the trainer runs.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.augmentation import AugmentationConfig, augment_dataset
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.selective import SelectiveNet
from repro.core.trainer import TrainConfig, Trainer
from repro.data.dataset import WaferDataset
from repro.parallel import engine as engine_module
from repro.parallel import parallel_supported

needs_parallel = pytest.mark.skipif(
    not parallel_supported(2), reason="parallel execution unavailable"
)

TINY = BackboneConfig(
    input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3), fc_units=16, seed=7
)

#: ``(batch_size, maps)``: a 3-shard batch with a 2-shard tail, and
#: 2-shard batches with a one-shard (20-row) tail.
LAYOUTS = [(96, 160), (64, 148)]

#: ``(model, target_coverage, penalty_mode)``: cross-entropy, and the
#: weighted selective objective under both penalties.
OBJECTIVES = [
    ("cnn", 1.0, "symmetric"),
    ("selective", 0.7, "symmetric"),
    ("selective", 0.7, "hinge"),
]


def _dataset(n, size=16, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    grids = rng.integers(0, 3, size=(n, size, size)).astype(np.uint8)
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    weights = rng.uniform(0.4, 1.0, size=n).astype(np.float32)
    names = tuple(f"c{i}" for i in range(num_classes))
    return WaferDataset(grids, labels, names, weights)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of every pool the engine starts."""
    started = []

    class CountingPool(engine_module.WorkerPool):
        def __init__(self, num_workers, *args, **kwargs):
            started.append(num_workers)
            super().__init__(num_workers, *args, **kwargs)

    monkeypatch.setattr(engine_module, "WorkerPool", CountingPool)
    return started


def _train(objective, layout, num_workers, dtype):
    kind, coverage, penalty = objective
    batch_size, maps = layout
    with nn.default_dtype(dtype):
        model = WaferCNN(4, TINY) if kind == "cnn" else SelectiveNet(4, TINY)
        config = TrainConfig(
            epochs=2, batch_size=batch_size, seed=3, target_coverage=coverage,
            penalty_mode=penalty, num_workers=num_workers,
        )
        history = Trainer(model, config).fit(_dataset(maps))
    params = [param.data.tobytes() for param in model.parameters()]
    epochs = [
        (e.loss, e.train_accuracy, e.coverage, e.selective_risk, e.grad_norm)
        for e in history.epochs
    ]
    return params, epochs


@needs_parallel
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("layout", LAYOUTS, ids=["3+2shards", "2+1shards"])
@pytest.mark.parametrize(
    "objective", OBJECTIVES, ids=["cnn-ce", "selective-symmetric", "selective-hinge"]
)
def test_worker_count_changes_no_bit(objective, layout, dtype, pools):
    serial_params, serial_epochs = _train(objective, layout, 1, dtype)
    assert pools == []
    for workers in (2, 3):
        params, epochs = _train(objective, layout, workers, dtype)
        assert params == serial_params, f"{workers} workers moved the parameters"
        assert epochs == serial_epochs, f"{workers} workers moved the epoch stats"
    shards = -(-layout[0] // 32)
    assert pools == [2, min(3, shards)]


@needs_parallel
def test_one_shard_batch_size_starts_no_pool(pools):
    _train(OBJECTIVES[1], (32, 80), 2, np.float32)
    assert pools == []


class TestAugmentationDeterminism:
    def _augment(self, num_workers, size=16, realias_range=None):
        rng = np.random.default_rng(1)
        # One majority class (untouched) and two minority classes.
        grids = rng.integers(0, 3, size=(14, size, size)).astype(np.uint8)
        labels = np.array([0] * 8 + [1] * 3 + [2] * 3, dtype=np.int64)
        dataset = WaferDataset(grids, labels, ("maj", "min_a", "min_b"))
        config = AugmentationConfig(
            target_count=8, ae_epochs=1, ae_batch_size=4,
            realias_range=realias_range, seed=0,
        )
        return augment_dataset(dataset, config, num_workers=num_workers)

    def test_worker_count_does_not_change_output(self):
        if not parallel_supported(4):
            pytest.skip("parallel execution unavailable")
        serial = self._augment(1)
        fanned = self._augment(4)
        np.testing.assert_array_equal(serial.grids, fanned.grids)
        np.testing.assert_array_equal(serial.labels, fanned.labels)
        np.testing.assert_array_equal(serial.weights(), fanned.weights())

    @needs_parallel
    def test_realiased_32px_maps_match_across_worker_counts(self):
        serial = self._augment(1, size=32, realias_range=(12, 40))
        fanned = self._augment(2, size=32, realias_range=(12, 40))
        assert serial.grids.tobytes() == fanned.grids.tobytes()
        np.testing.assert_array_equal(serial.labels, fanned.labels)
        np.testing.assert_array_equal(serial.weights(), fanned.weights())

    def test_repeat_runs_are_identical(self):
        first = self._augment(1)
        second = self._augment(1)
        np.testing.assert_array_equal(first.grids, second.grids)
