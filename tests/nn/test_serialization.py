"""Tests for model checkpointing."""

import numpy as np
import pytest

from repro import nn
from repro.nn.serialization import (
    IntegrityError,
    load_model,
    load_optimizer,
    save_model,
    save_optimizer,
)


def build_model(seed):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2D(1, 4, 3, padding="same", rng=rng),
        nn.ReLU(),
        nn.MaxPool2D(2),
        nn.Flatten(),
        nn.Dense(4 * 4 * 4, 3, rng=rng),
    )


class TestSaveLoad:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        model = build_model(0)
        path = tmp_path / "model.npz"
        save_model(model, path)
        other = build_model(1)
        x = nn.Tensor(np.random.default_rng(2).normal(size=(2, 1, 8, 8)).astype(np.float32))
        assert not np.allclose(model(x).data, other(x).data)
        load_model(other, path)
        np.testing.assert_allclose(model(x).data, other(x).data, rtol=1e-6)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "model.npz"
        save_model(build_model(0), path)
        assert path.exists()

    def test_mismatched_architecture_raises(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(build_model(0), path)
        wrong = nn.Dense(3, 3, rng=np.random.default_rng(0))
        with pytest.raises((KeyError, ValueError)):
            load_model(wrong, path)

    def test_truncated_archive_raises_integrity_error(self, tmp_path):
        """A SIGKILL-torn npz must raise typed, not half-load."""
        path = tmp_path / "model.npz"
        model = build_model(0)
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        victim = build_model(1)
        before = {k: v.copy() for k, v in victim.state_dict().items()}
        with pytest.raises(IntegrityError):
            load_model(victim, path)
        for key, want in before.items():
            np.testing.assert_array_equal(victim.state_dict()[key], want)

    def test_garbage_archive_raises_integrity_error(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"this was never an npz archive")
        with pytest.raises(IntegrityError):
            load_model(build_model(0), path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(build_model(0), tmp_path / "absent.npz")

    def test_optimizer_truncation_raises_integrity_error(self, tmp_path):
        model = build_model(0)
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        path = tmp_path / "opt.npz"
        save_optimizer(optimizer, path)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        with pytest.raises(IntegrityError):
            load_optimizer(nn.Adam(model.parameters(), lr=1e-3), path)

    def test_no_tmp_orphan_after_save(self, tmp_path):
        save_model(build_model(0), tmp_path / "model.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
