"""Tests for classifier pipeline persistence."""

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig
from repro.core.persistence import load_classifier, save_classifier
from repro.core.pipeline import FullCoverageWaferClassifier, SelectiveWaferClassifier
from repro.core.trainer import TrainConfig


def fast_backbone(size):
    return BackboneConfig(
        input_size=size, conv_channels=(4, 4), conv_kernels=(3, 3), fc_units=16, seed=0
    )


def fast_train():
    return TrainConfig(epochs=2, batch_size=16, seed=0)


class TestSelectiveRoundtrip:
    def test_predictions_identical_after_reload(self, tiny_splits, tmp_path):
        train, validation, test = tiny_splits
        classifier = SelectiveWaferClassifier(
            target_coverage=0.5,
            backbone=fast_backbone(train.map_size),
            train=fast_train(),
        )
        classifier.fit(train, validation=validation, calibrate=True)
        path = tmp_path / "clf.npz"
        save_classifier(classifier, path)

        loaded = load_classifier(path)
        assert isinstance(loaded, SelectiveWaferClassifier)
        original = classifier.predict_dataset(test)
        restored = loaded.predict_dataset(test)
        np.testing.assert_array_equal(original.labels, restored.labels)
        np.testing.assert_allclose(
            original.selection_scores, restored.selection_scores, rtol=1e-6
        )

    def test_threshold_travels(self, tiny_splits, tmp_path):
        train, validation, __ = tiny_splits
        classifier = SelectiveWaferClassifier(
            target_coverage=0.5,
            backbone=fast_backbone(train.map_size),
            train=fast_train(),
        )
        classifier.fit(train, validation=validation, calibrate=True)
        path = tmp_path / "clf.npz"
        save_classifier(classifier, path)
        loaded = load_classifier(path)
        assert loaded.model.threshold == pytest.approx(classifier.model.threshold)

    def test_class_names_travel(self, tiny_splits, tmp_path):
        train, __, __ = tiny_splits
        classifier = SelectiveWaferClassifier(
            target_coverage=0.5,
            backbone=fast_backbone(train.map_size),
            train=fast_train(),
        )
        classifier.fit(train)
        path = tmp_path / "clf.npz"
        save_classifier(classifier, path)
        assert load_classifier(path).class_names == train.class_names


class TestFullCoverageRoundtrip:
    def test_predictions_identical(self, tiny_splits, tmp_path):
        train, __, test = tiny_splits
        classifier = FullCoverageWaferClassifier(
            backbone=fast_backbone(train.map_size), train=fast_train()
        )
        classifier.fit(train)
        path = tmp_path / "cnn.npz"
        save_classifier(classifier, path)
        loaded = load_classifier(path)
        assert isinstance(loaded, FullCoverageWaferClassifier)
        np.testing.assert_array_equal(
            classifier.predict_dataset(test), loaded.predict_dataset(test)
        )


def _as_archive_with_dropout(path, rate):
    """Rewrite a saved archive as one saved while ``BackboneConfig`` had
    a ``dropout`` field: the key in the metadata and, for a nonzero
    rate, the later backbone layers one index up behind a Dropout."""
    import json

    with np.load(path) as archive:
        members = {key: archive[key] for key in archive.files}
    metadata = json.loads(str(members.pop("metadata")))
    metadata["backbone"]["dropout"] = rate
    dropout_index = 3 * len(metadata["backbone"]["conv_channels"]) + 1
    shifted = {}
    for key, value in members.items():
        prefix, _, rest = key.partition("backbone.layer")
        index, _, name = rest.partition(".")
        if rate and rest and int(index) >= dropout_index:
            key = f"{prefix}backbone.layer{int(index) + 1}.{name}"
        shifted[key] = value
    np.savez_compressed(path, metadata=np.array(json.dumps(metadata)), **shifted)


class TestArchivesWithDropoutField:
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_old_archive_loads_to_the_same_predictions(self, tiny_splits, tmp_path, rate):
        train, __, test = tiny_splits
        classifier = SelectiveWaferClassifier(
            target_coverage=0.5,
            backbone=fast_backbone(train.map_size),
            train=fast_train(),
        )
        classifier.fit(train)
        path = tmp_path / "old.npz"
        save_classifier(classifier, path)
        _as_archive_with_dropout(path, rate)

        loaded = load_classifier(path)
        assert loaded.model.config == classifier.model.config
        original = classifier.predict_dataset(test)
        restored = loaded.predict_dataset(test)
        np.testing.assert_array_equal(original.labels, restored.labels)
        np.testing.assert_array_equal(
            original.selection_scores, restored.selection_scores
        )


class TestErrors:
    def test_unfitted_classifier_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_classifier(SelectiveWaferClassifier(), tmp_path / "x.npz")

    def test_truncated_archive_raises_integrity_error(self, tiny_splits, tmp_path):
        from repro.resilience import IntegrityError

        train, __, __ = tiny_splits
        classifier = FullCoverageWaferClassifier(
            backbone=fast_backbone(train.map_size), train=fast_train()
        )
        classifier.fit(train)
        path = tmp_path / "cnn.npz"
        save_classifier(classifier, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(IntegrityError):
            load_classifier(path)

    def test_garbage_file_raises_integrity_error(self, tmp_path):
        from repro.resilience import IntegrityError

        path = tmp_path / "clf.npz"
        path.write_bytes(b"never a valid archive")
        with pytest.raises(IntegrityError):
            load_classifier(path)

    def test_no_tmp_orphan_after_save(self, tiny_splits, tmp_path):
        train, __, __ = tiny_splits
        classifier = FullCoverageWaferClassifier(
            backbone=fast_backbone(train.map_size), train=fast_train()
        )
        classifier.fit(train)
        save_classifier(classifier, tmp_path / "cnn.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cnn.npz"]
