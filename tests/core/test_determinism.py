"""Determinism regression: seeded end-to-end runs are bit-reproducible.

Two independent fits of the full pipeline on the same small synthetic
dataset must produce byte-identical weights and equal metrics.  This
pins down that compiled inference, the kept heap, and the chunked
predict loops introduce no hidden run-to-run state.

Weights are compared via ``state_dict`` bytes rather than saved ``npz``
files because the zip container embeds timestamps.
"""

import numpy as np

from repro.core.cnn import BackboneConfig
from repro.core.pipeline import SelectiveWaferClassifier
from repro.core.trainer import TrainConfig
from repro.data import generate_dataset
from repro.data.dataset import stratified_split


def _fit_once():
    dataset = generate_dataset(
        {"Center": 10, "Edge-Ring": 10, "None": 16}, size=16, seed=21
    )
    rng = np.random.default_rng(4)
    train, validation = stratified_split(dataset, [0.75, 0.25], rng)
    backbone = BackboneConfig(
        input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3), fc_units=16, seed=3
    )
    clf = SelectiveWaferClassifier(
        target_coverage=0.8,
        backbone=backbone,
        selection_hidden=8,
        train=TrainConfig(epochs=2, batch_size=16, seed=3),
    )
    clf.fit(train, validation=validation)
    prediction = clf.predict_dataset(validation, batch_size=7)
    return clf, prediction


class TestEndToEndDeterminism:
    def test_two_seeded_runs_are_bit_identical(self):
        first_clf, first_pred = _fit_once()
        second_clf, second_pred = _fit_once()

        first_state = first_clf.model.state_dict()
        second_state = second_clf.model.state_dict()
        assert first_state.keys() == second_state.keys()
        for key in first_state:
            assert first_state[key].tobytes() == second_state[key].tobytes(), key

        first_epochs = first_clf.history.epochs
        second_epochs = second_clf.history.epochs
        assert len(first_epochs) == len(second_epochs) == 2
        for a, b in zip(first_epochs, second_epochs):
            assert a.loss == b.loss
            assert a.train_accuracy == b.train_accuracy
            assert a.coverage == b.coverage
            assert a.val_accuracy == b.val_accuracy

        assert first_pred.probabilities.tobytes() == second_pred.probabilities.tobytes()
        np.testing.assert_array_equal(first_pred.labels, second_pred.labels)
        np.testing.assert_array_equal(first_pred.accepted, second_pred.accepted)
