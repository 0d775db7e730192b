"""High-level user-facing API: the end-to-end selective classifier.

:class:`SelectiveWaferClassifier` bundles the full paper pipeline —
optional auto-encoder data augmentation, SelectiveNet training with a
target coverage, and selective inference — behind a scikit-learn-ish
``fit`` / ``predict`` interface operating on :class:`WaferDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports core)
    from ..obs.events import RunLogger

from ..data.dataset import WaferDataset
from .augmentation import AugmentationConfig, augment_dataset
from .calibration import CalibrationResult, threshold_for_coverage
from .cnn import BackboneConfig, WaferCNN
from .selective import SelectiveNet, SelectivePrediction
from .trainer import TrainConfig, Trainer, TrainHistory

__all__ = ["SelectiveWaferClassifier", "FullCoverageWaferClassifier"]


@dataclass
class SelectiveWaferClassifier:
    """The paper's full method as one object.

    Parameters
    ----------
    target_coverage:
        ``c0``; 1.0 trains a plain cross-entropy model with no usable
        selection head.
    augmentation:
        Optional :class:`AugmentationConfig`; ``None`` disables the
        auto-encoder augmentation step.
    backbone:
        Backbone architecture (Table I defaults at the given size).
    train:
        Training budget and optimizer settings.
    run_logger:
        Optional :class:`~repro.obs.events.RunLogger`; when set, the
        training config, per-epoch stats, and the calibration outcome
        are appended to its JSONL stream.

    Example
    -------
    >>> clf = SelectiveWaferClassifier(target_coverage=0.5)   # doctest: +SKIP
    >>> clf.fit(train_ds)                                     # doctest: +SKIP
    >>> pred = clf.predict(test_ds.tensors())                 # doctest: +SKIP
    >>> pred.coverage, (pred.labels == -1).sum()              # doctest: +SKIP
    """

    target_coverage: float = 0.5
    augmentation: Optional[AugmentationConfig] = None
    backbone: Optional[BackboneConfig] = None
    train: TrainConfig = field(default_factory=TrainConfig)
    selection_hidden: object = "auto"
    run_logger: Optional["RunLogger"] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target_coverage <= 1.0:
            raise ValueError("target_coverage must be in (0, 1]")
        self.model: Optional[SelectiveNet] = None
        self.history: Optional[TrainHistory] = None
        self.calibration: Optional[CalibrationResult] = None
        self.class_names: tuple = ()

    # ------------------------------------------------------------------
    def fit(
        self,
        train_data: WaferDataset,
        validation: Optional[WaferDataset] = None,
        calibrate: bool = False,
    ) -> "SelectiveWaferClassifier":
        """Augment (optionally), train, and (optionally) calibrate.

        Augmentation and training both use ``train.num_workers``
        processes; the fitted model does not depend on the count.

        With ``calibrate=True`` and a validation set, the acceptance
        threshold is adjusted post-training so the realized validation
        coverage meets ``target_coverage`` exactly.
        """
        self.class_names = train_data.class_names
        if self.augmentation is not None:
            train_data = augment_dataset(
                train_data, self.augmentation, num_workers=self.train.num_workers
            )

        backbone = self.backbone
        if backbone is None:
            backbone = BackboneConfig(input_size=train_data.map_size, seed=self.train.seed)
        self.model = SelectiveNet(
            num_classes=train_data.num_classes,
            config=backbone,
            selection_hidden=self.selection_hidden,
        )
        config = TrainConfig(**{**self.train.__dict__, "target_coverage": self.target_coverage})
        trainer = Trainer(self.model, config, run_logger=self.run_logger)
        self.history = trainer.fit(train_data, validation=validation)

        if calibrate:
            if validation is None:
                raise ValueError("calibration requires a validation dataset")
            probabilities, scores = self.model.predict_batched(validation.tensors())
            correct = probabilities.argmax(axis=1) == validation.labels
            self.calibration = threshold_for_coverage(scores, self.target_coverage, correct)
            self.model.threshold = self.calibration.threshold
            if self.run_logger is not None:
                self.run_logger.log(
                    "calibration",
                    threshold=self.calibration.threshold,
                    target_coverage=self.target_coverage,
                )
        return self

    # ------------------------------------------------------------------
    def predict(
        self,
        inputs: np.ndarray,
        threshold: Optional[float] = None,
        batch_size: int = 256,
    ) -> SelectivePrediction:
        """Selective inference over ``(N, 1, H, W)`` inputs.

        Runs chunk-wise (``batch_size`` samples at a time) through the
        compiled model, so memory stays fixed for large ``N``.
        """
        self._require_fitted()
        return self.model.predict_selective(
            inputs, threshold=threshold, batch_size=batch_size
        )

    def predict_dataset(
        self,
        dataset: WaferDataset,
        threshold: Optional[float] = None,
        batch_size: int = 256,
    ) -> SelectivePrediction:
        """Selective inference over a :class:`WaferDataset`."""
        return self.predict(dataset.tensors(), threshold=threshold, batch_size=batch_size)

    def _require_fitted(self) -> None:
        if self.model is None:
            raise RuntimeError("classifier is not fitted; call fit() first")


@dataclass
class FullCoverageWaferClassifier:
    """The ``c0 = 1`` baseline variant: plain CNN + cross-entropy.

    Used for the Table III comparison against the SVM baseline.
    """

    augmentation: Optional[AugmentationConfig] = None
    backbone: Optional[BackboneConfig] = None
    train: TrainConfig = field(default_factory=TrainConfig)
    run_logger: Optional["RunLogger"] = None

    def __post_init__(self) -> None:
        self.model: Optional[WaferCNN] = None
        self.history: Optional[TrainHistory] = None
        self.class_names: tuple = ()

    def fit(
        self, train_data: WaferDataset, validation: Optional[WaferDataset] = None
    ) -> "FullCoverageWaferClassifier":
        self.class_names = train_data.class_names
        if self.augmentation is not None:
            train_data = augment_dataset(
                train_data, self.augmentation, num_workers=self.train.num_workers
            )
        backbone = self.backbone
        if backbone is None:
            backbone = BackboneConfig(input_size=train_data.map_size, seed=self.train.seed)
        self.model = WaferCNN(num_classes=train_data.num_classes, config=backbone)
        config = TrainConfig(**{**self.train.__dict__, "target_coverage": 1.0})
        trainer = Trainer(self.model, config, run_logger=self.run_logger)
        self.history = trainer.fit(train_data, validation=validation)
        return self

    def predict(self, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("classifier is not fitted; call fit() first")
        return self.model.predict(inputs, batch_size=batch_size)

    def predict_dataset(self, dataset: WaferDataset, batch_size: int = 256) -> np.ndarray:
        return self.predict(dataset.tensors(), batch_size=batch_size)
