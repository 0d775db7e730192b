"""Save/load trained classifier pipelines.

A fab deployment trains once and serves for weeks, so the pipelines
must round-trip to disk: architecture configuration, trained weights,
the calibrated acceptance threshold, and the class vocabulary all
travel together in one ``.npz`` archive.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, Union

import numpy as np

from ..nn.serialization import _read_npz
from ..resilience.atomic import IntegrityError, atomic_savez
from .cnn import BackboneConfig, WaferCNN
from .pipeline import FullCoverageWaferClassifier, SelectiveWaferClassifier
from .selective import SelectiveNet
from .trainer import TrainConfig

__all__ = ["save_classifier", "load_classifier"]

PathLike = Union[str, "os.PathLike[str]"]

_KIND_SELECTIVE = "selective"
_KIND_FULL = "full_coverage"


def save_classifier(
    classifier: Union[SelectiveWaferClassifier, FullCoverageWaferClassifier],
    path: PathLike,
) -> None:
    """Persist a *fitted* classifier pipeline to a compressed npz.

    Stores the model weights, backbone configuration, class names,
    acceptance threshold (selective pipelines), and target coverage, so
    :func:`load_classifier` can rebuild a ready-to-serve object.
    """
    if classifier.model is None:
        raise ValueError("classifier is not fitted; nothing to save")

    metadata = {
        "class_names": list(classifier.class_names),
        "backbone": asdict(classifier.model.config),
        "num_classes": classifier.model.num_classes,
    }
    if isinstance(classifier, SelectiveWaferClassifier):
        metadata["kind"] = _KIND_SELECTIVE
        metadata["threshold"] = classifier.model.threshold
        metadata["target_coverage"] = classifier.target_coverage
        metadata["selection_hidden"] = classifier.selection_hidden
    elif isinstance(classifier, FullCoverageWaferClassifier):
        metadata["kind"] = _KIND_FULL
    else:
        raise TypeError(f"unsupported classifier type: {type(classifier).__name__}")

    payload = {f"weights/{k}": v for k, v in classifier.model.state_dict().items()}
    payload["metadata"] = np.array(json.dumps(metadata))
    # Atomic write: a crash mid-save leaves the previous archive valid.
    atomic_savez(path, **payload)


def load_classifier(
    path: PathLike,
) -> Union[SelectiveWaferClassifier, FullCoverageWaferClassifier]:
    """Rebuild a classifier pipeline saved by :func:`save_classifier`.

    Raises :class:`repro.resilience.IntegrityError` on truncated or
    otherwise unreadable archives — nothing is constructed from a torn
    file.
    """
    archive = _read_npz(path)
    try:
        metadata = json.loads(str(archive["metadata"]))
    except (KeyError, json.JSONDecodeError) as exc:
        raise IntegrityError(
            f"{os.fspath(path)}: missing or unparsable metadata: {exc}"
        ) from exc
    weights = {
        key[len("weights/"):]: value
        for key, value in archive.items()
        if key.startswith("weights/")
    }

    weights = _drop_dropout(metadata["backbone"], weights)
    backbone = BackboneConfig(**metadata["backbone"])
    # conv tuples arrive as lists from JSON; normalize.
    backbone.conv_channels = tuple(backbone.conv_channels)
    backbone.conv_kernels = tuple(backbone.conv_kernels)

    if metadata["kind"] == _KIND_SELECTIVE:
        classifier = SelectiveWaferClassifier(
            target_coverage=metadata["target_coverage"],
            backbone=backbone,
            selection_hidden=metadata.get("selection_hidden"),
        )
        model = SelectiveNet(
            num_classes=metadata["num_classes"],
            config=backbone,
            selection_hidden=metadata.get("selection_hidden"),
            threshold=metadata["threshold"],
        )
    elif metadata["kind"] == _KIND_FULL:
        classifier = FullCoverageWaferClassifier(backbone=backbone)
        model = WaferCNN(num_classes=metadata["num_classes"], config=backbone)
    else:
        raise ValueError(f"unknown classifier kind {metadata['kind']!r}")

    model.load_state_dict(weights)
    model.eval()
    classifier.model = model
    classifier.class_names = tuple(metadata["class_names"])
    return classifier


def _drop_dropout(
    backbone: Dict, weights: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Read an archive saved while the backbone had a ``dropout`` field.

    Dropout is the identity at inference and has no weights, so its key
    is dropped.  A nonzero rate put a ``Dropout`` layer right after
    ``Flatten``, one index above every later backbone layer; those
    weights move back down one index.
    """
    if not backbone.pop("dropout", 0.0):
        return weights
    # Each conv stage is Conv2D, MaxPool2D, ReLU; Flatten follows.
    dropout_index = 3 * len(backbone["conv_channels"]) + 1
    renamed = {}
    for key, value in weights.items():
        module, _, rest = key.partition(".layer")
        index, _, name = rest.partition(".")
        if module == "backbone" and int(index) > dropout_index:
            key = f"backbone.layer{int(index) - 1}.{name}"
        renamed[key] = value
    return renamed
