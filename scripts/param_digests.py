#!/usr/bin/env python3
"""Parameter digests of the benchmark's three training fits.

    PYTHONPATH=src python scripts/param_digests.py

Each fit is built the way ``fabbench/server.py`` builds it, from
``fabbench/workloads.json``: the ``serve_frontdoor`` and
``drift_retrain`` baselines (generator maps from the workload's fixed
model seed) and the ``train_pipeline`` fit (the preset's data, backbone
and auto-encoder augmentation).  For each it prints the first 16 hex
digits of the sha256 of the trained parameters' bytes, concatenated in
``model.parameters()`` order.  Equal digests mean a change moved no
training byte; the stream smoke's ``decision_digest`` pins routing
decisions, which can hold while every parameter moves.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Callable, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from fabbench import inputs  # noqa: E402

WORKLOADS = os.path.join(ROOT, "fabbench", "workloads.json")


def parameter_digest(model) -> str:
    """sha256 prefix of ``model.parameters()``' bytes, concatenated."""
    digest = hashlib.sha256()
    for parameter in model.parameters():
        digest.update(parameter.data.tobytes())
    return digest.hexdigest()[:16]


def baseline_fit(cfg: Dict[str, Any]):
    """The fitted classifier of a serving workload's baseline (``cfg``
    is its ``workloads.json`` entry), as ``ServeHost._baseline`` fits it."""
    from repro.core import BackboneConfig, SelectiveWaferClassifier, TrainConfig

    base, size, seed = cfg["baseline"], cfg["map_size"], cfg["model_seed"]
    classes = tuple(cfg["stream"]["classes"]) if "stream" in cfg else None
    train = inputs.paper_maps(base["maps"], size, inputs.derive(seed, "train"), classes)
    val = inputs.paper_maps(base["validation_maps"], size,
                            inputs.derive(seed, "validation"), classes)
    clf = SelectiveWaferClassifier(
        target_coverage=base["target_coverage"],
        backbone=BackboneConfig(input_size=size, seed=seed,
                                **inputs.arch_kwargs(cfg["arch"])),
        train=TrainConfig(epochs=base["epochs"], batch_size=base["batch_size"], seed=seed),
    )
    clf.fit(train, validation=val, calibrate=True)
    return clf


def pipeline_fit(cfg: Dict[str, Any]):
    """The fitted classifier of the training workload, as ``TrainHost``
    fits it."""
    from repro.core import SelectiveWaferClassifier
    from repro.experiments.config import get_preset

    preset = get_preset(cfg["preset"], epochs=cfg["epochs"], ae_epochs=cfg["ae_epochs"])
    data = preset.make_data()
    clf = SelectiveWaferClassifier(
        target_coverage=cfg["target_coverage"], augmentation=preset.augmentation(),
        backbone=preset.backbone(), train=preset.train_config())
    clf.fit(data.train, validation=data.validation, calibrate=True)
    return clf


FITS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "serve_frontdoor": baseline_fit,
    "drift_retrain": baseline_fit,
    "train_pipeline": pipeline_fit,
}


def main() -> int:
    with open(WORKLOADS) as handle:
        workloads = json.load(handle)["workloads"]
    for name, fit in FITS.items():
        clf = fit(workloads[name])
        print(f"{name} {parameter_digest(clf.model)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
