"""The paper's core CNN architecture (Table I).

Three convolutional layers (64 filters of 5x5, then 32 of 3x3, then 32
of 3x3), each followed by a 2x2 max-pool, then a 256-unit
fully-connected layer.  The backbone ends at the 256-d feature vector;
classification and selection heads attach on top (Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn.compile import (
    GraphBuilder,
    compiled_for,
    register_graph_factory,
    trace_call,
)

__all__ = ["BackboneConfig", "build_backbone", "WaferCNN", "TABLE_I_SPEC"]

#: The architecture spec exactly as printed in Table I of the paper.
TABLE_I_SPEC = (
    {"layer": "Conv1", "filters": 64, "kernel": (5, 5), "pool": (2, 2)},
    {"layer": "Conv2", "filters": 32, "kernel": (3, 3), "pool": (2, 2)},
    {"layer": "Conv3", "filters": 32, "kernel": (3, 3), "pool": (2, 2)},
    {"layer": "FC", "units": 256},
)


@dataclass
class BackboneConfig:
    """Hyper-parameters of the convolutional backbone.

    Defaults follow Table I.  ``conv_channels``/``conv_kernels`` can be
    shrunk for fast tests.  The backbone has no dropout (the paper uses
    none), so no model draws random numbers in its forward pass.
    """

    input_size: int = 64
    in_channels: int = 1
    conv_channels: Tuple[int, ...] = (64, 32, 32)
    conv_kernels: Tuple[int, ...] = (5, 3, 3)
    fc_units: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.conv_channels) != len(self.conv_kernels):
            raise ValueError("conv_channels and conv_kernels must have equal length")
        stages = len(self.conv_channels)
        if self.input_size // (2 ** stages) < 1:
            raise ValueError(
                f"input_size {self.input_size} too small for {stages} pooling stages"
            )

    @property
    def feature_map_size(self) -> int:
        """Spatial size after all conv+pool stages (same-padded convs)."""
        return self.input_size // (2 ** len(self.conv_channels))

    @property
    def flat_features(self) -> int:
        """Flattened feature count entering the FC layer."""
        return self.conv_channels[-1] * self.feature_map_size ** 2


def build_backbone(config: BackboneConfig) -> nn.Sequential:
    """Build the shared conv backbone producing a ``fc_units``-d feature.

    Convolutions are same-padded so the spatial bookkeeping is exactly
    "halve at every pool", matching how the paper's sizes divide down.
    """
    rng = np.random.default_rng(config.seed)
    layers = []
    in_channels = config.in_channels
    for channels, kernel in zip(config.conv_channels, config.conv_kernels):
        layers.append(nn.Conv2D(in_channels, channels, kernel, padding="same", rng=rng))
        layers.append(nn.ReLU())
        layers.append(nn.MaxPool2D(2))
        in_channels = channels
    layers.append(nn.Flatten())
    layers.append(nn.Dense(config.flat_features, config.fc_units, rng=rng))
    layers.append(nn.ReLU())
    return nn.Sequential(*layers)


class WaferCNN(nn.Module):
    """Full-coverage wafer classifier: backbone + softmax prediction head.

    This is the ``c0 = 1`` model of the paper — trained with plain
    cross-entropy (Eq. 1) and evaluated over the entire test set
    (Table III, left).

    Parameters
    ----------
    num_classes:
        Size of the output layer (``n_c`` in the paper).
    config:
        Backbone hyper-parameters; defaults to Table I at 64x64 input.
    """

    def __init__(self, num_classes: int, config: Optional[BackboneConfig] = None) -> None:
        super().__init__()
        if num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        self.config = config if config is not None else BackboneConfig()
        self.num_classes = num_classes
        self.backbone = build_backbone(self.config)
        rng = np.random.default_rng(self.config.seed + 7)
        self.head = nn.Dense(
            self.config.fc_units, num_classes, weight_init="glorot_normal", rng=rng
        )

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        """Return raw class logits, shape ``(N, num_classes)``."""
        return self.head(self.backbone(x))

    def predict_proba(self, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Softmax class probabilities for a ``(N, 1, H, W)`` array.

        Streams fixed-size chunks through the compiled graph (or its
        bit-identical eager twin when the graph cannot run) into a
        preallocated output, so peak memory does not grow with ``N``.
        """
        count = len(inputs)
        probabilities = np.empty((count, self.num_classes), dtype=self.head.weight.dtype)
        was_training = self.training
        self.eval()
        compiled = compiled_for(self)
        for start in range(0, count, batch_size):
            stop = min(start + batch_size, count)
            probabilities[start:stop] = compiled(inputs[start:stop])[0]
        self.train(was_training)
        return probabilities

    def predict(self, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Hard class predictions for a ``(N, 1, H, W)`` array."""
        return self.predict_proba(inputs, batch_size=batch_size).argmax(axis=1)


def _wafer_cnn_eager(model: WaferCNN, x: nn.Tensor):
    """Eager twin of :func:`_wafer_cnn_graph`."""
    return (model(x).softmax(axis=-1).data,)


@register_graph_factory(WaferCNN, eager=_wafer_cnn_eager)
def _wafer_cnn_graph(model: WaferCNN, input_shape, dtype):
    """Lazy graph of one :meth:`WaferCNN.predict_proba` chunk:
    backbone → head → softmax, single ``probabilities`` output."""
    builder = GraphBuilder()
    x = builder.add_input(input_shape, dtype)
    features = trace_call(model.backbone, builder, x)
    logits = trace_call(model.head, builder, features)
    logits_op = builder.graph.op(logits)
    probabilities = builder.add_op(
        "softmax",
        (logits,),
        logits_op.shape,
        logits_op.dtype,
        params={"axis": -1},
        source="predict_proba.softmax",
    )
    builder.mark_output(probabilities)
    return builder.graph
