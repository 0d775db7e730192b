"""SelectiveNet: the CNN with an integrated reject option (Fig. 2).

A selective model is a pair ``(f, g)`` (Eq. 2): the prediction head
``f`` outputs class logits and the selection head ``g`` outputs a
scalar in (0, 1).  At inference the model predicts ``f(x)`` when
``g(x) >= tau`` and abstains otherwise.  The DAC paper uses a single
sigmoid neuron for ``g`` attached to the shared 256-d feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .. import nn
from ..nn.compile import (
    GraphBuilder,
    compiled_for,
    register_graph_factory,
    trace_call,
)
from .cnn import BackboneConfig, build_backbone

__all__ = ["SelectiveNet", "SelectivePrediction", "ABSTAIN"]

#: Label used for abstained samples in prediction vectors.
ABSTAIN = -1


@dataclass
class SelectivePrediction:
    """Output of a selective forward pass over a batch.

    Attributes
    ----------
    labels:
        Predicted class per sample, with :data:`ABSTAIN` (-1) where the
        model abstained.
    raw_labels:
        The prediction head's argmax for every sample, ignoring ``g``
        ("original" predictions in Table IV's terminology).
    selection_scores:
        The selection head's raw (pre-sigmoid) logit per sample.
        Monotone in ``g(x) = sigmoid(logit)``, so thresholding/ranking
        is equivalent — but unlike the sigmoid output it never
        saturates to exactly 1.0, which keeps the ranking usable when
        a well-fit model is confident everywhere (score 0.0 corresponds
        to ``g = 0.5``).
    accepted:
        Boolean mask of samples the model chose to label.
    probabilities:
        Softmax class probabilities per sample.
    """

    labels: np.ndarray
    raw_labels: np.ndarray
    selection_scores: np.ndarray
    accepted: np.ndarray
    probabilities: np.ndarray

    @property
    def coverage(self) -> float:
        """Empirical coverage: fraction of samples not abstained (Eq. 6)."""
        if self.accepted.size == 0:
            return 0.0
        return float(self.accepted.mean())


class SelectiveNet(nn.Module):
    """Two-headed CNN implementing the selective model ``(f, g)``.

    Parameters
    ----------
    num_classes:
        Classes for the prediction head ``f``.
    config:
        Backbone hyper-parameters (Table I defaults).
    selection_hidden:
        Width of the selection head's hidden layer.  The DAC paper
        describes a single sigmoid neuron (pass ``None``), but a bare
        linear+sigmoid ``g`` extrapolates arbitrarily on
        out-of-distribution features — its score saturates high as
        often as low on unseen defect classes, which breaks the
        Table IV new-class-detection behaviour at small scale.  The
        original SelectiveNet (Geifman & El-Yaniv) inserts a hidden
        layer; the default ``"auto"`` follows it with
        ``max(16, fc_units // 2)`` units (deviation documented in
        DESIGN.md, ablated in benchmarks).
    threshold:
        Acceptance threshold ``tau`` on the selection *logit*
        (default 0.0, which equals the paper's ``g(x) >= 0.5``);
        re-calibratable post-training via :mod:`repro.core.calibration`.
    """

    def __init__(
        self,
        num_classes: int,
        config: Optional[BackboneConfig] = None,
        selection_hidden: Union[int, str, None] = "auto",
        threshold: float = 0.0,
    ) -> None:
        super().__init__()
        if num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        self.config = config if config is not None else BackboneConfig()
        self.num_classes = num_classes
        self.threshold = float(threshold)
        self.backbone = build_backbone(self.config)

        rng = np.random.default_rng(self.config.seed + 7)
        self.prediction_head = nn.Dense(
            self.config.fc_units, num_classes, weight_init="glorot_normal", rng=rng
        )
        if selection_hidden == "auto":
            selection_hidden = max(16, self.config.fc_units // 2)
        if selection_hidden is None:
            self.selection_head = nn.Dense(
                self.config.fc_units, 1, weight_init="glorot_normal", rng=rng
            )
        else:
            self.selection_head = nn.Sequential(
                nn.Dense(self.config.fc_units, selection_hidden, rng=rng),
                nn.ReLU(),
                nn.Dense(selection_hidden, 1, weight_init="glorot_normal", rng=rng),
            )

    def forward(self, x: nn.Tensor) -> Tuple[nn.Tensor, nn.Tensor]:
        """Return ``(logits, selection)``.

        ``logits`` has shape ``(N, num_classes)``; ``selection`` is the
        sigmoid output of ``g``, shape ``(N,)``.
        """
        features = self.backbone(x)
        logits = self.prediction_head(features)
        selection = self.selection_head(features).sigmoid().reshape(-1)
        return logits, selection

    # ------------------------------------------------------------------
    # Inference API
    # ------------------------------------------------------------------
    def predict_batched(
        self, inputs: np.ndarray, batch_size: int = 256
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw ``(probabilities, selection_scores)`` without thresholding.

        Selection scores are pre-sigmoid logits (see
        :class:`SelectivePrediction` for why).

        Runs chunk by chunk through the compiled graph (or its
        bit-identical eager twin when the graph cannot run, so served
        decisions never depend on which arm ran) into preallocated
        outputs, so peak memory is independent of ``len(inputs)``
        (beyond the outputs themselves).
        """
        count = len(inputs)
        dtype = self.prediction_head.weight.dtype
        probabilities = np.empty((count, self.num_classes), dtype=dtype)
        scores = np.empty((count,), dtype=dtype)
        was_training = self.training
        self.eval()
        compiled = compiled_for(self)
        for start in range(0, count, batch_size):
            stop = min(start + batch_size, count)
            probabilities[start:stop], scores[start:stop] = compiled(inputs[start:stop])
        self.train(was_training)
        return probabilities, scores

    def predict_selective(
        self,
        inputs: np.ndarray,
        threshold: Optional[float] = None,
        batch_size: int = 256,
    ) -> SelectivePrediction:
        """Full selective inference (Eq. 2) over ``(N, 1, H, W)`` inputs."""
        tau = self.threshold if threshold is None else float(threshold)
        probabilities, scores = self.predict_batched(inputs, batch_size=batch_size)
        raw_labels = (
            probabilities.argmax(axis=1)
            if len(probabilities)
            else np.empty((0,), dtype=np.int64)
        )
        accepted = scores >= tau
        labels = np.where(accepted, raw_labels, ABSTAIN)
        return SelectivePrediction(
            labels=labels.astype(np.int64),
            raw_labels=raw_labels.astype(np.int64),
            selection_scores=scores,
            accepted=accepted,
            probabilities=probabilities,
        )


def _selective_net_eager(model: SelectiveNet, x: nn.Tensor):
    """Eager twin of :func:`_selective_net_graph`."""
    features = model.backbone(x)
    logits = model.prediction_head(features)
    scores = model.selection_head(features).reshape(-1)
    return logits.softmax(axis=-1).data, scores.data


@register_graph_factory(SelectiveNet, eager=_selective_net_eager)
def _selective_net_graph(model: SelectiveNet, input_shape, dtype):
    """Lazy graph of one :meth:`SelectiveNet.predict_batched` chunk.

    Two outputs, in ``predict_batched`` order: softmax class
    probabilities and the flattened pre-sigmoid selection logits.  The
    shared feature vector is computed once and feeds both heads.
    """
    builder = GraphBuilder()
    x = builder.add_input(input_shape, dtype)
    features = trace_call(model.backbone, builder, x)
    logits = trace_call(model.prediction_head, builder, features)
    logits_op = builder.graph.op(logits)
    probabilities = builder.add_op(
        "softmax",
        (logits,),
        logits_op.shape,
        logits_op.dtype,
        params={"axis": -1},
        source="predict_batched.softmax",
    )
    selection = trace_call(model.selection_head, builder, features)
    selection_op = builder.graph.op(selection)
    scores = builder.add_op(
        "reshape",
        (selection,),
        (selection_op.shape[0],),
        selection_op.dtype,
        source="predict_batched.scores",
    )
    builder.mark_output(probabilities)
    builder.mark_output(scores)
    return builder.graph
