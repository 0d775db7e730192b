"""The shard protocol's gradient is the gradient of the paper's objective.

Every training step runs :func:`repro.parallel.sharded_step` (or the
same protocol on workers): per-shard partial sums, three coefficients,
and a linear surrogate per shard.  This wall checks, in float64, that
the protocol's ``param.grad`` equals autograd through the objective as
written — ``nn.cross_entropy`` and Eq. 9's ``selectivenet_objective`` —
and that its statistics equal the objective's terms, for one-, two-
and three-shard weighted batches.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.core.losses import selectivenet_objective
from repro.core.selective import SelectiveNet
from repro.parallel import ObjectiveSpec, shard_bounds, sharded_step

TINY = BackboneConfig(
    input_size=16, conv_channels=(4, 4), conv_kernels=(3, 3), fc_units=16, seed=7
)

#: Batch rows giving 1, 2 and 3 shards.
SIZES = [20, 64, 96]

#: ``name: (target_coverage, penalty_mode, penalty_active)``; ``None``
#: marks cross-entropy.  The fresh model's coverage is about 0.46, so
#: the hinge penalty is active at c0 = 0.7 and clamped to zero at 0.2.
OBJECTIVES = {
    "cross-entropy": (1.0, "symmetric", None),
    "symmetric-0.7": (0.7, "symmetric", True),
    "hinge-0.7": (0.7, "hinge", True),
    "hinge-0.2": (0.2, "hinge", False),
}

LAM, ALPHA = 0.5, 0.5


def _batch(n):
    rng = np.random.default_rng(n)
    inputs = rng.integers(0, 3, size=(n, 1, 16, 16)).astype(np.float64)
    labels = rng.integers(0, 4, size=n).astype(np.int64)
    weights = rng.uniform(0.4, 1.0, size=n).astype(np.float32)
    return inputs, labels, weights


def _reference(model, active, coverage, penalty, inputs, labels, weights):
    """Autograd through the objective; returns the gradients and the
    ``(loss, coverage, selective_risk, correct)`` it reports."""
    model.zero_grad()
    if active is None:
        logits = model(nn.Tensor(inputs))
        total = nn.cross_entropy(logits, labels, sample_weights=weights)
        loss = float(total.data)
        stats = (loss, 1.0, loss)
    else:
        logits, selection = model(nn.Tensor(inputs))
        terms = selectivenet_objective(
            logits, selection, labels, target_coverage=coverage, lam=LAM,
            alpha=ALPHA, sample_weights=weights, penalty_mode=penalty,
        )
        assert (terms.penalty > 0) == active
        total = terms.total
        stats = (float(total.data), terms.coverage, terms.selective_risk)
    total.backward()
    grads = [param.grad.copy() for param in model.parameters()]
    correct = int((logits.data.argmax(axis=1) == labels).sum())
    return grads, stats + (correct,)


@pytest.mark.parametrize("n", SIZES, ids=[f"{len(shard_bounds(n))}shard" for n in SIZES])
@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_sharded_step_is_the_objective_gradient(name, n):
    coverage, penalty, active = OBJECTIVES[name]
    inputs, labels, weights = _batch(n)
    with nn.default_dtype(np.float64):
        model = WaferCNN(4, TINY) if active is None else SelectiveNet(4, TINY)
        expected, (loss, cov, risk, correct) = _reference(
            model, active, coverage, penalty, inputs, labels, weights
        )
        spec = ObjectiveSpec(
            kind="cross_entropy" if active is None else "selective",
            target_coverage=coverage, lam=LAM, alpha=ALPHA, penalty_mode=penalty,
        )
        stats = sharded_step(model, spec, inputs, labels, weights)
    for (param_name, param), grad in zip(model.named_parameters(), expected):
        np.testing.assert_allclose(param.grad, grad, rtol=1e-9, atol=0, err_msg=param_name)
    assert stats.loss == pytest.approx(loss, rel=1e-9, abs=0)
    assert stats.coverage == pytest.approx(cov, rel=1e-9, abs=0)
    assert stats.selective_risk == pytest.approx(risk, rel=1e-9, abs=0)
    assert stats.correct == correct
