"""Optimizer state round-trips and training-resume equivalence.

The contract: training k steps, checkpointing model + optimizer, and
continuing another k steps in a fresh process must follow exactly the
same trajectory as 2k uninterrupted steps.  That only holds if Adam's
m/v slots, the step count (bias correction!) and the learning rate
survive serialization.  A state the optimizer rejects must leave it
exactly as it was.
"""

import numpy as np
import pytest

from repro import nn


def _make_model(seed=0):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Dense(6, 8, rng=rng),
        nn.ReLU(),
        nn.Dense(8, 3, rng=rng),
    )
    return model


def _make_batches(steps=4, seed=1):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.normal(size=(5, 6)).astype(np.float32),
            rng.integers(0, 3, size=5).astype(np.int64),
        )
        for _ in range(steps)
    ]


def _train(model, optimizer, batches):
    for inputs, labels in batches:
        logits = model(nn.Tensor(inputs))
        loss = nn.cross_entropy(logits, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()


def _adam(params):
    return nn.Adam(params, lr=1e-2)


def _assert_same_parameters(reference, other):
    for (name, p_ref), (_, p_other) in zip(
        reference.named_parameters(), other.named_parameters()
    ):
        np.testing.assert_array_equal(
            p_ref.data, p_other.data, err_msg=f"parameter {name} diverged"
        )


def test_resume_matches_uninterrupted(tmp_path):
    batches = _make_batches(steps=8)

    # Reference: 8 uninterrupted steps.
    reference = _make_model()
    _train(reference, _adam(reference.parameters()), batches)

    # Interrupted: 4 steps, checkpoint, fresh objects, 4 more steps.
    model = _make_model()
    optimizer = _adam(model.parameters())
    _train(model, optimizer, batches[:4])
    nn.save_model(model, tmp_path / "model.npz")
    nn.save_optimizer(optimizer, tmp_path / "optim.npz")

    resumed = _make_model(seed=123)  # different init, fully overwritten
    resumed_optimizer = _adam(resumed.parameters())
    nn.load_model(resumed, tmp_path / "model.npz")
    nn.load_optimizer(resumed_optimizer, tmp_path / "optim.npz")
    _train(resumed, resumed_optimizer, batches[4:])

    _assert_same_parameters(reference, resumed)


def test_state_dict_round_trips_hyperparameters():
    model = _make_model()
    optimizer = nn.Adam(model.parameters(), lr=3e-4)
    _train(model, optimizer, _make_batches(steps=2))

    state = optimizer.state_dict()
    assert state["step_count"] == 2
    # One m and one v slot per parameter that received a gradient.
    slot_keys = [key for key in state if key.startswith(("m.", "v."))]
    assert len(slot_keys) == 2 * len(optimizer._m)

    fresh = nn.Adam(model.parameters(), lr=1e-3)
    fresh.load_state_dict(state)
    assert fresh.lr == pytest.approx(3e-4)
    assert fresh._step_count == 2
    for index, m in optimizer._m.items():
        np.testing.assert_array_equal(fresh._m[index], m)
        np.testing.assert_array_equal(fresh._v[index], optimizer._v[index])


def _trained_adam():
    model = _make_model()
    optimizer = _adam(model.parameters())
    _train(model, optimizer, _make_batches(steps=1))
    return model, optimizer


def _snapshot(optimizer):
    """Everything a load may assign, as bytes."""
    slots = {
        f"{name}.{index}": array.tobytes()
        for name in ("m", "v")
        for index, array in optimizer._slot(name).items()
    }
    return optimizer._step_count, optimizer.lr, slots


def test_load_rejects_shape_mismatch():
    model, optimizer = _trained_adam()
    state = optimizer.state_dict()
    state["m.0"] = np.zeros((2, 2), dtype=np.float32)
    fresh = _adam(model.parameters())
    with pytest.raises(ValueError, match="shape"):
        fresh.load_state_dict(state)


def test_load_rejects_out_of_range_index():
    model, optimizer = _trained_adam()
    state = optimizer.state_dict()
    state["m.99"] = np.zeros((8, 6), dtype=np.float32)
    fresh = _adam(model.parameters())
    with pytest.raises(ValueError, match="99"):
        fresh.load_state_dict(state)


def test_rejected_slot_leaves_the_optimizer_unchanged():
    _, optimizer = _trained_adam()
    state = optimizer.state_dict()
    before = _snapshot(optimizer)
    state["step_count"] = 99
    state["lr"] = 7.0
    state["m.1"] = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="m.1"):
        optimizer.load_state_dict(state)
    assert _snapshot(optimizer) == before


def test_state_saved_with_zero_weight_decay_resumes(tmp_path):
    """Archives written while optimizers took ``weight_decay`` carry the
    key; checkpoints of every run (all at 0) must keep resuming."""
    batches = _make_batches(steps=4)
    reference = _make_model()
    _train(reference, _adam(reference.parameters()), batches)

    model = _make_model()
    optimizer = _adam(model.parameters())
    _train(model, optimizer, batches[:2])
    path = tmp_path / "optim.npz"
    np.savez_compressed(path, **{**optimizer.state_dict(), "weight_decay": 0.0})
    resumed = _adam(model.parameters())
    nn.load_optimizer(resumed, path)
    _train(model, resumed, batches[2:])

    _assert_same_parameters(reference, model)


def test_nonzero_weight_decay_is_rejected_before_loading():
    _, optimizer = _trained_adam()
    state = optimizer.state_dict()
    before = _snapshot(optimizer)
    state["step_count"] = 99
    state["weight_decay"] = np.array(0.01)
    with pytest.raises(ValueError, match="weight_decay"):
        optimizer.load_state_dict(state)
    assert _snapshot(optimizer) == before
