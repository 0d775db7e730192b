"""Promotion gates, automatic rollback, and swap-path chaos (in-process)."""

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig
from repro.core.selective import SelectiveNet
from repro.data.dataset import WaferDataset
from repro.obs.metrics import MetricsRegistry
from repro.resilience.chaos import ChaosPlan, active_plan, raise_error
from repro.resilience.checkpoint import CheckpointManager
from repro.serve.engine import ServeConfig, ServeEngine
from repro.stream.scenario import SWAP_FAULT_POINTS
from repro.stream.shadow import CandidateReport, PromotionController

SIZE = 12
ACCEPT_ALL = -1.0


def make_model(seed):
    return SelectiveNet(
        num_classes=3,
        config=BackboneConfig(
            input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=seed,
        ),
    )


def candidate(checkpoint, val_accuracy=1.0):
    return CandidateReport(
        checkpoint=str(checkpoint), threshold=ACCEPT_ALL,
        val_accuracy=val_accuracy, val_coverage=1.0,
        train_labels=32, val_labels=8,
    )


@pytest.fixture
def rig(tmp_path):
    """Engine serving model A, checkpoints for A (good) and B (bad),
    and a reference set labeled by A — so A probes at accuracy 1.0 and
    B (a different random net) probes well below any sane floor."""
    model_a, model_b = make_model(seed=0), make_model(seed=99)
    manager = CheckpointManager(str(tmp_path), keep=0, registry=MetricsRegistry())
    good = manager.save(epoch=0, model=model_a)
    bad = manager.save(epoch=1, model=model_b)
    engine = ServeEngine(model_a, ServeConfig(
        max_batch_size=8, cache_bytes=0, threshold=ACCEPT_ALL,
    ), registry=MetricsRegistry())
    grids = np.random.default_rng(5).integers(
        0, 3, size=(24, SIZE, SIZE)
    ).astype(np.uint8)
    labels = np.asarray(
        [r.raw_label for r in engine.classify_many(list(grids))],
        dtype=np.int64,
    )
    reference = WaferDataset(grids, labels, ("a", "b", "c"))
    controller = PromotionController(
        engine, reference,
        baseline_checkpoint=str(good), baseline_threshold=ACCEPT_ALL,
        baseline_accuracy=1.0, baseline_coverage=1.0,
        min_candidate_accuracy=0.6, accuracy_tolerance=0.02,
        coverage_tolerance=0.25, registry=MetricsRegistry(),
    )
    try:
        yield {
            "engine": engine, "controller": controller,
            "good": str(good), "bad": str(bad), "grids": grids,
        }
    finally:
        engine.close()


class TestGates:
    def test_pre_gate_rejects_without_touching_serving(self, rig):
        before = rig["engine"].generation
        report = rig["controller"].consider(
            candidate(rig["bad"], val_accuracy=0.2)
        )
        assert report.outcome == "rejected_pre_gate"
        assert rig["engine"].generation == before

    def test_good_candidate_promotes_and_reanchors(self, rig):
        before = rig["engine"].generation
        report = rig["controller"].consider(candidate(rig["good"]))
        assert report.outcome == "promoted"
        assert report.probe_accuracy == 1.0
        assert rig["engine"].generation == before + 1
        assert rig["controller"].last_good_checkpoint == rig["good"]

    def test_regressing_candidate_rolls_back_automatically(self, rig):
        engine, controller = rig["engine"], rig["controller"]
        probe = rig["grids"][0]
        label_before = engine.classify(probe).label
        report = controller.consider(candidate(rig["bad"]))
        assert report.outcome == "rolled_back"
        assert report.probe_accuracy < 0.98
        # Swap in + swap back: two committed generations, serving the
        # last-good model again.
        assert engine.generation == 3
        assert engine.classify(probe).label == label_before
        assert controller.last_good_checkpoint == rig["good"]
        assert controller.stats()["rollbacks"] == 1

    def test_swap_failure_is_reported_not_raised(self, rig):
        before = rig["engine"].generation
        plan = ChaosPlan()
        plan.inject("serve.swap.load", raise_error(RuntimeError("disk gone")))
        with active_plan(plan):
            report = rig["controller"].consider(candidate(rig["good"]))
        assert report.outcome == "swap_failed"
        assert rig["engine"].generation == before


class TestSwapChaos:
    @pytest.mark.parametrize("point", SWAP_FAULT_POINTS)
    def test_fault_at_every_point_leaves_generation_untorn(self, rig, point):
        from repro.serve.engine import SwapFailed

        engine = rig["engine"]
        before = engine.generation
        plan = ChaosPlan()
        plan.inject(point, raise_error(RuntimeError(f"chaos at {point}")))
        with active_plan(plan):
            with pytest.raises(SwapFailed):
                engine.swap_model(rig["good"], threshold=ACCEPT_ALL)
        assert engine.generation == before
        assert engine.classify(rig["grids"][0]).generation == before


class TestSwapDeterminism:
    def test_same_checkpoint_swap_is_bit_identical(self, rig):
        engine = rig["engine"]
        probe = rig["grids"][:4]
        before = [engine.classify(g) for g in probe]
        for expected_generation in (2, 3):
            engine.swap_model(rig["good"], threshold=ACCEPT_ALL)
            assert engine.generation == expected_generation
            for prior, grid in zip(before, probe):
                now = engine.classify(grid)
                assert now.label == prior.label
                assert np.array_equal(now.probabilities, prior.probabilities)
