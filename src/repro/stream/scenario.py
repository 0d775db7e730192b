"""Deterministic fab-scale continual-operations scenario.

One function — :func:`run_scenario` — exercises the whole loop the
paper's deployment setting implies but never operationalizes:

1. train + calibrate a selective classifier on clean wafers, then
   serve it through a :class:`~repro.serve.engine.ServeEngine`;
2. replay a scripted :class:`~repro.stream.simulator.WaferStream`
   whose distribution shifts mid-run (elevated background noise +
   novel out-of-vocabulary patterns);
3. the :class:`~repro.stream.router.AbstentionRouter` routes
   abstentions to the budgeted human label queue; the
   :class:`~repro.obs.monitor.SelectiveMonitor` detects the coverage
   collapse (**time-to-detect**);
4. once enough human labels accumulate, the
   :class:`~repro.stream.shadow.ShadowTrainer` fine-tunes a copy and
   the :class:`~repro.stream.shadow.PromotionController` promotes it
   atomically (**time-to-recover**), with the trusted-probe rollback
   armed;
5. optional legs: a *poisoned* retrain (labels deliberately flipped)
   that must be auto-rolled back, and a *chaos* sweep that raises at
   every ``serve.swap.*`` fault point and asserts the serving
   generation never tears.

Determinism: every stochastic input is derived from ``config.seed``
(stream batches from ``(seed, step)``, oracle labels from
``(seed, wafer_id)``, training from ``TrainConfig.seed``), batching is
pinned (one full batch per step, no cache, one in-process lane), and
swaps happen between steps — so the per-step decision trace, and hence
:func:`~repro.stream.scenario.decision_digest`, is a pure function of
the config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.cnn import BackboneConfig
from ..core.pipeline import SelectiveWaferClassifier
from ..core.trainer import TrainConfig
from ..data.generator import generate_dataset
from ..obs.metrics import MetricsRegistry
from ..obs.monitor import SelectiveMonitor
from ..resilience.chaos import ChaosPlan, active_plan, raise_error
from ..resilience.checkpoint import CheckpointManager
from ..serve.engine import ServeConfig, ServeEngine, SwapFailed
from .queue import HumanLabelQueue, OracleLabeler
from .router import AbstentionRouter
from .shadow import LabelStore, PromotionController, ShadowTrainer
from .simulator import (
    NOVEL_LABEL,
    EpisodeSpec,
    StreamConfig,
    WaferStream,
    save_stream_trace,
)

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "SWAP_FAULT_POINTS",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "decision_digest",
]

SCENARIO_SCHEMA_VERSION = 1

#: Every chaos fault point on the atomic-swap path, in firing order.
SWAP_FAULT_POINTS = (
    "serve.swap.verify",
    "serve.swap.load",
    "serve.swap.build",
    "serve.swap.commit",
)


@dataclass
class ScenarioConfig:
    """Everything :func:`run_scenario` needs, seed included.

    The default distribution is None-heavy (half the stream is
    defect-free wafers), the realistic fab shape and the regime where
    ambiguity-zone background noise collapses realized coverage — the
    paper's shift signature (Sec. IV-D).
    """

    classes: Tuple[str, ...] = ("Center", "Edge-Ring", "None")
    class_weights: Tuple[float, ...] = (0.25, 0.25, 0.5)
    size: int = 16
    wafers_per_step: int = 16
    seed: int = 0

    # Baseline training (counts proportional to class_weights).
    train_total: int = 200
    val_total: int = 50
    epochs: int = 10
    target_coverage: float = 0.5

    # Stream script.  The shift puts every generator's background
    # failure rate in the ambiguity zone between "None" (<= 0.04) and
    # "Random" (>= 0.18) — see make_shifted_dataset — plus two-pattern
    # wafers and novel out-of-vocabulary patterns.
    clean_steps: int = 6
    shift_steps: int = 22
    shift_background_rate: Tuple[float, float] = (0.07, 0.12)
    shift_mixed_fraction: float = 0.5
    shift_novel_fraction: float = 0.25

    # Detection / labeling / retraining.
    monitor_window: int = 48
    monitor_min_samples: int = 32
    queue_capacity: int = 96
    label_budget_per_window: int = 40
    budget_window_steps: int = 5
    oracle_accuracy: float = 1.0
    oracle_latency_steps: int = 1
    min_labels_to_retrain: int = 48
    retrain_epochs: int = 12

    # Promotion gates.
    min_candidate_accuracy: float = 0.6
    accuracy_tolerance: float = 0.05
    coverage_tolerance: float = 0.3

    # Optional legs.
    poison_leg: bool = True
    chaos_leg: bool = True

    def monitor_min_coverage(self) -> float:
        """Alert threshold: half the calibrated coverage target, the
        monitor docstring's practical setting for shift detection."""
        return 0.5 * self.target_coverage


@dataclass
class ScenarioResult:
    """Everything the scenario measured, JSON-serializable via
    :meth:`to_payload`."""

    config: ScenarioConfig
    steps: List[Dict[str, Any]]
    detect_step: Optional[int]
    promote_step: Optional[int]
    shift_start_step: int
    time_to_detect: Optional[int]
    time_to_recover: Optional[int]
    phase_metrics: Dict[str, Dict[str, float]]
    label_stats: Dict[str, Any]
    router_stats: Dict[str, Any]
    promotion_history: List[Dict[str, Any]]
    generations: List[int]
    poison_outcome: Optional[str]
    chaos_results: List[Dict[str, Any]]
    trace_digest: str
    decision_digest: str
    baseline_accuracy: float
    baseline_coverage: float

    def to_payload(self) -> Dict[str, Any]:
        payload = {
            "schema": SCENARIO_SCHEMA_VERSION,
            "kind": "stream_scenario",
            "seed": self.config.seed,
            "classes": list(self.config.classes),
            "wafers_per_step": self.config.wafers_per_step,
            "total_steps": len(self.steps),
            "shift_start_step": self.shift_start_step,
            "detect_step": self.detect_step,
            "promote_step": self.promote_step,
            "time_to_detect": self.time_to_detect,
            "time_to_recover": self.time_to_recover,
            "baseline_accuracy": self.baseline_accuracy,
            "baseline_coverage": self.baseline_coverage,
            "phase_metrics": self.phase_metrics,
            "label_stats": self.label_stats,
            "router_stats": self.router_stats,
            "promotion_history": self.promotion_history,
            "generations": self.generations,
            "poison_outcome": self.poison_outcome,
            "chaos_results": self.chaos_results,
            "trace_digest": self.trace_digest,
            "decision_digest": self.decision_digest,
        }
        return payload


def decision_digest(steps: List[Dict[str, Any]]) -> str:
    """Order-sensitive digest of the per-step decision trace."""
    digest = hashlib.sha256()
    for record in steps:
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _step_accuracy(outcome, labels: np.ndarray) -> Dict[str, float]:
    """Coverage plus accuracy over accepted *in-vocabulary* wafers.

    Novel wafers have no correct known class; the model's job there is
    to abstain, tracked separately as ``novel_accepted``.
    """
    accepted_known = 0
    correct_known = 0
    novel_total = 0
    novel_accepted = 0
    for result, label in zip(outcome.results, labels):
        label = int(label)
        if label == NOVEL_LABEL:
            novel_total += 1
            if result.accepted:
                novel_accepted += 1
            continue
        if result.accepted:
            accepted_known += 1
            if result.label == label:
                correct_known += 1
    return {
        "coverage": outcome.coverage,
        "accepted_known": accepted_known,
        "correct_known": correct_known,
        "novel_total": novel_total,
        "novel_accepted": novel_accepted,
    }


def _phase_summary(step_stats: List[Dict[str, float]]) -> Dict[str, float]:
    """Aggregate per-step stats over one phase."""
    if not step_stats:
        return {"steps": 0, "coverage": 0.0, "accuracy": 0.0,
                "novel_accept_rate": 0.0}
    accepted = sum(s["accepted_known"] for s in step_stats)
    correct = sum(s["correct_known"] for s in step_stats)
    novel = sum(s["novel_total"] for s in step_stats)
    novel_acc = sum(s["novel_accepted"] for s in step_stats)
    return {
        "steps": len(step_stats),
        "coverage": float(np.mean([s["coverage"] for s in step_stats])),
        "accuracy": correct / accepted if accepted else 0.0,
        "novel_accept_rate": novel_acc / novel if novel else 0.0,
    }


def _chaos_sweep(engine: ServeEngine, checkpoint: str,
                 threshold: float, probe: np.ndarray) -> List[Dict[str, Any]]:
    """Raise at every swap fault point; the generation must not tear.

    For each point: arm a plan that raises mid-swap, attempt an
    otherwise-valid swap, and require (a) :class:`SwapFailed`, (b) the
    serving generation unchanged, (c) the engine still serving.
    """
    results: List[Dict[str, Any]] = []
    for point in SWAP_FAULT_POINTS:
        generation_before = engine.generation
        plan = ChaosPlan()
        plan.inject(point, raise_error(RuntimeError(f"chaos at {point}")))
        failed = False
        with active_plan(plan):
            try:
                engine.swap_model(checkpoint, threshold=threshold)
            except SwapFailed:
                failed = True
        still_serving = engine.classify(probe).generation == generation_before
        results.append({
            "point": point,
            "swap_failed": failed,
            "generation_before": generation_before,
            "generation_after": engine.generation,
            "still_serving_old_generation": still_serving,
            "ok": failed and engine.generation == generation_before
            and still_serving,
        })
    return results


def run_scenario(
    config: ScenarioConfig,
    workdir: str,
    trace_path: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ScenarioResult:
    """Run the full continual-operations scenario; see module docstring.

    ``workdir`` receives the baseline and shadow checkpoint
    directories; ``trace_path`` (optional) receives the stream's
    episode trace JSONL.
    """
    import os

    registry = registry if registry is not None else MetricsRegistry()
    classes = tuple(config.classes)
    num_classes = len(classes)

    # -- 1. baseline model --------------------------------------------
    weights = np.asarray(config.class_weights, dtype=float)
    weights = weights / weights.sum()
    counts_train = {
        name: max(8, int(round(config.train_total * w)))
        for name, w in zip(classes, weights)
    }
    counts_val = {
        name: max(4, int(round(config.val_total * w)))
        for name, w in zip(classes, weights)
    }
    train_data = generate_dataset(
        counts_train, size=config.size, seed=config.seed,
        class_names=classes, native_size_range=None,
    )
    val_data = generate_dataset(
        counts_val, size=config.size, seed=config.seed + 1,
        class_names=classes, native_size_range=None,
    )
    classifier = SelectiveWaferClassifier(
        target_coverage=config.target_coverage,
        backbone=BackboneConfig(
            input_size=config.size, conv_channels=(8, 8),
            conv_kernels=(3, 3), fc_units=16, seed=config.seed,
        ),
        train=TrainConfig(
            epochs=config.epochs, batch_size=16, seed=config.seed,
        ),
    )
    classifier.fit(train_data, validation=val_data, calibrate=True)
    model = classifier.model
    baseline_threshold = float(model.threshold)

    baseline_manager = CheckpointManager(
        os.path.join(workdir, "baseline"), keep=2, registry=registry
    )
    baseline_checkpoint = baseline_manager.save(
        epoch=0, model=model, extra={"threshold": baseline_threshold}
    )

    # -- 2. stream script ---------------------------------------------
    stream = WaferStream(
        StreamConfig(
            classes=classes, class_weights=tuple(config.class_weights),
            size=config.size,
            wafers_per_step=config.wafers_per_step, seed=config.seed,
        ),
        [
            EpisodeSpec("clean", steps=config.clean_steps),
            EpisodeSpec(
                "novel",
                steps=config.shift_steps,
                background_rate=config.shift_background_rate,
                mixed_fraction=config.shift_mixed_fraction,
                novel_fraction=config.shift_novel_fraction,
            ),
        ],
    )
    records = stream.trace_records()
    if trace_path is not None:
        trace_digest = save_stream_trace(trace_path, stream, records)
    else:
        from .simulator import stream_trace_digest

        trace_digest = stream_trace_digest(records)
    shift_start_step = config.clean_steps

    # -- 3. serving + routing stack -----------------------------------
    engine = ServeEngine(model, ServeConfig(
        # classify_many enqueues each step as one unit, so every step is
        # one full batch; with the cache off the decision trace is a
        # pure function of the seed.
        max_batch_size=config.wafers_per_step,
        queue_limit=max(4 * config.wafers_per_step, len(val_data)),
        cache_bytes=0,
        threshold=baseline_threshold,
    ), registry=registry)
    try:
        monitor = SelectiveMonitor(
            model,
            min_coverage=config.monitor_min_coverage(),
            window=config.monitor_window,
            min_samples=config.monitor_min_samples,
            threshold=baseline_threshold,
            class_names=classes,
            registry=registry,
        )
        queue = HumanLabelQueue(
            OracleLabeler(
                num_classes=num_classes,
                accuracy=config.oracle_accuracy,
                latency_steps=config.oracle_latency_steps,
                seed=config.seed + 7,
            ),
            capacity=config.queue_capacity,
            budget_per_window=config.label_budget_per_window,
            window_steps=config.budget_window_steps,
            registry=registry,
        )
        router = AbstentionRouter(engine, queue, monitor)
        store = LabelStore(classes, holdback=4)
        shadow = ShadowTrainer(
            model,
            CheckpointManager(
                os.path.join(workdir, "shadow"), keep=4, registry=registry
            ),
            train_config=TrainConfig(
                epochs=config.retrain_epochs, batch_size=16,
                learning_rate=5e-4, seed=config.seed,
            ),
            target_coverage=config.target_coverage,
        )
        controller = PromotionController(
            engine,
            reference=val_data,
            baseline_checkpoint=str(baseline_checkpoint),
            baseline_threshold=baseline_threshold,
            baseline_accuracy=0.0,   # re-anchored from the live probe below
            baseline_coverage=0.0,
            min_candidate_accuracy=config.min_candidate_accuracy,
            accuracy_tolerance=config.accuracy_tolerance,
            coverage_tolerance=config.coverage_tolerance,
            registry=registry,
        )
        baseline_accuracy, baseline_coverage = controller.probe()
        controller.baseline_accuracy = baseline_accuracy
        controller.baseline_coverage = baseline_coverage

        # -- 4. the stream loop ---------------------------------------
        steps: List[Dict[str, Any]] = []
        pre_stats: List[Dict[str, float]] = []
        drift_stats: List[Dict[str, float]] = []
        post_stats: List[Dict[str, float]] = []
        generations: List[int] = []
        detect_step: Optional[int] = None
        promote_step: Optional[int] = None

        for step in range(stream.total_steps):
            batch = stream.batch(step)
            outcome = router.route(batch)
            labeled = queue.poll(step)
            if detect_step is not None:
                # The retrain store opens at detection: labels for
                # wafers abstained *after* the alert describe the new
                # regime; earlier ones are routine QC of the old one.
                store.add([
                    w for w in labeled if w.submitted_step >= detect_step
                ])
            stats = _step_accuracy(outcome, batch.labels)
            if step < shift_start_step:
                pre_stats.append(stats)
            elif promote_step is None:
                drift_stats.append(stats)
            else:
                post_stats.append(stats)
            if outcome.alerts and detect_step is None:
                detect_step = step
            promoted_now = False
            promotion_outcome = None
            if (
                detect_step is not None
                and promote_step is None
                and store.train_size >= config.min_labels_to_retrain
            ):
                candidate = shadow.retrain(store)
                report = controller.consider(candidate)
                promotion_outcome = report.outcome
                if report.outcome == "promoted":
                    promote_step = step
                    promoted_now = True
            generations.append(engine.generation)
            steps.append({
                "step": step,
                "kind": batch.kind,
                "generation": engine.generation,
                "accepted": outcome.accepted,
                "abstained": outcome.abstained,
                "queued": outcome.queued,
                "shed": dict(sorted(outcome.shed.items())),
                "alerts": [a.kind for a in outcome.alerts],
                "promotion": promotion_outcome,
                "promoted": promoted_now,
                "labels_banked": store.train_size + store.val_size,
            })

        phase_metrics = {
            "pre_shift": _phase_summary(pre_stats),
            "during_shift": _phase_summary(drift_stats),
            "post_promote": _phase_summary(post_stats),
        }

        # -- 5. poisoned-retrain leg ----------------------------------
        # Labels flipped by a fixed permutation are *internally
        # consistent*: the candidate trained on them scores well on its
        # own (equally poisoned) held-back slice and sails through the
        # pre-gate.  Only the trusted reference probe — clean data the
        # label queue never touched — can catch it, which is exactly
        # the rollback path this leg pins.  The poison trainer runs
        # hotter than the honest one so the flipped mapping is actually
        # learned (a poison that fails to train is caught by the
        # pre-gate instead, proving nothing about rollback).
        poison_outcome: Optional[str] = None
        if config.poison_leg and (store.train_size and store.val_size):
            poisoned = LabelStore(classes, holdback=store.holdback)
            for bucket_name in ("_train", "_val"):
                for wafer in getattr(store, bucket_name):
                    flipped = copy_wafer(wafer, (wafer.label + 1) % num_classes)
                    getattr(poisoned, bucket_name).append(flipped)
            poison_shadow = ShadowTrainer(
                model,
                shadow.checkpoints,
                train_config=TrainConfig(
                    epochs=max(20, 2 * config.retrain_epochs),
                    batch_size=16, learning_rate=3e-3, seed=config.seed,
                ),
                target_coverage=config.target_coverage,
            )
            candidate = poison_shadow.retrain(poisoned)
            poison_outcome = controller.consider(candidate).outcome

        # -- 6. chaos sweep over the swap fault points ----------------
        chaos_results: List[Dict[str, Any]] = []
        if config.chaos_leg:
            chaos_results = _chaos_sweep(
                engine,
                controller.last_good_checkpoint,
                controller.last_good_threshold,
                probe=val_data.grids[0],
            )

        router_stats = router.stats()
        label_stats = queue.stats()
        promotion_history = [
            {
                "outcome": r.outcome,
                "generation": r.generation,
                "probe_accuracy": r.probe_accuracy,
                "probe_coverage": r.probe_coverage,
                "checkpoint": r.candidate.checkpoint,
                "detail": r.detail,
            }
            for r in controller.history
        ]
    finally:
        engine.close()

    return ScenarioResult(
        config=config,
        steps=steps,
        detect_step=detect_step,
        promote_step=promote_step,
        shift_start_step=shift_start_step,
        time_to_detect=(
            detect_step - shift_start_step if detect_step is not None else None
        ),
        time_to_recover=(
            promote_step - shift_start_step if promote_step is not None else None
        ),
        phase_metrics=phase_metrics,
        label_stats=label_stats,
        router_stats=router_stats,
        promotion_history=promotion_history,
        generations=generations,
        poison_outcome=poison_outcome,
        chaos_results=chaos_results,
        trace_digest=trace_digest,
        decision_digest=decision_digest(steps),
        baseline_accuracy=baseline_accuracy,
        baseline_coverage=baseline_coverage,
    )


def copy_wafer(wafer, new_label: int):
    """A LabeledWafer clone with a different (e.g. poisoned) label."""
    from .queue import LabeledWafer

    return LabeledWafer(
        wafer_id=wafer.wafer_id,
        grid=wafer.grid,
        label=int(new_label),
        true_label=wafer.true_label,
        submitted_step=wafer.submitted_step,
        labeled_step=wafer.labeled_step,
    )
