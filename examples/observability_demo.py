"""End-to-end tour of `repro.obs`: run logs, profiling, monitoring.

Trains a tiny SelectiveNet with a structured JSONL run log attached,
prints the per-layer forward/backward profile of one training-style
step, then simulates a production stream that drifts — the selective
monitor's coverage alert fires on the shifted batches.

Run:  python examples/observability_demo.py
"""

import os
import tempfile

import numpy as np

from repro import nn
from repro.core import BackboneConfig, SelectiveWaferClassifier, TrainConfig
from repro.data import generate_dataset, stratified_split
from repro.experiments.concept_shift import make_shifted_dataset
from repro.obs import (
    LayerProfiler,
    MetricsRegistry,
    RunLogger,
    SelectiveMonitor,
    load_run,
)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-obs-") as root:
        _tour(root)


def _tour(root: str) -> None:
    counts = {"Center": 40, "Donut": 20, "Edge-Ring": 40, "None": 120}
    dataset = generate_dataset(counts, size=32, seed=11)
    rng = np.random.default_rng(11)
    train, validation, test = stratified_split(dataset, [0.6, 0.2, 0.2], rng)

    # ------------------------------------------------------------------
    # 1. Train with a structured run log attached.
    # ------------------------------------------------------------------
    run_dir = os.path.join(root, "selective50")
    run_logger = RunLogger(run_dir)
    classifier = SelectiveWaferClassifier(
        target_coverage=0.5,
        backbone=BackboneConfig(
            input_size=32, conv_channels=(8, 8), conv_kernels=(3, 3),
            fc_units=32, seed=11,
        ),
        train=TrainConfig(epochs=12, batch_size=32, seed=11, verbose=True),
        run_logger=run_logger,
    )
    classifier.fit(train, validation=validation, calibrate=True)
    run_logger.close()

    records = load_run(run_dir)
    epochs = [r for r in records if r["type"] == "epoch"]
    print(f"\nrun log: {run_logger.path}")
    print(f"  {len(records)} records ({len(epochs)} epochs); "
          f"final loss {epochs[-1]['data']['stats']['loss']:.4f}, "
          f"mean grad norm {epochs[-1]['data']['stats']['grad_norm']:.3f}")

    # ------------------------------------------------------------------
    # 2. Profile one forward+backward pass per layer.
    # ------------------------------------------------------------------
    model = classifier.model
    batch = nn.Tensor(train.tensors()[:32])
    profiler = LayerProfiler()
    with profiler.attach(model):
        logits, selection = model(batch)
        loss = nn.cross_entropy(logits, train.labels[:32])
        loss.backward()
    model.zero_grad()
    print("\nper-layer profile (one forward+backward, batch of 32):")
    print(profiler.format_table())

    # ------------------------------------------------------------------
    # 3. Monitor a drifting production stream.
    # ------------------------------------------------------------------
    registry = MetricsRegistry()
    monitor = SelectiveMonitor(
        model, min_coverage=0.3, window=128, min_samples=16,
        class_names=dataset.class_names, registry=registry,
    )
    monitor.on_alert(lambda alert: print(f"  !! {alert}"))

    print("\nproduction stream (coverage per batch):")
    print("  clean batches:")
    for _ in range(2):
        prediction = monitor.predict(test.tensors())
        print(f"    coverage={prediction.coverage:.1%} "
              f"rolling={monitor.rolling_coverage:.1%}")
    print("  drifted batches:")
    for round_index in range(2):
        shifted = make_shifted_dataset(
            test.class_counts(), size=32, seed=1000 + round_index
        )
        prediction = monitor.predict(shifted.tensors())
        print(f"    coverage={prediction.coverage:.1%} "
              f"rolling={monitor.rolling_coverage:.1%}")

    status = monitor.status()
    print(f"\nmonitor status: {status}")
    snapshot = registry.snapshot()
    print(f"abstained {snapshot['counters'].get('selective.abstained', 0)} of "
          f"{snapshot['counters']['selective.samples']} samples; "
          f"batch-coverage p50={snapshot['histograms']['selective.batch_coverage']['p50']:.1%}")


if __name__ == "__main__":
    main()
