"""Host process of the program under test.

``python -m fabbench.server --workload W --seed S --trace 0|1 --workdir D``

The process builds the workload's program objects through public APIs
only, with program defaults except the deployment settings each
workload names in ``fabbench/workloads.json`` (tenant contracts, the
continual-operations loop's budgets).  It prints one ``ready`` line,
then answers JSON commands read line by line from stdin on a private
copy of stdout; anything else the program prints goes to stderr.

Commands: ``counters`` (compile-cache misses, for warm-up), ``mark``
(start of the timed phase), ``ops`` (drift: start the episode loop),
``train`` (train: run the pipeline), ``collect`` (end of the timed
phase: measurements and, when traced, per-layer metrics), ``quit``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import resource
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from . import inputs
from .layers import Probe, deltas, registry_counters
from .spans import wrapper_cost_s

CONFIG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")


def load_config() -> Dict[str, Any]:
    with open(CONFIG_PATH) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _train_wps(samples: int, history) -> float:
    """Samples per second through ``Trainer.fit``, at its median epoch."""
    seconds = sorted(epoch.seconds for epoch in history.epochs)
    return samples / seconds[len(seconds) // 2]


class Host:
    """Shared plumbing: the timed-phase marks and the trace probe."""

    def __init__(self, cfg: Dict[str, Any], seed: int, workdir: str,
                 probe: Optional[Probe]) -> None:
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self._before: Dict[str, float] = {}
        self._t_mark = 0.0

    def mark(self) -> Dict[str, Any]:
        self._before = registry_counters()
        if self.probe is not None:
            self.probe.reset()
        self._t_mark = time.monotonic()
        return {"t": self._t_mark}

    def timed_phase(self, extra: Dict[str, float]) -> Dict[str, Any]:
        """Counter deltas since ``mark`` plus per-layer metrics if traced."""
        wall = time.monotonic() - self._t_mark
        counters = deltas(self._before, registry_counters())
        out: Dict[str, Any] = {"counters": counters, "peak_rss_mb": peak_rss_mb()}
        if self.probe is not None:
            out["per_layer"] = self.probe.per_layer(
                counters, extra, wall, wrapper_cost_s())
        return out

    def counters(self) -> Dict[str, Any]:
        return {"compile_misses": registry_counters()["compile.cache_misses"]}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Serving: the gateway in front of a ServeEngine
# ----------------------------------------------------------------------
class ServeHost(Host):
    def _baseline(self, size: int, classes) -> Dict[str, Any]:
        """Generate data, train and calibrate the workload's model."""
        from repro.core import BackboneConfig, SelectiveWaferClassifier, TrainConfig

        # The deployed model is part of the workload, not of its inputs:
        # it is trained from the fixed model seed, so every run serves
        # the same weights and the workload seed varies only the traffic.
        base = self.cfg["baseline"]
        model_seed = self.cfg["model_seed"]
        train = inputs.paper_maps(base["maps"], size, inputs.derive(model_seed, "train"),
                                  classes)
        val = inputs.paper_maps(base["validation_maps"], size,
                                inputs.derive(model_seed, "validation"), classes)
        clf = SelectiveWaferClassifier(
            target_coverage=base["target_coverage"],
            backbone=BackboneConfig(input_size=size, seed=model_seed,
                                    **inputs.arch_kwargs(self.cfg["arch"])),
            train=TrainConfig(epochs=base["epochs"], batch_size=base["batch_size"],
                              seed=model_seed),
        )
        fit_started = time.monotonic()
        clf.fit(train, validation=val, calibrate=True)
        fit_s = time.monotonic() - fit_started
        self.classifier, self.validation = clf, val
        return {"fit_started": fit_started, "fit_s": fit_s,
                "train_wps": _train_wps(len(train), clf.history)}

    def _generation(self, gen: int, model, threshold: float, checkpoint: str) -> Dict[str, Any]:
        """What the benchmark needs to recompute a generation's decisions."""
        return {"gen": gen, "weights": os.path.join(checkpoint, "model.npz"),
                "threshold": float(threshold), "num_classes": model.num_classes,
                "arch": self.cfg["arch"], "size": model.config.input_size}

    def _start_gateway(self, model) -> int:
        from repro.serve import Gateway, GatewayConfig, ServeConfig, ServeEngine, TenantPolicy

        self.engine = ServeEngine(model, ServeConfig())
        policies = {
            name: TenantPolicy(refill_per_s=t["contract_wps"], burst=t["burst"])
            for name, t in self.cfg["tenants"].items()
        }
        self.gateway = Gateway(self.engine, GatewayConfig(per_tenant=policies))
        self.loop = asyncio.new_event_loop()
        self.loop_thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.loop_thread.start()
        _, port = asyncio.run_coroutine_threadsafe(self.gateway.start(), self.loop).result()
        return port

    def setup(self) -> Dict[str, Any]:
        from repro.nn.serialization import save_model

        size = self.cfg["map_size"]
        ready = self._baseline(size, None)
        model = self.classifier.model
        checkpoint = os.path.join(self.workdir, "gen1")
        os.makedirs(checkpoint, exist_ok=True)
        save_model(model, os.path.join(checkpoint, "model.npz"))
        ready["port"] = self._start_gateway(model)
        ready["generations"] = [self._generation(1, model, model.threshold, checkpoint)]
        return ready

    def collect(self) -> Dict[str, Any]:
        return self._collect({})

    def _collect(self, extra: Dict[str, float]) -> Dict[str, Any]:
        cache = self.engine.stats()["cache"] or {}
        extra = dict(extra, cache_evictions=cache.get("evictions", 0) - self._evictions_before,
                     compile_graphs=registry_counters()["compile.graphs"])
        return self.timed_phase(extra)

    def mark(self) -> Dict[str, Any]:
        cache = self.engine.stats()["cache"] or {}
        self._evictions_before = cache.get("evictions", 0)
        return super().mark()

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.gateway.stop(), self.loop).result(30)
        self.engine.close()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.loop_thread.join(30)


# ----------------------------------------------------------------------
# Drift: the continual-operations loop beside foreground traffic
# ----------------------------------------------------------------------
class DriftHost(ServeHost):
    def setup(self) -> Dict[str, Any]:
        from repro.resilience.checkpoint import CheckpointManager

        size = self.cfg["map_size"]
        classes = tuple(self.cfg["stream"]["classes"])
        ready = self._baseline(size, classes)
        model = self.classifier.model
        self.baseline_model = model
        self.baseline_threshold = float(model.threshold)
        self.baseline_checkpoint = str(CheckpointManager(
            os.path.join(self.workdir, "baseline"), keep=0,
        ).save(epoch=0, model=model, extra={"threshold": self.baseline_threshold}))
        # ShadowTrainer.retrain runs in a worker process: training beside
        # serving in one process fails, because grad and inference mode
        # are process-global flags (repro.nn.tensor).  The worker's BLAS is
        # pinned to one thread, as repro.parallel pins its own workers, so
        # it does not spin against the serving threads.
        from repro.parallel import blas_single_thread

        s = self.cfg["stream"]
        with blas_single_thread():
            self.shadow = multiprocessing.get_context("spawn").Pool(
                1, initializer=_shadow_init, initargs=(
                    model.num_classes, size, self.cfg["arch"],
                    os.path.join(self.baseline_checkpoint, "model.npz"),
                    os.path.join(self.workdir, "shadow"),
                    {"epochs": s["retrain_epochs"], "batch_size": 16, "learning_rate": 5e-4,
                     "seed": self.cfg["model_seed"]},
                    self.cfg["baseline"]["target_coverage"], self.probe is not None))
        self.shadow.apply(_shadow_layers, (True,))
        ready["port"] = self._start_gateway(model)
        self.generations = [self._generation(1, model, self.baseline_threshold,
                                             self.baseline_checkpoint)]
        self.transitions: List[Dict[str, Any]] = []
        self.episodes: List[Dict[str, Any]] = []
        self.ops_thread: Optional[threading.Thread] = None
        self.ops_error: Optional[str] = None
        ready["generations"] = self.generations
        return ready

    def ops(self) -> Dict[str, Any]:
        def run() -> None:
            try:
                for index in range(self.cfg["episodes"]):
                    self.episodes.append(self._episode(index))
            except Exception as exc:  # reported to the benchmark, which fails the run
                import traceback

                traceback.print_exc()
                self.ops_error = repr(exc)

        self.ops_thread = threading.Thread(target=run, name="ops", daemon=True)
        self.ops_thread.start()
        return {"started": True}

    def _swap_to(self, checkpoint: str, threshold: float) -> None:
        started = time.monotonic()
        report = self.engine.swap_model(checkpoint, threshold=threshold)
        self._record(started, [(report.generation, checkpoint, threshold)])

    def _record(self, started: float, new: List[tuple]) -> None:
        """Note generations committed between ``started`` and now."""
        for gen, checkpoint, threshold in new:
            self.generations.append(self._generation(gen, self.baseline_model, threshold,
                                                     checkpoint))
        self.transitions.append({"start": started, "end": time.monotonic(),
                                 "gens": [g for g, _, _ in new]})

    def _episode(self, index: int) -> Dict[str, Any]:
        from repro.obs.monitor import SelectiveMonitor
        from repro.stream import (
            AbstentionRouter, CandidateReport, EpisodeSpec, HumanLabelQueue, LabelStore,
            OracleLabeler, PromotionController, StreamConfig, WaferStream,
        )

        s = self.cfg["stream"]
        classes = tuple(s["classes"])
        if self.engine.generation != 1 or index > 0:
            # Every episode starts from the baseline generation.
            self._swap_to(self.baseline_checkpoint, self.baseline_threshold)
        stream = WaferStream(
            StreamConfig(classes=classes, class_weights=tuple(s["class_weights"]),
                         size=self.cfg["map_size"], wafers_per_step=s["wafers_per_step"],
                         seed=inputs.derive(self.seed, f"episode{index}")),
            [EpisodeSpec("clean", steps=s["clean_steps"]),
             EpisodeSpec("novel", steps=s["shift_steps"],
                         background_rate=tuple(s["shift_background_rate"]),
                         mixed_fraction=s["shift_mixed_fraction"],
                         novel_fraction=s["shift_novel_fraction"])],
        )
        target = self.cfg["baseline"]["target_coverage"]
        monitor = SelectiveMonitor(
            self.baseline_model, min_coverage=0.5 * target, window=s["monitor_window"],
            min_samples=s["monitor_min_samples"], threshold=self.baseline_threshold,
            class_names=classes)
        queue = HumanLabelQueue(
            OracleLabeler(num_classes=len(classes), accuracy=1.0,
                          latency_steps=s["oracle_latency_steps"],
                          seed=inputs.derive(self.seed, f"oracle{index}")),
            capacity=s["queue_capacity"], budget_per_window=s["label_budget_per_window"],
            window_steps=s["budget_window_steps"])
        router = AbstentionRouter(self.engine, queue, monitor)
        store = LabelStore(classes, holdback=4)
        banked: List[Any] = []
        controller = PromotionController(
            self.engine, reference=self.validation,
            baseline_checkpoint=self.baseline_checkpoint,
            baseline_threshold=self.baseline_threshold,
            baseline_accuracy=self.baseline_probe[0],
            baseline_coverage=self.baseline_probe[1],
            min_candidate_accuracy=s["min_candidate_accuracy"],
            accuracy_tolerance=s["accuracy_tolerance"],
            coverage_tolerance=s["coverage_tolerance"])

        cadence = s["step_s"]
        next_due = time.monotonic()
        timeline = {"start": next_due}
        drift_at = recovered_at = None
        detect_step = promote_step = None
        outcomes: List[str] = []
        retrains: List[float] = []
        post_correct = post_accepted = 0
        for step in range(stream.total_steps):
            delay = next_due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            next_due += cadence
            batch = stream.batch(step)
            if step == s["clean_steps"]:
                drift_at = time.monotonic()
            outcome = router.route(batch)
            if promote_step is not None and step > promote_step:
                for result, label in zip(outcome.results, batch.labels):
                    if result.accepted:
                        post_accepted += 1
                        post_correct += int(result.label == int(label))
            labeled = queue.poll(step)
            if detect_step is not None:
                fresh = [w for w in labeled if w.submitted_step >= detect_step]
                store.add(fresh)
                banked.extend(fresh)
            if outcome.alerts and detect_step is None:
                detect_step = step
                timeline["detect"] = time.monotonic()
            if (detect_step is not None and promote_step is None
                    and store.train_size >= s["min_labels_to_retrain"]):
                started, traced_from = time.monotonic(), time.perf_counter()
                timeline.setdefault("retrain", started)
                candidate = CandidateReport(**self.shadow.apply(
                    _shadow_retrain, (classes, banked)))
                retrains.append(time.monotonic() - started)
                if self.probe is not None:
                    self.probe.recorder.add("stream.shadow.retrain", traced_from,
                                            time.perf_counter())
                gen_before = self.engine.generation
                last_good = (controller.last_good_checkpoint, controller.last_good_threshold)
                started = time.monotonic()
                report = controller.consider(candidate)
                outcomes.append(report.outcome)
                new = []
                if self.engine.generation > gen_before:
                    new.append((gen_before + 1, candidate.checkpoint, candidate.threshold))
                if self.engine.generation > gen_before + 1:
                    new.append((gen_before + 2,) + last_good)
                self._record(started, new)
                if report.outcome == "promoted":
                    promote_step = step
                    recovered_at = time.monotonic()
                # Retraining stalls the stream; resume the cadence after it.
                next_due = max(next_due, time.monotonic())
            if promote_step is not None and step - promote_step >= s["post_promote_steps"]:
                break
        timeline.update(drift=drift_at, promoted=recovered_at, end=time.monotonic())
        return {
            "timeline": timeline,
            "promoted": promote_step is not None,
            "recover_s": (recovered_at - drift_at) if recovered_at and drift_at else None,
            "detect_steps": None if detect_step is None else detect_step - s["clean_steps"],
            "post_correct": post_correct, "post_accepted": post_accepted,
            "outcomes": outcomes,
            "abstained": router.total_abstained,
            "routed": router.total_abstained + router.total_accepted,
            "labels_spent": queue.total_labeled,
            "queue_shed": queue.total_shed_full + queue.total_shed_budget,
            "retrain_s": retrains,
        }

    def mark(self) -> Dict[str, Any]:
        self.baseline_probe = self._probe()
        self.shadow.apply(_shadow_layers, (True,))
        return super().mark()

    def close(self) -> None:
        super().close()
        self.shadow.close()
        self.shadow.join()

    def _probe(self):
        from repro.stream import PromotionController

        return PromotionController(
            self.engine, reference=self.validation,
            baseline_checkpoint=self.baseline_checkpoint,
            baseline_threshold=self.baseline_threshold,
            baseline_accuracy=0.0, baseline_coverage=0.0).probe()

    def collect(self) -> Dict[str, Any]:
        if self.ops_thread is not None:
            self.ops_thread.join()
        episodes = self.episodes
        routed = sum(e["routed"] for e in episodes)
        detects = [e["detect_steps"] for e in episodes if e["detect_steps"] is not None]
        extra = {
            "stream.router.abstain_share": (
                sum(e["abstained"] for e in episodes) / routed if routed else 0.0),
            "stream.queue.labels_spent": sum(e["labels_spent"] for e in episodes),
            "stream.queue.shed": sum(e["queue_shed"] for e in episodes),
            "obs.monitor.detect_steps": sorted(detects)[len(detects) // 2] if detects else 0,
        }
        for episode in episodes:
            for outcome in episode["outcomes"]:
                key = f"stream.shadow.outcome.{outcome}"
                extra[key] = extra.get(key, 0) + 1
        out = self._collect(extra)
        for name, value in self.shadow.apply(_shadow_layers, (False,)).items():
            # Training runs in the shadow worker; its layers fill the gaps.
            if not out["per_layer"].get(name):
                out["per_layer"][name] = value
        out.update(episodes=episodes, generations=self.generations,
                   transitions=self.transitions, ops_error=self.ops_error)
        return out


# The shadow worker process (drift): one ShadowTrainer, fine-tuning the
# baseline loaded from its checkpoint, numbering candidates across jobs.
_SHADOW: Dict[str, Any] = {}


def _shadow_init(num_classes, size, arch, weights, checkpoint_dir, train_kwargs,
                 target_coverage, trace) -> None:
    from repro.core import BackboneConfig, SelectiveNet, TrainConfig
    from repro.nn.serialization import load_model
    from repro.resilience.checkpoint import CheckpointManager
    from repro.stream import ShadowTrainer

    probe = None
    if trace:
        probe = Probe()
        probe.install()
    model = SelectiveNet(num_classes, BackboneConfig(input_size=size,
                                                     **inputs.arch_kwargs(arch)))
    load_model(model, weights)
    _SHADOW.update(
        trainer=ShadowTrainer(model, CheckpointManager(checkpoint_dir, keep=0),
                              train_config=TrainConfig(**train_kwargs),
                              target_coverage=target_coverage),
        probe=probe, since=time.monotonic())


def _shadow_retrain(classes, wafers) -> Dict[str, Any]:
    from dataclasses import asdict

    from repro.stream import LabelStore

    store = LabelStore(tuple(classes), holdback=4)
    store.add(wafers)
    return asdict(_SHADOW["trainer"].retrain(store))


def _shadow_layers(reset: bool) -> Dict[str, float]:
    """Reset the worker's trace, or return its per-layer metrics."""
    probe = _SHADOW["probe"]
    if probe is None:
        return {}
    if reset:
        probe.reset()
        _SHADOW["since"] = time.monotonic()
        return {}
    return probe.per_layer({}, {}, time.monotonic() - _SHADOW["since"], wrapper_cost_s())


# ----------------------------------------------------------------------
# Training: the paper pipeline through SelectiveWaferClassifier.fit
# ----------------------------------------------------------------------
class TrainHost(Host):
    def setup(self) -> Dict[str, Any]:
        from repro.experiments.config import get_preset

        # The preset's own dataset and seeds, like a standard training
        # benchmark: every run fits the same data the same way, so the
        # fit's timings vary only with the code and the machine.  The
        # workload seed picks the lots classified after the fit.
        c = self.cfg
        preset = get_preset(c["preset"], epochs=c["epochs"], ae_epochs=c["ae_epochs"])
        self.preset = preset
        self.data = preset.make_data()
        self.augmentation = preset.augmentation()
        return {}

    def train(self) -> Dict[str, Any]:
        import numpy as np

        from repro.core import SelectiveWaferClassifier
        from repro.core.augmentation import rotations_per_sample

        c, preset, data = self.cfg, self.preset, self.data
        target = c["target_coverage"]
        clf = SelectiveWaferClassifier(
            target_coverage=target, augmentation=self.augmentation,
            backbone=preset.backbone(), train=preset.train_config())
        fit_started = time.monotonic()
        clf.fit(data.train, validation=data.validation, calibrate=True)
        fit_s = time.monotonic() - fit_started

        # Algorithm 1's dataset: n_cl * (n_r + 1) maps per augmented class.
        counts = np.bincount(data.train.labels, minlength=data.train.num_classes)
        samples = int(sum(
            n * rotations_per_sample(self.augmentation.target_count, n)
            for n in counts if 0 < n < self.augmentation.target_count) + len(data.train))

        val_scores = clf.predict_dataset(data.validation)
        test = data.test.tensors()
        reference = clf.predict(test)

        # One lot of test maps per call, as a fab classifies a carrier of
        # wafers with the fitted model; the seed picks each lot's maps.
        lot = c["lot_size"]
        latencies, decisions = [], []
        first_answer = None
        starts = np.random.default_rng(inputs.derive(self.seed, "lots")).integers(
            0, len(test) - lot + 1, c["lots"])
        for start in starts.tolist():
            called = time.perf_counter()
            pred = clf.predict(test[start:start + lot])
            latencies.append(time.perf_counter() - called)
            if first_answer is None:
                first_answer = time.monotonic()
            decisions.append((start, pred.labels.tolist()))

        out = self.timed_phase({"compile_graphs": registry_counters()["compile.graphs"]})
        out.update(
            fit_s=fit_s, fit_started=fit_started, first_answer=first_answer,
            train_wps=_train_wps(samples, clf.history), samples=samples,
            val_coverage=float(val_scores.coverage), target_coverage=target,
            test_labels=data.test.labels.tolist(),
            reference_labels=reference.labels.tolist(),
            reference_raw=reference.raw_labels.tolist(),
            lot_latencies_s=latencies, lot_decisions=decisions,
        )
        return out


HOSTS = {"serve": ServeHost, "drift": DriftHost, "train": TrainHost}
COMMANDS = ("counters", "mark", "ops", "train", "collect")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(message: Dict[str, Any]) -> None:
        proto.write(json.dumps(message) + "\n")
        proto.flush()

    cfg = load_config()["workloads"][args.workload]
    probe = None
    if args.trace:
        probe = Probe()
        probe.install()
    host = HOSTS[cfg["kind"]](cfg, args.seed, args.workdir, probe)
    send({"event": "ready", **host.setup()})
    try:
        for line in sys.stdin:
            name = json.loads(line)["cmd"]
            if name == "quit":
                break
            if name not in COMMANDS:
                raise ValueError(f"unknown command {name!r}")
            send(getattr(host, name)())
    finally:
        host.close()
        if probe is not None:
            probe.restore()
    return 0


if __name__ == "__main__":
    sys.exit(main())
