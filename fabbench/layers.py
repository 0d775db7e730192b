"""Which public callables the traced run wraps, and the per-layer metrics.

:meth:`Probe.install` wraps the program's public functions with
:mod:`fabbench.spans` recorders; :meth:`Probe.per_layer` turns the
recorded spans plus counter deltas from public accessors into the
``per_layer`` metrics named in ``BENCHMARK.json``.  A layer that did
not run on a workload reports 0 (e.g. every ``serve.*`` metric on
``train_pipeline``).
"""

from __future__ import annotations

import threading
from typing import Dict, List

from . import spans as sp
from .stats import quantile

#: Leaf-layer names :class:`repro.obs.profile.LayerProfiler` reports for
#: the SelectiveNets this benchmark trains (3-stage backbone; the drift
#: workload's 2-stage backbone fills the first nine).
LAYER_NAMES = tuple(
    [f"backbone.layer{i}" for i in range(12)]
    + ["prediction_head"]
    + [f"selection_head.layer{i}" for i in range(3)]
)

SHED_REASONS = ("queue_full", "bucket_exhausted", "breaker_open")
OUTCOMES = ("promoted", "rejected_pre_gate", "rolled_back", "swap_failed")

#: name -> unit, in BENCHMARK.json order.
PER_LAYER: Dict[str, str] = {
    "serve.protocol.decode_us": "us",
    "serve.protocol.encode_us": "us",
    "serve.protocol.request_bytes": "bytes",
    "serve.gateway.self_us": "us",
    "serve.gateway.inflight_max": "count",
    "serve.admission.admit_us": "us",
    "serve.admission.admitted_ratio": "ratio",
    **{f"serve.admission.shed.{r}": "count" for r in SHED_REASONS},
    "serve.cache.key_us": "us",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.evictions": "count",
    "serve.batcher.queue_wait_ms_p50": "ms",
    "serve.batcher.queue_wait_ms_p99": "ms",
    "serve.batcher.batch_size_mean": "count",
    "serve.batcher.deadline_flush_share": "ratio",
    "serve.batcher.depth_max": "count",
    "serve.engine.submit_us": "us",
    "serve.engine.latency_ms_p50": "ms",
    "serve.engine.latency_ms_p99": "ms",
    "serve.engine.swap_ms": "ms",
    "serve.backend.infer_ms_p50": "ms",
    "serve.backend.infer_ms_p99": "ms",
    "serve.backend.infer_us_per_wafer": "us",
    "nn.compile.run_ms": "ms",
    "nn.compile.cache_misses": "count",
    "nn.compile.fallbacks": "count",
    "nn.compile.graphs": "count",
    "nn.compile.arena_mb": "MB",
    "data.batch_ms": "ms",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optim.step_ms": "ms",
    **{f"nn.layer.{n}.{d}_ms": "ms" for n in LAYER_NAMES for d in ("forward", "backward")},
    "core.losses.objective_ms": "ms",
    "core.trainer.self_ms": "ms",
    "core.augmentation.augment_s": "s",
    "core.autoencoder.train_s": "s",
    "core.autoencoder.generate_s": "s",
    "core.calibration.calibrate_s": "s",
    "stream.router.route_ms": "ms",
    "stream.router.abstain_share": "ratio",
    "stream.queue.labels_spent": "count",
    "stream.queue.shed": "count",
    "stream.shadow.retrain_s": "s",
    "stream.shadow.consider_s": "s",
    **{f"stream.shadow.outcome.{o}": "count" for o in OUTCOMES},
    "resilience.checkpoint.save_ms": "ms",
    "obs.monitor.observe_us": "us",
    "obs.monitor.detect_steps": "count",
    "bench.gen_lateness_ms_p99": "ms",
    "bench.trace_overhead_pct": "%",
}

#: Registry counters whose timed-phase deltas feed the metrics.
COUNTERS = (
    "compile.cache_misses", "compile.fallbacks", "compile.graphs",
    "gateway.requests_total", "gateway.admitted_total",
    *[f"gateway.rejected.{r}" for r in SHED_REASONS],
    "serve.cache.hits", "serve.cache.misses",
)

TRAIN_PARENT = "core.trainer.fit"


class Probe:
    """The wrappers of one traced process, plus their side tables."""

    def __init__(self) -> None:
        self.recorder = sp.Recorder()
        self.patcher = sp.Patcher()
        self._lock = threading.Lock()
        self._put_at: Dict[int, float] = {}
        self.queue_waits: List[float] = []
        self.batches: List[tuple] = []
        self.depth_max = 0
        self.arena_max = 0.0
        self.profiler = None

    def reset(self) -> None:
        self.recorder.reset()
        with self._lock:
            self._put_at.clear()
            self.queue_waits = []
            self.batches = []
            self.depth_max = 0
            self.arena_max = 0.0
        if self.profiler is not None:
            self.profiler.reset()

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import repro.core.augmentation as augmentation
        import repro.core.pipeline as pipeline
        import repro.core.trainer as trainer
        import repro.serve.gateway as gateway
        from repro.core.selective import SelectiveNet
        from repro.data.dataset import BatchIterator
        from repro.nn.compile.api import CompiledModule
        from repro.nn.optim import Adam, Optimizer
        from repro.nn.tensor import Tensor
        from repro.obs.metrics import default_registry
        from repro.obs.monitor import SelectiveMonitor
        from repro.obs.profile import LayerProfiler
        from repro.resilience.checkpoint import CheckpointManager
        from repro.serve.admission import AdmissionController
        from repro.serve.backend import InProcessBackend
        from repro.serve.batcher import MicroBatcher
        from repro.serve.cache import ResultCache
        from repro.serve.engine import ServeEngine
        from repro.stream.router import AbstentionRouter
        from repro.stream.shadow import PromotionController, ShadowTrainer

        rec, patch = self.recorder, self.patcher
        self.profiler = LayerProfiler()
        arena = default_registry().gauge("compile.arena_bytes")

        # serve.protocol — names as the gateway looks them up.
        patch.wrap(rec, gateway, "decode_payload", "serve.protocol.decode")
        patch.wrap(rec, gateway, "parse_request", "serve.protocol.decode")
        patch.wrap(rec, gateway, "ok_response", "serve.protocol.encode")
        patch.wrap(rec, gateway, "encode_frame", "serve.protocol.encode")
        patch.wrap(rec, gateway.Gateway, "handle_message", "serve.gateway.handle")
        patch.wrap(rec, AdmissionController, "admit", "serve.admission.admit")
        patch.wrap(rec, ResultCache, "key", "serve.cache.key")

        def submitted(span, pending, *args, **kwargs):
            # The engine answers on its runner thread: time the wait as a
            # child of the caller's span and the whole request apart.
            def done(_completed, parent=span[sp.PARENT], start=span[sp.START],
                     returned=span[sp.END]):
                now = rec.clock()
                rec.add("serve.engine.wait", returned, now, parent=parent)
                rec.add("serve.engine.request", start, now)
            pending.add_done_callback(done)

        patch.wrap(rec, ServeEngine, "submit", "serve.engine.submit", after=submitted)
        patch.wrap(rec, ServeEngine, "swap_model", "serve.engine.swap")

        def put_start(_batcher, value):
            # Stamped before the call: a runner may pop the item before
            # put() returns.
            with self._lock:
                self._put_at[id(value)] = rec.clock()

        def put_done(_span, _result, batcher, _value):
            with self._lock:
                self.depth_max = max(self.depth_max, batcher.depth)

        def batch_done(span, result, *args, **kwargs):
            if result is None:
                return
            values, reason = result
            with self._lock:
                for value in values:
                    put = self._put_at.pop(id(value), None)
                    if put is not None:
                        self.queue_waits.append(span[sp.END] - put)
                self.batches.append((len(values), reason))

        patch.wrap(rec, MicroBatcher, "put", "serve.batcher.put", attrs=put_start,
                   after=put_done)
        patch.wrap(rec, MicroBatcher, "get_batch_with_reason", "serve.batcher.get",
                   after=batch_done)
        patch.wrap(rec, InProcessBackend, "infer", "serve.backend.infer",
                   attrs=lambda _self, _lane, inputs, **kw: {"batch": len(inputs)})

        def ran(_span, _result, *args, **kwargs):
            self.arena_max = max(self.arena_max, arena.value)

        patch.wrap(rec, CompiledModule, "try_run", "nn.compile.run", after=ran)

        # training
        profiler = self.profiler
        fit = trainer.Trainer.fit

        def fit_profiled(trainer_self, *args, **kwargs):
            # LayerProfiler on training only: its hooks force the unfused
            # eager path, so inference must never run under it.
            if isinstance(trainer_self.model, SelectiveNet):
                with profiler.attach(trainer_self.model):
                    return fit(trainer_self, *args, **kwargs)
            return fit(trainer_self, *args, **kwargs)

        patch.patch(trainer.Trainer, "fit", rec.wrap(fit_profiled, TRAIN_PARENT))
        patch.wrap(rec, BatchIterator, "__iter__", "data.batch")
        patch.wrap(rec, SelectiveNet, "__call__", "nn.forward")
        patch.wrap(rec, Tensor, "backward", "nn.backward")
        patch.wrap(rec, Adam, "step", "nn.optim.step")
        patch.wrap(rec, Optimizer, "zero_grad", "nn.optim.step")
        patch.wrap(rec, trainer, "selectivenet_objective", "core.losses.objective")
        patch.wrap(rec, pipeline.SelectiveWaferClassifier, "fit", "core.pipeline.fit")
        patch.wrap(rec, pipeline, "augment_dataset", "core.augmentation.augment")
        patch.wrap(rec, augmentation, "augment_class", "core.augmentation.augment_class")
        patch.wrap(rec, augmentation, "train_autoencoder", "core.autoencoder.train")

        # continual operations
        patch.wrap(rec, AbstentionRouter, "route", "stream.router.route")
        patch.wrap(rec, ShadowTrainer, "retrain", "stream.shadow.retrain")
        patch.wrap(rec, PromotionController, "consider", "stream.shadow.consider")
        patch.wrap(rec, CheckpointManager, "save", "resilience.checkpoint.save")
        patch.wrap(rec, SelectiveMonitor, "observe", "obs.monitor.observe")

    def restore(self) -> None:
        self.patcher.restore()

    # -- metrics -------------------------------------------------------------
    def per_layer(self, counters: Dict[str, float], extra: Dict[str, float],
                  wall_s: float, wrapper_cost_s: float) -> Dict[str, float]:
        """Every per-layer metric; ``extra`` carries host-side counts."""
        spans = self.recorder.spans
        by_name = sp.summarize(spans)
        train = sp.summarize([s for s in spans if s[sp.PARENT] is not None
                              and s[sp.PARENT][sp.NAME] == TRAIN_PARENT])

        def total(name, table=by_name):
            return table.get(name, {}).get("total_s", 0.0)

        def count(name, table=by_name):
            return table.get(name, {}).get("count", 0)

        def mean(name, scale, table=by_name, per=None):
            n = count(name, table) if per is None else per
            return scale * total(name, table) / n if n else 0.0

        def pct(name, q, scale):
            durations = by_name.get(name, {}).get("durations")
            return scale * quantile(durations, q) if durations else 0.0

        requests = count("serve.gateway.handle")
        out: Dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
        out["serve.protocol.decode_us"] = mean("serve.protocol.decode", 1e6, per=requests)
        out["serve.protocol.encode_us"] = mean("serve.protocol.encode", 1e6, per=requests)
        if requests:
            handle = by_name["serve.gateway.handle"]
            out["serve.gateway.self_us"] = 1e6 * handle["self_s"] / requests
            out["serve.gateway.inflight_max"] = _max_overlap(
                [s for s in spans if s[sp.NAME] == "serve.gateway.handle"])
        out["serve.admission.admit_us"] = mean("serve.admission.admit", 1e6)
        gateway_requests = counters.get("gateway.requests_total", 0)
        if gateway_requests:
            out["serve.admission.admitted_ratio"] = (
                counters.get("gateway.admitted_total", 0) / gateway_requests)
        for reason in SHED_REASONS:
            out[f"serve.admission.shed.{reason}"] = counters.get(f"gateway.rejected.{reason}", 0)
        out["serve.cache.key_us"] = mean("serve.cache.key", 1e6)
        lookups = counters.get("serve.cache.hits", 0) + counters.get("serve.cache.misses", 0)
        if lookups:
            out["serve.cache.hit_ratio"] = counters.get("serve.cache.hits", 0) / lookups
        out["serve.cache.evictions"] = extra.get("cache_evictions", 0)
        with self._lock:
            waits, batches = list(self.queue_waits), list(self.batches)
            out["serve.batcher.depth_max"] = self.depth_max
            out["nn.compile.arena_mb"] = self.arena_max / 1e6
        if waits:
            out["serve.batcher.queue_wait_ms_p50"] = 1e3 * quantile(waits, 0.5)
            out["serve.batcher.queue_wait_ms_p99"] = 1e3 * quantile(waits, 0.99)
        if batches:
            out["serve.batcher.batch_size_mean"] = sum(b for b, _ in batches) / len(batches)
            out["serve.batcher.deadline_flush_share"] = (
                sum(1 for _, r in batches if r == "deadline") / len(batches))
        out["serve.engine.submit_us"] = mean("serve.engine.submit", 1e6)
        out["serve.engine.latency_ms_p50"] = pct("serve.engine.request", 0.5, 1e3)
        out["serve.engine.latency_ms_p99"] = pct("serve.engine.request", 0.99, 1e3)
        out["serve.engine.swap_ms"] = mean("serve.engine.swap", 1e3)
        out["serve.backend.infer_ms_p50"] = pct("serve.backend.infer", 0.5, 1e3)
        out["serve.backend.infer_ms_p99"] = pct("serve.backend.infer", 0.99, 1e3)
        wafers = sum(s[sp.ATTRS]["batch"] for s in spans if s[sp.NAME] == "serve.backend.infer")
        if wafers:
            out["serve.backend.infer_us_per_wafer"] = 1e6 * total("serve.backend.infer") / wafers
        out["nn.compile.run_ms"] = mean("nn.compile.run", 1e3)
        out["nn.compile.cache_misses"] = counters.get("compile.cache_misses", 0)
        out["nn.compile.fallbacks"] = counters.get("compile.fallbacks", 0)
        out["nn.compile.graphs"] = extra.get("compile_graphs", 0)

        out["data.batch_ms"] = mean("data.batch", 1e3, table=train)
        out["nn.forward_ms"] = mean("nn.forward", 1e3, table=train)
        out["nn.backward_ms"] = mean("nn.backward", 1e3, table=train)
        steps = count("nn.forward", train)
        out["nn.optim.step_ms"] = mean("nn.optim.step", 1e3, table=train, per=steps)
        for name, fwd, bwd, calls in _layer_totals(self.profiler):
            if name in LAYER_NAMES and calls:
                out[f"nn.layer.{name}.forward_ms"] = 1e3 * fwd / calls
                out[f"nn.layer.{name}.backward_ms"] = 1e3 * bwd / calls
        out["core.losses.objective_ms"] = mean("core.losses.objective", 1e3, table=train)
        fits = by_name.get(TRAIN_PARENT)
        if fits and steps:
            out["core.trainer.self_ms"] = 1e3 * fits["self_s"] / steps
        out["core.augmentation.augment_s"] = total("core.augmentation.augment")
        out["core.autoencoder.train_s"] = total("core.autoencoder.train")
        augment_class = by_name.get("core.augmentation.augment_class")
        if augment_class:
            out["core.autoencoder.generate_s"] = augment_class["self_s"]
        out["core.calibration.calibrate_s"] = _calibration_s(spans)

        out["stream.router.route_ms"] = mean("stream.router.route", 1e3)
        out["stream.shadow.retrain_s"] = mean("stream.shadow.retrain", 1.0)
        out["stream.shadow.consider_s"] = mean("stream.shadow.consider", 1.0)
        out["resilience.checkpoint.save_ms"] = mean("resilience.checkpoint.save", 1e3)
        out["obs.monitor.observe_us"] = mean("obs.monitor.observe", 1e6)
        for key in ("stream.router.abstain_share", "stream.queue.labels_spent",
                    "stream.queue.shed", "obs.monitor.detect_steps",
                    *[f"stream.shadow.outcome.{o}" for o in OUTCOMES]):
            out[key] = extra.get(key, 0)
        if wall_s > 0:
            out["bench.trace_overhead_pct"] = (
                100.0 * self.recorder.calls * wrapper_cost_s / wall_s)
        return out


def _max_overlap(spans: List[list]) -> int:
    events = sorted([(s[sp.START], 1) for s in spans] + [(s[sp.END], -1) for s in spans],
                    key=lambda e: (e[0], e[1]))
    best = level = 0
    for _, step in events:
        level += step
        best = max(best, level)
    return best


def _layer_totals(profiler) -> List[tuple]:
    """(name, forward_s, backward_s, forward_calls) summed over models."""
    if profiler is None:
        return []
    merged: Dict[str, List[float]] = {}
    for stats in profiler.layers:
        entry = merged.setdefault(stats.name, [0.0, 0.0, 0])
        entry[0] += stats.forward_seconds
        entry[1] += stats.backward_seconds
        entry[2] += stats.forward_calls
    return [(name, f, b, c) for name, (f, b, c) in merged.items()]


def _calibration_s(spans: List[list]) -> float:
    """Time each pipeline fit spent after its Trainer.fit returned."""
    total = 0.0
    for span in spans:
        if span[sp.NAME] != "core.pipeline.fit":
            continue
        trained = [s[sp.END] for s in spans
                   if s[sp.NAME] == TRAIN_PARENT and s[sp.PARENT] is span]
        if trained:
            total += span[sp.END] - max(trained)
    return total


def registry_counters() -> Dict[str, float]:
    from repro.obs.metrics import default_registry

    registry = default_registry()
    return {name: registry.counter(name).value for name in COUNTERS}


def deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}

