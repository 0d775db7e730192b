"""Workload runs: set up, drive, check and measure one run.

Each run returns ``(metrics, tally, correct, details)``: the
end-to-end metric values, the attempted/failed tally, whether every
checked output was correct, and a diagnostics dict (printed, not
parsed).  Serving workloads are driven over TCP by
:mod:`fabbench.openloop`; the training workload through one ``train``
command; every server is a :class:`~fabbench.proc.ServerProcess`.
"""

from __future__ import annotations

import os
import shutil
import time
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import inputs, openloop
from .openloop import Scheduled
from .proc import ServerProcess
from .stats import INF, Outcome, Tally, latency_summary, quantile

SHED_OK = "bucket_exhausted"


class RunInvalid(RuntimeError):
    """The measurement cannot be trusted (e.g. the generator ran late)."""


def core_budget(threads: int, connections: int) -> None:
    """Refuse to record when load generation used more than the cores.

    ``threads`` is what the generator process really ran while it drove
    (:attr:`~fabbench.openloop.Timings.threads`), not a setting.
    """
    cores = len(os.sched_getaffinity(0))
    if threads > cores or connections > cores:
        raise RunInvalid(f"generator ran {threads} thread(s) and {connections} "
                         f"connection(s) but only {cores} core(s) are available")


# ----------------------------------------------------------------------
# Traffic plans
# ----------------------------------------------------------------------
def plan_traffic(cfg: Dict[str, Any], seconds: float, rng: np.random.Generator,
                 primed: int = 0) -> List[Scheduled]:
    """The due-ordered schedule of one run (or one warm-up round).

    ``map_index`` is filled in: a fresh map gets the next new index, a
    repeat (``repeat_share`` of requests) the index of a map among the
    last ``working_set`` distinct maps sent.  Maps ``0 .. primed-1`` count
    as sent before the schedule starts (:func:`plan_priming`); with
    ``primed >= working_set`` repeats start at the first request.
    """
    traffic, tenants = cfg["traffic"], cfg["tenants"]
    conn_of = {name: t["conn"] for name, t in tenants.items()}
    if traffic["kind"] == "poisson":
        arrivals = {traffic["tenant"]: openloop.poisson_times(
            rng, traffic["rate_wps"], 0.0, seconds)}
    else:  # "mix": steady in-contract tenant + on/off bursty tenant
        arrivals = {
            "steady": openloop.poisson_times(rng, traffic["steady_wps"], 0.0, seconds),
            "bursty": openloop.on_off_times(rng, traffic["burst_wps"], traffic["on_s"],
                                            traffic["off_s"], 0.0, seconds,
                                            phase_s=traffic["off_s"] / 2),
        }
    schedule = openloop.merge(arrivals, conn_of)

    repeat_share = traffic.get("repeat_share", 0.0)
    window = traffic.get("working_set", 0)
    fresh = primed
    for item in schedule:
        if repeat_share and fresh >= window and rng.random() < repeat_share:
            item.map_index = int(rng.integers(fresh - window, fresh))
        else:
            item.map_index = fresh
            fresh += 1
    return schedule


def plan_priming(cfg: Dict[str, Any], rng: np.random.Generator) -> List[Scheduled]:
    """Untimed round that sends maps ``0 .. working_set-1`` once.

    It runs just before the clock, so the timed phase starts with the
    working set already seen (and as much of it cached as the cache
    holds): its repeat share and hit ratio hold from the first request
    instead of only after ``working_set`` fresh maps.
    """
    traffic = cfg["traffic"]
    prime = traffic.get("prime")
    if not prime:
        return []
    tenant = prime["tenant"]
    conn = cfg["tenants"][tenant]["conn"]
    times = np.cumsum(rng.exponential(1.0 / prime["rate_wps"], traffic["working_set"]))
    return [Scheduled(float(t), conn, tenant, index) for index, t in enumerate(times)]


def encode_frames(schedule: Sequence[Scheduled], grids: np.ndarray) -> List[bytes]:
    encoded: Dict[int, bytes] = {}
    frames = []
    for req_id, item in enumerate(schedule):
        grid_json = encoded.get(item.map_index)
        if grid_json is None:
            grid_json = encoded[item.map_index] = openloop.encode_grid(grids[item.map_index])
        frames.append(openloop.frame(req_id, item.tenant, grid_json))
    return frames


def warm_grids(base: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Distinct maps for warm-up: generator maps with a few dies flipped."""
    from repro.data import add_salt_pepper

    rng = np.random.default_rng(seed)
    return np.stack([add_salt_pepper(base[i % len(base)], 0.02, rng) for i in range(count)])


# ----------------------------------------------------------------------
# Reference decisions
# ----------------------------------------------------------------------
def reference_labels(generation: Dict[str, Any], grids: np.ndarray) -> np.ndarray:
    """``SelectiveNet.predict_selective`` labels of one served generation."""
    from repro.core import BackboneConfig, SelectiveNet
    from repro.data import grid_to_tensor
    from repro.nn.serialization import load_model

    model = SelectiveNet(generation["num_classes"], BackboneConfig(
        input_size=generation["size"], **inputs.arch_kwargs(generation["arch"])))
    load_model(model, generation["weights"])
    tensors = np.stack([grid_to_tensor(g) for g in grids]) if len(grids) else np.empty(
        (0, 1, generation["size"], generation["size"]), dtype=np.float32)
    return model.predict_selective(tensors, threshold=generation["threshold"]).labels


def candidate_generations(sent: float, done: float, transitions: List[Dict[str, Any]]
                          ) -> List[int]:
    """Generations that may have answered a request live on [sent, done]."""
    current, allowed = 1, set()
    for change in transitions:
        if change["end"] < sent:
            current = change["gens"][-1] if change["gens"] else current
        elif change["start"] <= done:
            allowed.update(change["gens"])
    allowed.add(current)
    return sorted(allowed)


# ----------------------------------------------------------------------
# Serving and drift
# ----------------------------------------------------------------------
class ServeRun:
    def __init__(self, name: str, cfg: Dict[str, Any], common: Dict[str, Any], seed: int,
                 seconds: float, trace: int, workdir: str) -> None:
        self.name, self.cfg, self.common = name, cfg, common
        self.seed, self.seconds, self.trace, self.workdir = seed, seconds, trace, workdir
        self.limit_s = cfg["latency_limit_ms"] / 1000.0
        self.drain_s = common["generator"]["drain_s"]
        self.connections = 1 + max(t["conn"] for t in cfg["tenants"].values())
        self.classes = tuple(cfg["stream"]["classes"]) if "stream" in cfg else None

    # -- inputs ------------------------------------------------------------
    def prepare(self) -> None:
        rng = np.random.default_rng(inputs.derive(self.seed, "schedule"))
        self.priming = plan_priming(self.cfg, rng)
        self.schedule = plan_traffic(self.cfg, self.seconds, rng, primed=len(self.priming))
        unique = 1 + max(item.map_index for item in self.schedule)
        self.repeat_share = 1.0 - (unique - len(self.priming)) / len(self.schedule)
        data = inputs.unique_maps(unique, self.cfg["map_size"],
                                  inputs.derive(self.seed, "traffic"), self.classes)
        self.grids, self.labels = data.grids, data.labels
        self.frames = encode_frames(self.schedule, self.grids)
        self.prime_frames = encode_frames(self.priming, self.grids)

        # Warm-up is set-up, like the served model: it comes from the fixed
        # model seed, so every run warms on the same traffic and the
        # workload seed varies only the measured phase.
        warm_seed = self.cfg["model_seed"]
        warm_rng = np.random.default_rng(inputs.derive(warm_seed, "warm-schedule"))
        round_s = self.common["warmup"]["round_s"]
        base = inputs.paper_maps(64, self.cfg["map_size"], inputs.derive(warm_seed, "warm"),
                                 self.classes).grids
        self.warm_rounds = []
        for round_index in range(self.common["warmup"]["max_rounds"]):
            schedule = plan_traffic(self.cfg, round_s, warm_rng)
            count = 1 + max(item.map_index for item in schedule)
            grids = warm_grids(base, count, inputs.derive(warm_seed, f"warm{round_index}"))
            self.warm_rounds.append((schedule, encode_frames(schedule, grids)))

    # -- set-up ------------------------------------------------------------
    def _drive(self, server: ServerProcess, schedule, frames):
        result = openloop.run("127.0.0.1", server.port, schedule, frames, self.connections,
                              self.drain_s)
        core_budget(result.threads, self.connections)
        return result

    def setup_once(self, index: int) -> Tuple[ServerProcess, Dict[str, Any]]:
        """Start a server and warm it until compile misses stop rising."""
        server = ServerProcess(self.name, self.seed, self.trace,
                               os.path.join(self.workdir, f"setup{index}"))
        try:
            ready = server.wait_ready()
            server.port = ready["port"]
            misses = server.call("counters")["compile_misses"]
            first_answer = None
            rounds = quiet = 0
            quiet_rounds = self.common["warmup"]["quiet_rounds"]
            for schedule, frames in self.warm_rounds:
                result = self._drive(server, schedule, frames)
                rounds += 1
                if first_answer is None:
                    answered = [d for d in result.done_at if d != INF]
                    first_answer = result.t0 + min(answered) if answered else None
                now = server.call("counters")["compile_misses"]
                # "Stopped rising": ``quiet_rounds`` rounds in a row without a miss.
                quiet = quiet + 1 if now == misses else 0
                misses = now
                if quiet == quiet_rounds:
                    break
            setup_s = time.monotonic() - server.started
        except BaseException:
            server.close()
            raise
        return server, {
            "setup_s": setup_s, "fit_s": ready["fit_s"], "train_wps": ready["train_wps"],
            "recover_s": (first_answer - ready["fit_started"]) if first_answer else None,
            "warm_rounds": rounds, "ready": ready,
        }

    # -- the run -------------------------------------------------------------
    def run(self) -> Tuple[Dict[str, float], Tally, bool, Dict[str, Any]]:
        self.prepare()
        setups = []
        for index in range(self.common["setups_per_run"]):
            server, info = self.setup_once(index)
            setups.append(info)
            if index < self.common["setups_per_run"] - 1:
                server.close()
        try:
            primed = self._drive(server, self.priming, self.prime_frames) if self.priming else None
            server.call("mark")
            if self.classes is not None:
                server.call("ops")
            result = self._drive(server, self.schedule, self.frames)
            collected = server.call("collect", timeout=600.0)
        finally:
            server.close()
        return self.measure(setups, result, collected, primed)

    def measure(self, setups, result, collected, primed):
        transitions = collected.get("transitions", [])
        generations = {g["gen"]: g for g in collected.get("generations")
                       or setups[-1]["ready"]["generations"]}
        tally = Tally(attempted=len(self.schedule))
        lateness = result.lateness_s(self.schedule)

        # Reference decisions of every generation a request may have met.
        candidates = [candidate_generations(result.t0 + s, result.t0 + d, transitions)
                      if d != INF else [] for s, d in zip(result.sent_at, result.done_at)]
        needed: Dict[int, List[int]] = {}
        for index, gens in enumerate(candidates):
            for gen in gens:
                needed.setdefault(gen, []).append(index)
        references: Dict[int, Dict[int, int]] = {}
        for gen, indices in needed.items():
            maps = sorted({self.schedule[i].map_index for i in indices})
            labels = reference_labels(generations[gen], self.grids[maps])
            references[gen] = dict(zip(maps, labels.tolist()))

        outcomes: List[Outcome] = []
        wrong = 0
        answered: List[Tuple[int, Dict[str, Any]]] = []
        in_contract = {n for n, t in self.cfg["tenants"].items() if t["in_contract"]}
        for index, item in enumerate(self.schedule):
            response = result.responses[index]
            ok = False
            if response is None:
                tally.fail("timeout")
            elif not response["ok"]:
                reason = response["error"].get("reason") or response["error"]["type"]
                if item.tenant in in_contract or reason != SHED_OK:
                    tally.fail(f"refused:{reason}")
            else:
                decision = response["result"]["label"]
                if any(references[g].get(item.map_index) == decision for g in candidates[index]):
                    ok = True
                    answered.append((index, response["result"]))
                else:
                    wrong += 1
                    tally.fail("wrong_decision")
            latency = (result.done_at[index] - item.due_s) if ok else INF
            outcomes.append(Outcome(item.tenant, item.due_s, latency, ok))

        mine = [o for o in outcomes if o.tenant in in_contract]
        summary = latency_summary(mine)
        ceiling_ms = 1000.0 * (self.seconds + self.drain_s)

        def accuracy(pairs, accepted_only):
            hits = total = 0
            for index, res in pairs:
                if accepted_only and not res["accepted"]:
                    continue
                truth = int(self.labels[self.schedule[index].map_index])
                total += 1
                hits += int((res["label"] if accepted_only else res["raw_label"]) == truth)
            return hits / total if total else 0.0

        good = sum(1 for o in outcomes if o.ok and o.latency_s <= self.limit_s)
        hits = collected["counters"].get("serve.cache.hits", 0)
        lookups = hits + collected["counters"].get("serve.cache.misses", 0)
        metrics = {
            "setup_s": median([s["setup_s"] for s in setups]),
            "latency_p50_ms": min(summary["latency_p50_ms"], ceiling_ms),
            "goodput_wps": good / self.seconds,
            "peak_rss_mb": collected["peak_rss_mb"],
            "selective_accuracy": accuracy(answered, True),
            "full_accuracy": accuracy(answered, False),
            "post_promote_accuracy": accuracy(answered, True),
            "fit_s": median([s["fit_s"] for s in setups]),
            "train_wps": median([s["train_wps"] for s in setups]),
            "recover_s": median([s["recover_s"] for s in setups if s["recover_s"]] or [0.0]),
        }
        correct = wrong == 0
        details = {
            "setups": [{k: v for k, v in s.items() if k != "ready"} for s in setups],
            "latency_p99_ms": min(summary["latency_p99_ms"], ceiling_ms),
            "samples_beyond_p99": summary["samples_beyond_p99"],
            "lateness_ms_p99": 1000.0 * quantile(lateness, 0.99),
            "generator_threads": result.threads,
            "failures": tally.reasons,
            "slowest": sorted(((round(1000 * o.latency_s, 1), round(o.due_s, 2))
                               for o in mine), reverse=True)[:20],
            "timed_compile_misses": collected["counters"].get("compile.cache_misses"),
            "repeat_share": self.repeat_share,
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
            "counters": collected["counters"],
        }
        if primed is not None:
            details["primed"] = {"sent": len(self.priming),
                                 "answered": sum(1 for r in primed.responses if r and r["ok"])}
        if "episodes" in collected:
            self._drift_metrics(metrics, details, tally, collected, result)
            correct = correct and not collected["ops_error"] and all(
                e["promoted"] for e in collected["episodes"])
        if "per_layer" in collected:
            details["per_layer"] = collected["per_layer"]
            details["per_layer"]["serve.protocol.request_bytes"] = (
                sum(len(f) for f in self.frames) / len(self.frames))
            details["per_layer"]["bench.gen_lateness_ms_p99"] = details["lateness_ms_p99"]
        return metrics, tally, correct, details

    def _drift_metrics(self, metrics, details, tally, collected, result) -> None:
        episodes = collected["episodes"]
        tally.attempted += len(episodes)
        for episode in episodes:
            if not episode["promoted"]:
                tally.fail("episode_without_promotion")
        recovers = [e["recover_s"] for e in episodes if e["recover_s"] is not None]
        post_acc = sum(e["post_accepted"] for e in episodes)
        metrics["recover_s"] = median(recovers) if recovers else metrics["recover_s"]
        metrics["post_promote_accuracy"] = (
            sum(e["post_correct"] for e in episodes) / post_acc if post_acc else 0.0)
        details["episodes"] = episodes
        for episode in episodes:
            episode["timeline"] = {k: None if v is None else round(v - result.t0, 3)
                                   for k, v in episode["timeline"].items()}
        details["ops_error"] = collected["ops_error"]


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def run_train(name: str, cfg: Dict[str, Any], common: Dict[str, Any], seed: int,
              seconds: float, trace: int, workdir: str):
    setups = []
    server: Optional[ServerProcess] = None
    for index in range(common["setups_per_run"]):
        server = ServerProcess(name, seed, trace, os.path.join(workdir, f"setup{index}"))
        try:
            server.wait_ready()
        except BaseException:
            server.close()
            raise
        setups.append(server.ready_at - server.started)
        if index < common["setups_per_run"] - 1:
            server.close()
    try:
        server.call("mark")
        out = server.call("train", timeout=900.0)
    finally:
        server.close()

    limit_s = cfg["latency_limit_ms"] / 1000.0
    reference = out["reference_labels"]
    truth = out["test_labels"]
    tally = Tally(attempted=len(out["lot_decisions"]) + 1)
    good = hits = accepted = 0
    outcomes, elapsed = [], 0.0
    for (start, labels), latency in zip(out["lot_decisions"], out["lot_latencies_s"]):
        ok = labels == reference[start:start + len(labels)]
        outcomes.append(Outcome("user", float(len(outcomes)), latency if ok else INF, ok))
        elapsed += latency
        if not ok:
            tally.fail("wrong_decision")
            continue
        good += len(labels) if latency <= limit_s else 0
        for offset, label in enumerate(labels):
            if label != -1:
                accepted += 1
                hits += int(label == truth[start + offset])
    coverage_ok = abs(out["val_coverage"] - out["target_coverage"]) <= cfg["coverage_tolerance"]
    if not coverage_ok:
        tally.fail("calibrated_coverage")
    test_accepted = [i for i, label in enumerate(reference) if label != -1]
    summary = latency_summary(outcomes)
    metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": summary["latency_p50_ms"],
        "goodput_wps": good / elapsed,
        "peak_rss_mb": out["peak_rss_mb"],
        "selective_accuracy": (sum(reference[i] == truth[i] for i in test_accepted)
                               / len(test_accepted)) if test_accepted else 0.0,
        "full_accuracy": float(np.mean(np.asarray(out["reference_raw"]) == np.asarray(truth))),
        "post_promote_accuracy": hits / accepted if accepted else 0.0,
        "fit_s": out["fit_s"],
        "train_wps": out["train_wps"],
        "recover_s": out["first_answer"] - out["fit_started"],
    }
    correct = tally.failed == 0
    details = {
        "setups_s": setups, "val_coverage": out["val_coverage"], "samples": out["samples"],
        "failures": tally.reasons, "counters": out["counters"],
        "latency_p99_ms": min(summary["latency_p99_ms"], 1000.0 * elapsed),
        "samples_beyond_p99": summary["samples_beyond_p99"],
    }
    if "per_layer" in out:
        details["per_layer"] = out["per_layer"]
    return metrics, tally, correct, details


def run_workload(name: str, cfg: Dict[str, Any], common: Dict[str, Any], seed: int,
                 seconds: float, trace: int, workdir: str):
    try:
        if cfg["kind"] == "train":
            return run_train(name, cfg, common, seed, seconds, trace, workdir)
        return ServeRun(name, cfg, common, seed, seconds, trace, workdir).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
