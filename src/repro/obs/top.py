"""Ops console: a terminal ``top`` for a serving/training process.

Reads that process's ``MetricsRegistry.snapshot()`` — straight from
the registry, or from the JSON file a
:class:`~repro.obs.export.SnapshotWriter` keeps fresh — and renders
the numbers an operator watches during a run of the selective
classifier: live QPS, p50/p99 latency, shed / cache-hit / abstain
rates, what flushed each batch, the compiled-graph cache, worker
respawns and the continual-operations loop.  Rates are computed from
**deltas between consecutive snapshots**, so the console shows current
behaviour, not lifetime averages.

Run against a snapshot file refreshed by a serving process::

    python -m repro.obs.top --snapshot run/metrics.json --interval 1

or try it offline with ``--demo``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

__all__ = ["compute_rates", "render", "main"]

#: Per-reason batch flush counters (``serve.batch.flush.<reason>``).
_FLUSH_PREFIX = "serve.batch.flush."


def _counters(snapshot: Dict[str, Any]) -> Dict[str, float]:
    return {k: float(v) for k, v in snapshot.get("counters", {}).items()}


def _delta(
    curr: Dict[str, float], prev: Dict[str, float], name: str
) -> float:
    return curr.get(name, 0.0) - prev.get(name, 0.0)


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator > 0 else None


def compute_rates(
    curr: Dict[str, Any], prev: Optional[Dict[str, Any]], dt_s: float
) -> Dict[str, Optional[float]]:
    """Interval rates between two snapshots.

    With ``prev`` None (first tick) lifetime totals are used, so the
    console is informative from the very first frame.
    """
    now = _counters(curr)
    before = _counters(prev) if prev else {}
    requests = _delta(now, before, "serve.requests_total")
    shed = _delta(now, before, "serve.shed_total")
    hits = _delta(now, before, "serve.cache.hits")
    misses = _delta(now, before, "serve.cache.misses")
    accepted = _delta(now, before, "serve.accepted_total")
    abstained = _delta(now, before, "serve.abstained_total")
    gw_requests = _delta(now, before, "gateway.requests_total")
    gw_rejected = _delta(now, before, "gateway.rejected_total")
    flushes = {
        name[len(_FLUSH_PREFIX):]: _delta(now, before, name)
        for name in sorted(now)
        if name.startswith(_FLUSH_PREFIX)
    }
    return {
        "qps": requests / dt_s if dt_s > 0 else None,
        "shed_rate": _ratio(shed, requests),
        "hit_rate": _ratio(hits, hits + misses),
        "abstain_rate": _ratio(abstained, accepted + abstained),
        "requests": requests,
        "gateway_qps": gw_requests / dt_s if dt_s > 0 else None,
        "gateway_requests": gw_requests,
        "gateway_reject_rate": _ratio(gw_rejected, gw_requests),
        "flushes": flushes,
    }


def _fmt_pct(value: Optional[float]) -> str:
    return f"{100.0 * value:6.2f}%" if value is not None else "     --"


def _fmt_ms(value: Optional[float]) -> str:
    return f"{1e3 * value:8.3f}" if value is not None else "      --"


def render(
    curr: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    dt_s: float = 1.0,
) -> str:
    """One console frame from ``prev``-to-``curr`` deltas."""
    rates = compute_rates(curr, prev, dt_s)
    latency = curr.get("histograms", {}).get("serve.latency_s", {})
    lines = [
        "repro.obs.top — process metrics",
        "-" * 46,
        f"  qps          {rates['qps']:10.1f}" if rates["qps"] is not None
        else "  qps                  --",
        f"  p50 ms       {_fmt_ms(latency.get('p50'))}",
        f"  p99 ms       {_fmt_ms(latency.get('p99'))}",
        f"  shed rate    {_fmt_pct(rates['shed_rate'])}",
        f"  hit rate     {_fmt_pct(rates['hit_rate'])}",
        f"  abstain rate {_fmt_pct(rates['abstain_rate'])}",
    ]
    queue_depth = curr.get("gauges", {}).get("serve.queue_depth")
    if queue_depth is not None:
        lines.append(f"  queue depth  {queue_depth:10.0f}")
    flushes = {reason: n for reason, n in rates["flushes"].items() if n}
    if flushes:
        lines.append("  flushes      " + "  ".join(
            f"{reason} {n:.0f}" for reason, n in flushes.items()
        ))
    if rates["gateway_requests"]:
        counters = curr.get("counters", {})
        gauges = curr.get("gauges", {})
        gw_latency = curr.get("histograms", {}).get("gateway.latency_s", {})
        reasons = " ".join(
            f"{reason.split('.')[-1]}={counters.get(reason, 0):.0f}"
            for reason in (
                "gateway.rejected.queue_full",
                "gateway.rejected.bucket_exhausted",
                "gateway.rejected.invalid_input",
            )
            if counters.get(reason, 0)
        )
        lines.append(
            f"  gateway      {rates['gateway_qps']:10.1f} qps"
            f"  reject {_fmt_pct(rates['gateway_reject_rate'])}"
            f"  p99 ms {_fmt_ms(gw_latency.get('p99'))}"
            f"  conns {gauges.get('gateway.connections', 0):.0f}"
            f"  inflight {gauges.get('gateway.inflight', 0):.0f}"
        )
        if reasons:
            lines.append(f"    rejected:  {reasons}")
    counters = curr.get("counters", {})
    gauges = curr.get("gauges", {})
    if counters.get("compile.graphs"):
        lines.append(
            f"  compile      graphs {counters['compile.graphs']:.0f}"
            f"  cache {counters.get('compile.cache_hits', 0):.0f}/"
            f"{counters.get('compile.cache_misses', 0):.0f} hit/miss"
        )
    respawns = counters.get("parallel.worker.respawns", 0)
    if respawns:
        lines.append(f"  respawns     {respawns:10.0f}")
    generation = gauges.get("serve.generation")
    label_depth = gauges.get("stream.label_queue.depth")
    if (generation is not None and generation > 1) or label_depth is not None:
        promotes = counters.get("stream.promotes", 0)
        rollbacks = counters.get("stream.rollbacks", 0)
        submitted = counters.get("stream.label_queue.submitted", 0)
        labeled = counters.get("stream.label_queue.labeled", 0)
        shed_labels = counters.get(
            "stream.label_queue.shed.queue_full", 0
        ) + counters.get("stream.label_queue.shed.budget", 0)
        lines.append(
            f"  continual    gen {generation or 1:.0f}"
            f"  promotes {promotes:.0f}  rollbacks {rollbacks:.0f}"
        )
        lines.append(
            f"    labels:    queued {label_depth or 0:.0f}"
            f"  submitted {submitted:.0f}  labeled {labeled:.0f}"
            f"  shed {shed_labels:.0f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _demo_frames() -> List[Dict[str, Any]]:
    from .metrics import MetricsRegistry

    registry = MetricsRegistry()
    requests = registry.counter("serve.requests_total")
    hits = registry.counter("serve.cache.hits")
    misses = registry.counter("serve.cache.misses")
    accepted = registry.counter("serve.accepted_total")
    abstained = registry.counter("serve.abstained_total")
    registry.counter("serve.shed_total").inc(2)
    registry.gauge("serve.queue_depth").set(4)
    registry.counter("compile.graphs").inc(2)
    registry.counter("compile.cache_hits").inc(198)
    registry.counter("compile.cache_misses").inc(2)
    registry.gauge("serve.generation").set(2)
    registry.counter("stream.promotes").inc(1)
    registry.counter("stream.rollbacks").inc(1)
    registry.gauge("stream.label_queue.depth").set(6)
    registry.counter("stream.label_queue.submitted").inc(64)
    registry.counter("stream.label_queue.labeled").inc(58)
    registry.counter("stream.label_queue.shed.budget").inc(3)
    latency = registry.histogram("serve.latency_s")
    immediate = registry.counter("serve.batch.flush.immediate")
    size = registry.counter("serve.batch.flush.size")
    frames = []
    for frame in range(3):
        immediate.inc(60)
        size.inc(frame)
        for i in range(200):
            requests.inc()
            (hits if i % 3 == 0 else misses).inc()
            (abstained if i % 10 == 0 else accepted).inc()
            latency.observe(0.003 + 0.0002 * (i % 25) + 0.001 * frame)
        frames.append(registry.snapshot())
    return frames


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="Live console view of one serving or training process's metrics.",
    )
    parser.add_argument(
        "--snapshot", metavar="PATH",
        help="snapshot JSON file to watch (as written by SnapshotWriter)",
    )
    parser.add_argument("--interval", type=float, default=1.0)
    parser.add_argument(
        "--iterations", type=int, default=0,
        help="number of frames to render (0 = until interrupted)",
    )
    parser.add_argument(
        "--demo", action="store_true", help="render three synthetic frames"
    )
    args = parser.parse_args(argv)

    if args.demo:
        prev = None
        for frame in _demo_frames():
            print(render(frame, prev, dt_s=args.interval))
            print()
            prev = frame
        return 0

    if not args.snapshot:
        parser.error("--snapshot PATH is required (or use --demo)")

    prev: Optional[Dict[str, Any]] = None
    iteration = 0
    try:
        while True:
            try:
                curr = _load(args.snapshot)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"[waiting for snapshot: {exc}]", file=sys.stderr)
                curr = None
            if curr is not None:
                print(render(curr, prev, dt_s=args.interval))
                print()
                prev = curr
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
