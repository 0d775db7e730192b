"""The repository benchmark: one command per workload run.

    python3 fabbench/run.py --workload serve_frontdoor --seed 1 --seconds 15 --trace 0

Runs one workload of ``BENCHMARK.json`` from the workload seed, checks
the program's outputs, and prints as its last stdout line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it carries provenance and diagnostics.
See ``fabbench/README.md`` for what each metric means per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from fabbench.harness import RunInvalid, run_workload  # noqa: E402
from fabbench.server import load_config  # noqa: E402


def main(argv=None) -> int:
    # A terminated run still stops its servers (the harness' finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    config = load_config()
    if args.workload not in config["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    workload = config["workloads"][args.workload]
    try:
        workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
        metrics, tally, correct, details = run_workload(
            args.workload, workload, config, args.seed, args.seconds, args.trace, workdir)
        bound = config["generator"]["lateness_p99_bound_ms"]
        lateness = details.get("lateness_ms_p99")
        if lateness is not None and lateness > bound:
            raise RunInvalid(f"generator lateness p99 {lateness:.1f} ms exceeds {bound} ms")
    except RunInvalid as exc:
        print(f"run invalid: {exc}", file=sys.stderr)
        return 3

    from repro.obs.export import provenance

    if args.trace:
        per_layer = details.get("per_layer", {})
        wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = {name: float(per_layer.get(name, 0.0)) for name in wanted}
    else:
        wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {name: float(metrics[name]) for name in wanted}
    details.pop("per_layer", None)
    print(json.dumps({"provenance": provenance(), "workload": args.workload,
                      "seed": args.seed, "details": details}, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
