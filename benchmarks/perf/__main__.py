"""CLI entry point: ``python -m benchmarks.perf [--smoke] [--out-dir D]``.

Runs the inference, compile, training, parallel, serving and
observability suites and writes ``BENCH_infer.json``,
``BENCH_compile.json``, ``BENCH_train.json``, ``BENCH_parallel.json``,
``BENCH_serve.json`` and ``BENCH_obs.json`` into ``--out-dir``
(default: this package's directory, where the committed baselines
live).  Open-loop gateway load and the continual-operations loop are
measured end to end by the repository benchmark (``fabbench``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench_compile import run_compile_suite
from .bench_infer import run_infer_suite
from .bench_obs import run_obs_suite
from .bench_parallel import run_parallel_suite
from .bench_serve import run_serve_suite
from .bench_train import run_train_suite
from .harness import write_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description="repro.nn performance benchmarks"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrunken workloads, minimal repeats (seconds, for CI smoke)",
    )
    parser.add_argument(
        "--out-dir",
        default=os.path.dirname(os.path.abspath(__file__)),
        help="directory for BENCH_infer.json / BENCH_train.json",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed repetitions per case (full mode)"
    )
    parser.add_argument(
        "--suite",
        choices=["infer", "compile", "train", "parallel", "serve", "obs", "all"],
        default="all",
        help="which suite(s) to run",
    )
    args = parser.parse_args(argv)

    if args.suite in ("infer", "all"):
        cases = run_infer_suite(smoke=args.smoke, repeats=args.repeats)
        path = write_suite(
            os.path.join(args.out_dir, "BENCH_infer.json"), "infer", cases, smoke=args.smoke
        )
        _report(path, cases)
    if args.suite in ("compile", "all"):
        cases = run_compile_suite(smoke=args.smoke, repeats=args.repeats)
        path = write_suite(
            os.path.join(args.out_dir, "BENCH_compile.json"),
            "compile", cases, smoke=args.smoke,
        )
        _report(path, cases)
    if args.suite in ("train", "all"):
        cases = run_train_suite(smoke=args.smoke, repeats=min(args.repeats, 3))
        path = write_suite(
            os.path.join(args.out_dir, "BENCH_train.json"), "train", cases, smoke=args.smoke
        )
        _report(path, cases)
    if args.suite in ("parallel", "all"):
        cases = run_parallel_suite(smoke=args.smoke, repeats=min(args.repeats, 3))
        path = write_suite(
            os.path.join(args.out_dir, "BENCH_parallel.json"), "parallel", cases, smoke=args.smoke
        )
        _report(path, cases)
    if args.suite in ("serve", "all"):
        cases = run_serve_suite(smoke=args.smoke, repeats=min(args.repeats, 3))
        path = write_suite(
            os.path.join(args.out_dir, "BENCH_serve.json"), "serve", cases, smoke=args.smoke
        )
        _report(path, cases)
    if args.suite in ("obs", "all"):
        cases = run_obs_suite(smoke=args.smoke, repeats=min(args.repeats, 3))
        path = write_suite(
            os.path.join(args.out_dir, "BENCH_obs.json"), "obs", cases, smoke=args.smoke
        )
        _report(path, cases)
    return 0


def _report(path: str, cases) -> None:
    print(f"wrote {path}")
    for case in cases:
        extra = "".join(f"  {k}={v:.3g}" for k, v in case.metrics.items())
        print(f"  {case.name:28s} median={case.wall_s_median * 1e3:8.2f} ms{extra}")


if __name__ == "__main__":
    sys.exit(main())
