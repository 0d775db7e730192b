#!/usr/bin/env python3
"""Alternating benchmark pairs with an A/A control, and one verdict rule.

    python scripts/pairs.py --base REV --change REV --workload W [W ...] \\
        --pairs N --seed S --out FILE [--trace 0|1]

Run it from inside the git repository whose revisions it compares.
Each revision's files are written by ``git archive`` and extracted with
``tarfile`` into a temporary directory, and the base's twice: the
second copy is the A/A control, the same code measured as if it were a
change.  The repository itself is only read: no worktree, ref or file
under ``.git`` is added, so the runner can run from the repository it
measures.  Every tree is byte-compiled first (``python -m compileall
-q src fabbench``), so no side pays for compiling what it imports.
Then, for each workload and round, each tree runs ``BENCHMARK.json``'s
command once: base, change, A/A copy in even rounds, and A/A copy,
change, base in odd ones.  So every base/change pair and every A/A
pair alternates which side runs first.  The copies are removed on
every exit path.

For each workload and metric it prints the pair table: each side's
median ``[Q1, Q3]``; the change's wins over the base (ties count for
neither); the change of the median; the base's spread,
``(Q3 - Q1) / median``; and the A/A gap, ``|A/A median - base median|
/ base median``.  A run that printed no result or was not ``correct``
gives no values.  One rule gives the verdict, first match wins:

* **failing**: the change's runs failed more than the base's: more
  runs without a result, not ``correct`` or with failed requests, or a
  larger share of failed requests;
* **no data**: the base or the change has no value;
* **unresolved**: the base's spread is wider than the metric's
  ``bound`` in ``BENCHMARK.json``, too wide to tell, unless every run
  of the change reads better than every run of the base;
* **regression**: the change's median is worse than the base's by
  more than the bound;
* **gain**: the change won at least 9 of every 10 pairs, and its
  median is better than the base's by more than both the base's IQR
  and the A/A gap;
* **spread**: anything else.

Each side's run health is printed under the table.  The JSON artifact
written to ``--out`` (rewritten after every run) holds both commit
shas, the git tree hashes of the paths a run measures (``src`` and
``fabbench``; equal code gives equal hashes, in any clone and under
any later commit) and every result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from fabbench.stats import quantile  # noqa: E402

SIDES = ("base", "change", "aa")
#: Paths whose git tree hashes identify the code a run measures.
MEASURED = ("src", "fabbench")
#: Wall-clock limit of one benchmark run; the run's process group is
#: killed past it and the run counts as one without a result.
RUN_TIMEOUT_S = 1800.0


def run_order(round_index: int) -> Sequence[str]:
    """The order the three trees run in one round."""
    return ("base", "change", "aa") if round_index % 2 == 0 else ("aa", "change", "base")


def compare(
    base: Sequence[Optional[float]],
    change: Sequence[Optional[float]],
    aa: Sequence[Optional[float]],
    better: str,
    bound: Optional[float] = None,
    failing: bool = False,
) -> Dict[str, Any]:
    """Pair statistics and the verdict of one metric.

    Each list holds one value per round, ``None`` where that run gave
    no value; a round is a pair only when both base and change have a
    value.  ``better`` is ``"higher"`` or ``"lower"``; ``failing`` says
    the change's runs failed more than the base's (:func:`fails_more`).
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
    sides = {name: [v for v in values if v is not None]
             for name, values in (("base", base), ("change", change), ("aa", aa))}
    out: Dict[str, Any] = {
        "pairs": len(pairs),
        "wins": sum(1 for b, c in pairs if sign * (c - b) > 0),
        "ties": sum(1 for b, c in pairs if c == b),
    }
    for name, values in sides.items():
        out[name] = ([quantile(values, 0.5), quantile(values, 0.25), quantile(values, 0.75)]
                     if values else None)
    if out["base"] is None or out["change"] is None:
        out["verdict"] = "failing" if failing else "no data"
        return out
    b_med, b_q1, b_q3 = out["base"]
    gap = sign * (out["change"][0] - b_med)  # > 0: the change is better
    aa_gap = abs(out["aa"][0] - b_med) if out["aa"] is not None else None
    scale = abs(b_med)
    out["change_pct"] = 100.0 * (out["change"][0] - b_med) / scale if scale else 0.0
    out["spread"] = (b_q3 - b_q1) / scale if scale else 0.0
    out["aa_gap"] = None if aa_gap is None else (aa_gap / scale if scale else 0.0)
    # Every change run better than every base run settles a wide spread.
    separated = min(sign * v for v in sides["change"]) > max(sign * v for v in sides["base"])
    if failing:
        out["verdict"] = "failing"
    elif bound is not None and out["spread"] > bound and not separated:
        out["verdict"] = "unresolved"
    elif bound is not None and -gap > bound * scale:
        out["verdict"] = "regression"
    elif (pairs and 10 * out["wins"] >= 9 * len(pairs)
            and gap > b_q3 - b_q1 and aa_gap is not None and gap > aa_gap):
        out["verdict"] = "gain"
    else:
        out["verdict"] = "spread"
    return out


def _fmt(value: float) -> str:
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.3f}"


def table_rows(workload: str, stats: Dict[str, Dict[str, Any]]) -> List[str]:
    """The markdown pair table of one workload, one row per metric."""
    rows = []
    for index, (metric, s) in enumerate(stats.items()):
        label = f"`{workload}` ({s['pairs']} pairs)" if index == 0 else ""
        if s["base"] is None or s["change"] is None:
            rows.append(f"| {label} | `{metric}` | no data |  |  |  |  |  | {s['verdict']} |")
            continue
        side = {name: f"{_fmt(s[name][0])} [{_fmt(s[name][1])}, {_fmt(s[name][2])}]"
                for name in ("base", "change")}
        wins = f"{s['wins']}/{s['pairs']}" + (f" ({s['ties']} ties)" if s["ties"] else "")
        aa = "n/a" if s["aa_gap"] is None else f"{s['aa_gap']:.2f}"
        rows.append(
            f"| {label} | `{metric}` | {side['base']} | {side['change']} | {wins} | "
            f"{s['change_pct']:+.1f} % | {s['spread']:.2f} | {aa} | {s['verdict']} |")
    return rows


def _git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _tree_hash(repo: str, sha: str, path: str) -> Optional[str]:
    """The git tree hash of ``path`` at ``sha``, or ``None`` without it."""
    proc = subprocess.run(["git", "-C", repo, "rev-parse", "--verify", "--quiet",
                           f"{sha}:{path}"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _checkout(repo: str, sha: str, tree: str) -> None:
    """Extract the files of commit ``sha`` into the new directory ``tree``."""
    os.makedirs(tree)
    proc = subprocess.Popen(["git", "-C", repo, "archive", "--format=tar", sha],
                            stdout=subprocess.PIPE)
    try:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
            # The "data" filter exists from 3.12 and in later 3.9-3.11 patch
            # releases; the archive comes from the local repository.
            if hasattr(tarfile, "data_filter"):
                archive.extractall(tree, filter="data")
            else:
                archive.extractall(tree)
    finally:
        proc.stdout.close()
        if proc.wait() != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)


def _compile(tree: str) -> None:
    dirs = [d for d in ("src", "fabbench") if os.path.isdir(os.path.join(tree, d))]
    if dirs:
        subprocess.run([sys.executable, "-m", "compileall", "-q", *dirs],
                       cwd=tree, check=True, capture_output=True)


def _run(tree: str, argv: List[str]) -> Dict[str, Any]:
    """One benchmark run in ``tree``: exit code, wall time, last stdout line."""
    started = time.monotonic()
    proc = subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", "timed out"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return {"returncode": proc.returncode, "seconds": time.monotonic() - started,
            "result": result, "stderr_tail": "" if result is not None else stderr[-2000:]}


def _health(runs: List[Dict[str, Any]]) -> Dict[str, int]:
    results = [r["result"] for r in runs if r["result"] is not None]
    return {
        "runs": len(runs),
        "no_result": len(runs) - len(results),
        "not_correct": sum(1 for r in results if not r.get("correct")),
        "with_failed_requests": sum(1 for r in results if r.get("failed")),
        "attempted": sum(int(r.get("attempted", 0)) for r in results),
        "failed": sum(int(r.get("failed", 0)) for r in results),
    }


def fails_more(base: Dict[str, int], change: Dict[str, int]) -> bool:
    """Whether the change's runs failed more than the base's: more runs
    without a result, not ``correct`` or with failed requests, or a
    larger share of failed requests (two ``_health`` counts)."""
    if any(change[key] > base[key]
           for key in ("no_result", "not_correct", "with_failed_requests")):
        return True
    return change["failed"] * base["attempted"] > base["failed"] * change["attempted"]


def summarize(runs: List[Dict[str, Any]], metrics: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per workload: each side's run health and each metric's ``compare``."""
    out: Dict[str, Any] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        rounds = max(r["round"] for r in mine) + 1
        values: Dict[str, Dict[str, List[Optional[float]]]] = {}
        for metric in metrics:
            name = metric["name"]
            values[name] = {side: [None] * rounds for side in SIDES}
        for r in mine:
            if not (r["result"] or {}).get("correct"):
                continue
            reported = r["result"].get("metrics", {})
            for name in values:
                if name in reported:
                    values[name][r["side"]][r["round"]] = float(reported[name]["value"])
        health = {side: _health([r for r in mine if r["side"] == side]) for side in SIDES}
        failing = fails_more(health["base"], health["change"])
        out[workload] = {
            "health": health,
            "metrics": {m["name"]: compare(values[m["name"]]["base"], values[m["name"]]["change"],
                                           values[m["name"]]["aa"], m["better"], m.get("bound"),
                                           failing)
                        for m in metrics},
        }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    # A terminated runner still removes its checkouts (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--workload", required=True, action="extend", nargs="+")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, help="JSON artifact path")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 compares the per-layer metrics (no bounds)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    repo = _git(os.getcwd(), "rev-parse", "--show-toplevel")
    shas = {side: _git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("base", args.base), ("change", args.change))}
    shas["aa"] = shas["base"]
    artifact: Dict[str, Any] = {
        "schema": 1,
        "revisions": {side: {"rev": getattr(args, side), "sha": shas[side],
                             **{path: _tree_hash(repo, shas[side], path) for path in MEASURED}}
                      for side in ("base", "change")},
        "seed": args.seed, "pairs": args.pairs, "trace": args.trace,
        "workloads": args.workload, "runs": [],
    }
    workdir = tempfile.mkdtemp(prefix="pairs-")
    trees: Dict[str, str] = {}
    try:
        for side in SIDES:
            tree = os.path.join(workdir, side)
            _checkout(repo, shas[side], tree)
            trees[side] = tree
            _compile(tree)
        bench = {}
        for side, tree in trees.items():
            with open(os.path.join(tree, "BENCHMARK.json")) as handle:
                bench[side] = json.load(handle)
        metrics = bench["base"]["end_to_end" if args.trace == 0 else "per_layer"]
        artifact["command"] = bench["base"]["command"]
        artifact["run_seconds"] = bench["base"]["run_seconds"]
        for workload in args.workload:
            for index in range(args.pairs):
                for side in run_order(index):
                    argv_run = list(bench[side]["command"]) + [
                        "--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(bench[side]["run_seconds"]),
                        "--trace", str(args.trace)]
                    run = {"workload": workload, "round": index, "side": side,
                           "sha": shas[side], **_run(trees[side], argv_run)}
                    artifact["runs"].append(run)
                    result = run["result"]
                    state = ("no result" if result is None else
                             f"correct={result.get('correct')} failed={result.get('failed')}")
                    print(f"[{workload} round {index + 1}/{args.pairs} {side}] "
                          f"{run['seconds']:.1f} s {state}", file=sys.stderr, flush=True)
                    artifact["summary"] = summarize(artifact["runs"], metrics)
                    with open(args.out, "w") as handle:
                        json.dump(artifact, handle, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamps = {side: artifact["revisions"][side] for side in ("base", "change")}
    print("  ".join(f"{side} {stamp['sha'][:12]} (src {(stamp['src'] or '-')[:12]})"
                    for side, stamp in stamps.items()) + f"  seed {args.seed}")
    print("| workload | metric | base | change | wins | change | spread | A/A gap | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload, summary in artifact["summary"].items():
        for row in table_rows(workload, summary["metrics"]):
            print(row)
    for workload, summary in artifact["summary"].items():
        for side, health in summary["health"].items():
            print(f"{workload} {side}: " + ", ".join(f"{k} {v}" for k, v in health.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
