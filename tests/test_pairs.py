"""Self-test of ``scripts/pairs.py``, the alternating pair runner.

A stub benchmark stands in for ``fabbench/run.py``: a throwaway git
repository whose two commits print canned metrics, so the runner's
worktrees, alternation, A/A leg, counts and verdicts are checked in a
second or two without running the real benchmark.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "pairs.py")

_spec = importlib.util.spec_from_file_location("pairs_runner", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# Each run reports its tree's constant plus how many runs that tree has
# made before; the change's first run has one failed request.
STUB = '''\
import json, os, sys
VALUE = {value}
log = os.environ["PAIRS_STUB_LOG"]
tree = os.path.basename(os.getcwd())
before = []
if os.path.exists(log):
    with open(log) as handle:
        before = [json.loads(line) for line in handle]
mine = sum(1 for entry in before if entry["tree"] == tree)
with open(log, "a") as handle:
    handle.write(json.dumps({{
        "tree": tree, "value": VALUE, "argv": sys.argv[1:],
        "compiled": os.path.isdir(os.path.join("src", "__pycache__")),
    }}) + "\\n")
print("diagnostics line")
print(json.dumps({{
    "correct": True, "attempted": 10,
    "failed": 1 if VALUE == 130 and mine == 0 else 0,
    "metrics": {{
        "wps": {{"value": VALUE + mine, "unit": "wafers/s"}},
        "lat_ms": {{"value": 2.0 if VALUE == 100 else 3.0, "unit": "ms"}},
        "flat": {{"value": 1.0, "unit": "ratio"}},
    }},
}}))
'''


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.com",
         "-C", str(repo), *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def _commit(repo, value):
    (repo / "bench.py").write_text(STUB.format(value=value))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", f"value {value}")
    return _git(repo, "rev-parse", "HEAD")


@pytest.fixture
def stub_repo(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "module.py").write_text("X = 1\n")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench.py"],
        "paths": [],
        "run_seconds": 2,
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "wps", "unit": "wafers/s", "better": "higher", "bound": 0.25},
            {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.25},
            {"name": "flat", "unit": "ratio", "better": "higher", "bound": 0.1},
        ],
        "per_layer": [],
    }))
    _git(repo, "init", "-q")
    base = _commit(repo, 100)
    change = _commit(repo, 130)
    return repo, base, change


def test_runner_alternates_runs_the_aa_leg_and_cleans_up(stub_repo, tmp_path):
    repo, base, change = stub_repo
    log = tmp_path / "runs.jsonl"
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--base", "HEAD~1", "--change", "HEAD",
         "--workload", "w", "--pairs", "4", "--seed", "7", "--out", str(out)],
        cwd=repo, env=dict(os.environ, PAIRS_STUB_LOG=str(log)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr

    entries = [json.loads(line) for line in log.read_text().splitlines()]
    # Base/change and base/A-A each swap who goes first every round.
    assert [e["tree"] for e in entries] == ["base", "change", "aa", "aa", "change", "base"] * 2
    # The A/A tree is a second checkout of the base revision.
    assert {e["value"] for e in entries if e["tree"] in ("base", "aa")} == {100}
    assert {e["value"] for e in entries if e["tree"] == "change"} == {130}
    assert all(e["compiled"] for e in entries)
    assert entries[0]["argv"] == ["--workload", "w", "--seed", "7", "--seconds", "2",
                                  "--trace", "0"]
    # Every worktree is gone again.
    assert _git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1

    artifact = json.loads(out.read_text())
    assert artifact["revisions"]["base"]["sha"] == base
    assert artifact["revisions"]["change"]["sha"] == change
    assert len(artifact["runs"]) == 12
    assert {r["sha"] for r in artifact["runs"] if r["side"] == "aa"} == {base}
    assert all(r["result"]["metrics"] for r in artifact["runs"])
    summary = artifact["summary"]["w"]
    assert summary["health"]["change"] == {
        "runs": 4, "no_result": 0, "not_correct": 0, "with_failed_requests": 1,
        "attempted": 40, "failed": 1}
    assert summary["health"]["aa"]["with_failed_requests"] == 0
    # The change failed a request the base did not, so no metric claims a
    # gain, although `wps` won every pair by far more than the spread.
    verdicts = {name: m["verdict"] for name, m in summary["metrics"].items()}
    assert verdicts == {"wps": "failing", "lat_ms": "failing", "flat": "failing"}
    assert summary["metrics"]["wps"]["wins"] == 4
    assert summary["metrics"]["flat"]["ties"] == 4
    assert ("| `w` (4 pairs) | `wps` | 101.0 [100.0, 102.0] | 131.0 [130.0, 132.0] | 4/4 "
            "| +29.7 % | 0.02 | 0.00 | failing |") in proc.stdout


class TestVerdict:
    def test_gain_needs_nine_wins_in_ten(self):
        base = [100.0 + i for i in range(10)]
        change = [130.0 + i for i in range(10)]
        assert pairs.compare(base, change, base, "higher", 0.25)["verdict"] == "gain"
        change[3] = 90.0  # 9/10 wins still claims
        assert pairs.compare(base, change, base, "higher", 0.25)["verdict"] == "gain"
        change[4] = 90.0  # 8/10 does not
        result = pairs.compare(base, change, base, "higher", 0.25)
        assert (result["wins"], result["verdict"]) == (8, "spread")

    def test_gain_needs_a_gap_above_the_base_iqr(self):
        base = [100.0, 120.0, 100.0, 120.0]
        change = [b + 1.0 for b in base]  # wins every pair, inside the IQR
        result = pairs.compare(base, change, base, "higher", 0.25)
        assert result["wins"] == 4
        assert result["verdict"] == "spread"

    def test_gain_needs_a_gap_above_the_aa_gap(self):
        base = [100.0] * 10
        change = [105.0] * 10
        assert pairs.compare(base, change, [100.0] * 10, "higher")["verdict"] == "gain"
        result = pairs.compare(base, change, [110.0] * 10, "higher")
        assert result["aa_gap"] == pytest.approx(0.10)
        assert result["verdict"] == "spread"

    def test_no_aa_leg_claims_no_gain(self):
        result = pairs.compare([1.0] * 4, [2.0] * 4, [None] * 4, "higher")
        assert result["verdict"] == "spread"

    def test_regression_past_the_bound_either_direction(self):
        base = [10.0] * 5
        assert pairs.compare(base, [12.6] * 5, base, "lower", 0.25)["verdict"] == "regression"
        assert pairs.compare(base, [12.4] * 5, base, "lower", 0.25)["verdict"] == "spread"
        assert pairs.compare(base, [7.4] * 5, base, "higher", 0.25)["verdict"] == "regression"
        assert pairs.compare(base, [7.4] * 5, base, "higher", None)["verdict"] == "spread"

    def test_lower_is_better_wins_and_ties(self):
        result = pairs.compare([3.0, 3.0, 3.0], [2.0, 3.0, 4.0], [3.0] * 3, "lower")
        assert (result["wins"], result["ties"], result["pairs"]) == (1, 1, 3)
        assert result["change_pct"] == pytest.approx(0.0)

    def test_rounds_without_a_result_are_not_pairs(self):
        result = pairs.compare([1.0, None, 1.0], [2.0, 2.0, None], [1.0] * 3, "higher")
        assert result["pairs"] == 1
        assert result["change"][0] == 2.0
        assert pairs.compare([None], [None], [None], "higher")["verdict"] == "no data"

    def test_failing_change_claims_nothing(self):
        base = [100.0] * 10
        result = pairs.compare(base, [130.0] * 10, base, "higher", 0.25, failing=True)
        assert (result["wins"], result["verdict"]) == (10, "failing")
        assert pairs.compare([1.0], [None], [1.0], "higher", failing=True)["verdict"] == "failing"

    def test_base_spread_past_the_bound_is_unresolved(self):
        base = [100.0, 140.0] * 5  # nearest rank: IQR 40 on a median of 100
        change = [b + 30.0 for b in base]
        result = pairs.compare(base, change, base, "higher", 0.25)
        assert result["spread"] == pytest.approx(0.4)
        assert (result["wins"], result["verdict"]) == (10, "unresolved")
        assert pairs.compare(base, change, base, "higher", 0.5)["verdict"] == "spread"
        # Every change run better than every base run settles it.
        assert pairs.compare(base, [150.0] * 10, base, "higher", 0.25)["verdict"] == "gain"
        assert pairs.compare(base, [90.0] * 10, base, "lower", 0.25)["verdict"] == "spread"

    def test_run_order_alternates(self):
        assert pairs.run_order(0) == ("base", "change", "aa")
        assert pairs.run_order(1) == ("aa", "change", "base")
        assert pairs.run_order(2) == pairs.run_order(0)


def _run(side, round_index, wps, correct=True, failed=0, attempted=10):
    return {"workload": "w", "side": side, "round": round_index,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {"wps": {"value": wps}}}}


class TestSummarize:
    METRICS = [{"name": "wps", "better": "higher", "bound": 0.25}]

    def test_runs_that_are_not_correct_give_no_values(self):
        runs = [_run(side, i, 100.0 if side != "change" else 130.0)
                for i in range(10) for side in pairs.SIDES]
        runs[1] = _run("change", 0, 1.0, correct=False)
        summary = pairs.summarize(runs, self.METRICS)["w"]
        assert summary["health"]["change"]["not_correct"] == 1
        wps = summary["metrics"]["wps"]
        assert wps["pairs"] == 9
        assert wps["change"] == [130.0, 130.0, 130.0]
        assert wps["verdict"] == "failing"

    def test_healthy_sides_keep_the_verdict(self):
        runs = [_run(side, i, 100.0 if side != "change" else 130.0)
                for i in range(10) for side in pairs.SIDES]
        runs[0] = _run("base", 0, 1.0, correct=False)
        runs[1] = _run("change", 0, 1.0, correct=False)
        assert pairs.summarize(runs, self.METRICS)["w"]["metrics"]["wps"]["verdict"] == "gain"

    def test_fails_more_counts_runs_and_the_failed_share(self):
        health = pairs._health
        clean = health([_run("base", 0, 1.0)])
        assert not pairs.fails_more(clean, clean)
        assert pairs.fails_more(clean, health([{"result": None}]))
        assert pairs.fails_more(clean, health([_run("change", 0, 1.0, correct=False)]))
        one_in_ten = health([_run("base", 0, 1.0, failed=1)])
        assert pairs.fails_more(clean, one_in_ten)
        assert not pairs.fails_more(one_in_ten, one_in_ten)
        # The same number of runs with failed requests, but a larger share.
        assert pairs.fails_more(one_in_ten, health([_run("change", 0, 1.0, failed=5)]))
        assert not pairs.fails_more(one_in_ten, health([_run("change", 0, 1.0, failed=2,
                                                             attempted=100)]))
