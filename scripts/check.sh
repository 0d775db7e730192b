#!/usr/bin/env sh
# Fast correctness gate: tier-1 tests plus a whole-tree syntax/import
# compile, without the benchmark suite.  Run from the repo root:
#
#   sh scripts/check.sh        (or: make check)
set -eu

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src examples benchmarks scripts

echo "== pytest (tier 1: every test under tests/, each run once) =="
python -m pytest -x -q

echo "== fabbench self-tests (probe installs against this tree) =="
timeout 120 python -m pytest fabbench/tests -q

echo "== compiler smoke (compiled-vs-eager bit identity) =="
timeout 240 python -m repro.nn.compile.smoke

echo "== parallel training smoke (2 workers) =="
timeout 240 python -m repro.parallel.smoke

echo "== serving smoke (batcher + cache) =="
timeout 240 python -m repro.serve.smoke

echo "== chaos smoke (worker loss, checkpoint resume) =="
timeout 300 python -m repro.resilience.smoke

echo "== obs smoke (serve trace, cross-process trace, exporters, flight recorder) =="
timeout 240 python -m repro.obs.smoke

echo "== obs demos (compileall alone misses a demo that imports a deleted name) =="
timeout 120 python examples/tracing_demo.py > /dev/null
timeout 120 python examples/observability_demo.py > /dev/null

echo "== prometheus exposition lint =="
python -m repro.obs.export --format prometheus --demo --lint > /dev/null

echo "== stream smoke (drift detect -> retrain -> promote, poison + chaos) =="
# The digest hashes the per-step decision trace, so it pins routing
# decisions end to end, not the training bytes behind them: a change
# can move every trained parameter and keep it.  A
# change that moves a decision on purpose re-pins it here and says why
# in CHANGES.md.  For the bytes, compare the parameter digests of
# `python scripts/param_digests.py` before and after.
expected_digest=89ba9e1e9ad44964e8ccb7ae424bd950acd11f32bec84674fd644dd6a6685803
status=0
stream_out="$(timeout 600 python -m repro.stream.smoke)" || status=$?
echo "$stream_out"
[ "$status" -eq 0 ] || exit "$status"
digest="$(echo "$stream_out" | sed -n 's/.*"decision_digest": "\([0-9a-f]*\)".*/\1/p')"
if [ "$digest" != "$expected_digest" ]; then
    echo "FAIL: stream smoke decision_digest ${digest:-<missing>}, expected $expected_digest"
    exit 1
fi
echo "decision_digest: $digest (pinned)"

echo "== perf benchmark smoke =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
python -m benchmarks.perf --smoke --out-dir "$smoke_dir"
test -s "$smoke_dir/BENCH_infer.json"
test -s "$smoke_dir/BENCH_compile.json"
test -s "$smoke_dir/BENCH_train.json"
test -s "$smoke_dir/BENCH_parallel.json"
test -s "$smoke_dir/BENCH_obs.json"

echo "== committed BENCH_compile.json schema + acceptance gate =="
python - benchmarks/perf/BENCH_compile.json benchmarks/perf/BENCH_infer.json <<'PY'
import json, sys
with open(sys.argv[1]) as handle:
    suite = json.load(handle)
with open(sys.argv[2]) as handle:
    infer = json.load(handle)
if suite.get("schema") != 1 or suite.get("suite") != "compile":
    sys.exit("FAIL: BENCH_compile.json is not a schema-1 compile suite")
if suite.get("smoke"):
    sys.exit("FAIL: committed BENCH_compile.json must be a full-mode run")
if not suite.get("provenance"):
    sys.exit("FAIL: BENCH_compile.json is missing its provenance block")
cases = {case["name"]: case for case in suite["cases"]}
for name in ("conv_forward_compiled", "cnn_forward_compiled", "compile_cold"):
    if name not in cases:
        sys.exit(f"FAIL: BENCH_compile.json is missing case {name!r}")
conv = cases["conv_forward_compiled"]["metrics"]["speedup_vs_tape"]
cnn = cases["cnn_forward_compiled"]["metrics"]["speedup_vs_tape"]
infer_cases = {case["name"]: case for case in infer["cases"]}
eager_conv = infer_cases["conv_forward_inference"]["metrics"]["speedup_median"]
print(f"compiled conv vs tape: {conv:.2f}x (gate: >= 1.0)")
print(f"eager conv vs tape: {eager_conv:.2f}x (gate: >= 1.0)")
print(f"compiled CNN vs tape: {cnn:.2f}x (gate: >= 2.0)")
if conv < 1.0:
    sys.exit("FAIL: compiled single-conv loses to the tape path")
if eager_conv < 1.0:
    sys.exit("FAIL: eager conv inference regression is back (< 1.0x vs tape)")
if cnn < 2.0:
    sys.exit("FAIL: compiled CNN lost the fused-class speedup (< 2x vs tape)")
PY

echo "== committed BENCH_train.json schema + provenance gate =="
python - benchmarks/perf/BENCH_train.json <<'PY'
import json, sys
with open(sys.argv[1]) as handle:
    suite = json.load(handle)
if suite.get("schema") != 1 or suite.get("suite") != "train":
    sys.exit("FAIL: BENCH_train.json is not a schema-1 train suite")
if suite.get("smoke"):
    sys.exit("FAIL: committed BENCH_train.json must be a full-mode run")
sha = (suite.get("provenance") or {}).get("git_sha")
if not sha:
    sys.exit("FAIL: BENCH_train.json provenance lacks a git_sha")
if sha.endswith("+dirty"):
    sys.exit(f"FAIL: BENCH_train.json was recorded from a dirty tree ({sha})")
cases = {case["name"]: case for case in suite["cases"]}
if "train_epoch_cnn" not in cases:
    sys.exit("FAIL: BENCH_train.json is missing case 'train_epoch_cnn'")
rate = cases["train_epoch_cnn"]["metrics"]["samples_per_s"]
print(f"train_epoch_cnn: {rate:.1f} samples/s ({suite['provenance']['git_sha']})")
PY

echo "== disarmed-tracing overhead gate (< 1%) =="
python - "$smoke_dir/BENCH_obs.json" <<'PY'
import json, sys
with open(sys.argv[1]) as handle:
    suite = json.load(handle)
cases = {case["name"]: case for case in suite["cases"]}
pct = cases["serve_qps_disarmed"]["metrics"]["disarmed_overhead_pct"]
print(f"disarmed tracing overhead: {pct:.4f}% of per-request serve time")
if pct >= 1.0:
    sys.exit("FAIL: disarmed tracing overhead exceeds the 1% budget")
PY

echo "check: OK"
