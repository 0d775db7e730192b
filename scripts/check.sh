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

echo "== pytest (tier 1) =="
python -m pytest -x -q

echo "== compiler smoke (compiled-vs-eager bit identity) =="
timeout 240 python -m repro.nn.compile.smoke

echo "== compiler tests (parity wall + fallback + planner properties) =="
timeout 300 python -m pytest tests/compile -q

echo "== parallel training smoke (2 workers) =="
timeout 240 python -m repro.parallel.smoke

echo "== serving smoke (batcher + cache + replicas) =="
timeout 240 python -m repro.serve.smoke

echo "== chaos smoke (worker loss, checkpoint resume, replica loss) =="
timeout 300 python -m repro.resilience.smoke

echo "== obs smoke (trace, fleet merge, exporters, flight recorder) =="
timeout 240 python -m repro.obs.smoke

echo "== prometheus exposition lint =="
python -m repro.obs.export --format prometheus --demo --lint > /dev/null

echo "== parallel equivalence tests =="
timeout 300 python -m pytest tests/parallel -q

echo "== resilience tests =="
timeout 300 python -m pytest tests/resilience -q

echo "== gateway traffic tests (protocol fuzz + admission + trace replay) =="
timeout 300 python -m pytest tests/serve -q

echo "== stream scenario tests (simulator, queue, router, promote/rollback) =="
timeout 600 python -m pytest tests/stream -q

echo "== stream smoke (drift detect -> retrain -> promote, poison + chaos) =="
timeout 600 python -m repro.stream.smoke

echo "== perf benchmark smoke =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
python -m benchmarks.perf --smoke --out-dir "$smoke_dir"
test -s "$smoke_dir/BENCH_infer.json"
test -s "$smoke_dir/BENCH_compile.json"
test -s "$smoke_dir/BENCH_train.json"
test -s "$smoke_dir/BENCH_parallel.json"
test -s "$smoke_dir/BENCH_serve.json"
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
if not (suite.get("provenance") or {}).get("git_sha"):
    sys.exit("FAIL: BENCH_train.json provenance lacks a git_sha")
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
