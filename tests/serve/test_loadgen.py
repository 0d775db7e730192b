"""Traffic-trace wall: arrival processes, persistence and replay.

Traces are reproducible artifacts: same seed → same JSONL bytes → same
admission decisions.  The gateway's saturation shape under these
traces is pinned in ``test_gateway.py::TestTypedSheds``.
"""

import json

import pytest

from repro.serve.admission import TenantPolicy
from repro.serve.loadgen import (
    bursty_trace,
    load_trace,
    poisson_trace,
    replay_admission,
    save_trace,
    trace_digest,
)


class TestArrivalProcesses:
    def test_poisson_is_seed_deterministic(self):
        a = poisson_trace(200.0, 1.0, seed=42)
        b = poisson_trace(200.0, 1.0, seed=42)
        c = poisson_trace(200.0, 1.0, seed=43)
        assert a == b
        assert a != c
        assert trace_digest(a) == trace_digest(b)

    def test_poisson_rate_is_roughly_honoured(self):
        trace = poisson_trace(500.0, 2.0, seed=1)
        assert 700 <= len(trace) <= 1300  # ~1000 ± 30%
        assert all(0.0 <= a.t < 2.0 for a in trace)
        assert all(
            earlier.t <= later.t
            for earlier, later in zip(trace, trace[1:])
        )

    def test_poisson_tenant_mix_tracks_weights(self):
        trace = poisson_trace(
            1000.0, 2.0, seed=5, tenants={"big": 0.8, "small": 0.2}
        )
        share = sum(a.tenant == "big" for a in trace) / len(trace)
        assert 0.7 < share < 0.9

    def test_bursty_quiet_phase_is_silent(self):
        trace = bursty_trace(
            400.0, 1.0, seed=9, rate_off_qps=0.0, period_s=0.2, duty=0.5
        )
        assert trace
        for arrival in trace:
            phase = (arrival.t % 0.2) / 0.2
            assert phase < 0.5  # nothing lands in the off-window
        assert bursty_trace(
            400.0, 1.0, seed=9, rate_off_qps=0.0, period_s=0.2, duty=0.5
        ) == trace

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(0.0, 1.0, seed=1)
        with pytest.raises(ValueError):
            bursty_trace(10.0, 1.0, seed=1, duty=0.0)
        with pytest.raises(ValueError):
            bursty_trace(10.0, 1.0, seed=1, period_s=0.0)


class TestTracePersistence:
    def test_jsonl_round_trip_is_exact(self, tmp_path):
        trace = poisson_trace(300.0, 1.0, seed=11)
        path = str(tmp_path / "trace.jsonl")
        save_trace(path, trace, meta={"seed": 11})
        loaded, header = load_trace(path)
        assert loaded == trace
        assert header["seed"] == 11
        assert header["arrivals"] == len(trace)
        # And the file is honest JSONL: one JSON object per line.
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == len(trace) + 1
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_replaying_a_loaded_trace_matches_the_original(self, tmp_path):
        trace = poisson_trace(250.0, 1.0, seed=21)
        path = str(tmp_path / "trace.jsonl")
        save_trace(path, trace)
        loaded, _ = load_trace(path)
        policy = TenantPolicy(refill_per_s=60.0, burst=10.0)
        assert replay_admission(loaded, policy) == replay_admission(
            trace, policy
        )

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_a_trace.jsonl"
        path.write_text('{"schema": 99, "kind": "other"}\n')
        with pytest.raises(ValueError):
            load_trace(str(path))
