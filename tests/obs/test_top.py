"""Tests for the ops console: rates, frame rendering, CLI."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.top import compute_rates, main, render


def _snapshot(requests=100, shed=5, hits=30, misses=70, accepted=80, abstained=20):
    registry = MetricsRegistry()
    registry.counter("serve.requests_total").inc(requests)
    registry.counter("serve.shed_total").inc(shed)
    registry.counter("serve.cache.hits").inc(hits)
    registry.counter("serve.cache.misses").inc(misses)
    registry.counter("serve.accepted_total").inc(accepted)
    registry.counter("serve.abstained_total").inc(abstained)
    registry.gauge("serve.queue_depth").set(4)
    latency = registry.histogram("serve.latency_s")
    for i in range(100):
        latency.observe(0.002 + 0.0001 * i)
    return registry.snapshot()


class TestComputeRates:
    def test_lifetime_rates_on_first_tick(self):
        rates = compute_rates(_snapshot(), None, dt_s=2.0)
        assert rates["qps"] == pytest.approx(50.0)
        assert rates["shed_rate"] == pytest.approx(0.05)
        assert rates["hit_rate"] == pytest.approx(0.30)
        assert rates["abstain_rate"] == pytest.approx(0.20)

    def test_interval_rates_use_deltas(self):
        prev = _snapshot(requests=100, hits=30, misses=70)
        curr = _snapshot(requests=160, hits=60, misses=100)
        rates = compute_rates(curr, prev, dt_s=1.0)
        assert rates["qps"] == pytest.approx(60.0)
        assert rates["hit_rate"] == pytest.approx(30 / 60)

    def test_quiet_interval_yields_none_ratios(self):
        snap = _snapshot()
        rates = compute_rates(snap, snap, dt_s=1.0)
        assert rates["qps"] == 0.0
        assert rates["shed_rate"] is None
        assert rates["hit_rate"] is None


class TestRender:
    def test_frame_contains_the_operator_numbers(self):
        frame = render(_snapshot())
        assert "qps" in frame
        assert "p50 ms" in frame and "p99 ms" in frame
        assert "shed rate" in frame
        assert "abstain rate" in frame
        assert "queue depth" in frame

    def test_respawn_footer_appears_when_nonzero(self):
        snapshot = _snapshot()
        assert "respawns" not in render(snapshot)
        snapshot["counters"]["parallel.worker.respawns"] = 3
        assert "respawns" in render(snapshot)

    def test_flush_reasons_listed_as_interval_deltas(self):
        prev = _snapshot()
        curr = _snapshot()
        prev["counters"]["serve.batch.flush.immediate"] = 10
        curr["counters"]["serve.batch.flush.immediate"] = 25
        curr["counters"]["serve.batch.flush.size"] = 2
        assert compute_rates(curr, prev, dt_s=1.0)["flushes"] == {
            "immediate": 15, "size": 2,
        }
        assert "flushes      immediate 15  size 2" in render(curr, prev)
        assert "flushes" not in render(prev, prev)

    def test_compile_row_from_counters(self):
        snapshot = _snapshot()
        assert "compile" not in render(snapshot)
        snapshot["counters"].update({
            "compile.graphs": 2, "compile.cache_hits": 198,
            "compile.cache_misses": 2,
        })
        (row,) = [line for line in render(snapshot).splitlines()
                  if line.strip().startswith("compile")]
        assert row.split() == ["compile", "graphs", "2", "cache", "198/2", "hit/miss"]

    def test_renders_empty_snapshot(self):
        frame = render({"counters": {}, "gauges": {}, "histograms": {}})
        assert "repro.obs.top" in frame


class TestCli:
    def test_demo_renders_three_frames(self, capsys):
        assert main(["--demo"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro.obs.top") == 3

    def test_watches_snapshot_file(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.json")
        with open(path, "w") as handle:
            json.dump(_snapshot(), handle)
        assert main(["--snapshot", path, "--iterations", "1", "--interval", "0.01"]) == 0
        assert "qps" in capsys.readouterr().out
