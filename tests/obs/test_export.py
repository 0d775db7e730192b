"""Tests for the exporters: Prometheus text, JSON snapshots, provenance."""

import json

import pytest

from repro.obs import export
from repro.obs.export import (
    OBS_SCHEMA_VERSIONS,
    SnapshotWriter,
    lint_prometheus,
    machine_info,
    main,
    provenance,
    to_json,
    to_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def _snapshot():
    registry = MetricsRegistry()
    registry.counter("serve.requests_total").inc(100)
    registry.counter("serve.cache.hits").inc(40)
    registry.gauge("serve.queue_depth").set(3)
    registry.gauge("serve.generation").set(1)
    hist = registry.histogram("serve.latency_s")
    for i in range(50):
        hist.observe(0.001 * (i + 1))
    return registry.snapshot()


class TestPrometheus:
    def test_render_lints_clean(self):
        assert lint_prometheus(to_prometheus(_snapshot())) == []

    def test_counters_and_gauges_rendered(self):
        text = to_prometheus(_snapshot())
        assert "repro_serve_requests_total 100" in text
        assert "repro_serve_queue_depth 3" in text
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text

    def test_histograms_rendered_as_summaries(self):
        text = to_prometheus(_snapshot())
        assert "# TYPE repro_serve_latency_s summary" in text
        assert 'repro_serve_latency_s{quantile="0.99"}' in text
        assert "repro_serve_latency_s_count 50" in text

    def test_dotted_names_flattened(self):
        text = to_prometheus(_snapshot())
        assert "serve.requests_total" not in [
            line.split(" ")[0] for line in text.splitlines()
        ]

    def test_empty_snapshot_renders_empty(self):
        assert to_prometheus({"counters": {}, "gauges": {}, "histograms": {}}) == ""


class TestLint:
    def test_flags_malformed_sample(self):
        assert lint_prometheus("metric one\n")

    def test_flags_missing_type(self):
        assert any(
            "no TYPE" in p for p in lint_prometheus("orphan_metric 1\n")
        )

    def test_flags_duplicate_type(self):
        text = (
            "# TYPE m counter\nm 1\n# TYPE m counter\n"
        )
        assert any("duplicate TYPE" in p for p in lint_prometheus(text))

    def test_flags_bad_labels(self):
        text = '# TYPE m gauge\nm{bad-label="x"} 1\n'
        assert lint_prometheus(text)

    def test_accepts_escaped_label_values(self):
        text = '# TYPE m gauge\nm{path="a\\"b"} 1\n'
        assert lint_prometheus(text) == []


class TestProvenance:
    def test_block_shape(self):
        block = provenance()
        assert set(block) == {"git_sha", "machine", "obs_schema", "created_unix"}
        assert block["obs_schema"] == OBS_SCHEMA_VERSIONS
        assert set(OBS_SCHEMA_VERSIONS) == {"events", "trace", "flight"}

    def test_machine_info_fields(self):
        info = machine_info()
        for key in ("platform", "python", "numpy", "cpu_count", "env"):
            assert key in info

    def test_git_sha_present_in_repo(self):
        # The test suite runs from a git checkout, so the sha resolves.
        assert provenance()["git_sha"]

    def test_git_runs_once_per_process(self, monkeypatch):
        """A flight dump stamps provenance on every dump, so the sha is
        worked out once (``rev-parse`` + ``status``), not per call."""
        git_calls = []
        run = export.subprocess.run

        def counting_run(args, **kwargs):
            if args[0] == "git":
                git_calls.append(args)
            return run(args, **kwargs)

        monkeypatch.setattr(export.subprocess, "run", counting_run)
        export._git_sha.cache_clear()
        first, second = provenance(), provenance()
        assert first["git_sha"] == second["git_sha"]
        assert 1 <= len(git_calls) <= 2, git_calls


class TestJson:
    def test_stamped_payload_round_trips(self):
        payload = json.loads(to_json(_snapshot()))
        assert "provenance" in payload
        assert payload["counters"]["serve.requests_total"] == 100

    def test_stamp_opt_out(self):
        assert "provenance" not in json.loads(to_json(_snapshot(), stamp=False))


class TestSnapshotWriter:
    def test_write_once_is_readable_json(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        writer = SnapshotWriter(_snapshot, path)
        writer.write_once()
        with open(path) as handle:
            data = json.load(handle)
        assert data["counters"]["serve.requests_total"] == 100
        assert writer.writes == 1

    def test_context_manager_ticks(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        with SnapshotWriter(_snapshot, path, interval_s=0.01) as writer:
            pass
        assert writer.writes >= 1

    def test_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotWriter(_snapshot, str(tmp_path / "m.json"), interval_s=0.0)


class TestCli:
    def test_demo_prometheus_lints_clean(self, capsys):
        assert main(["--format", "prometheus", "--demo", "--lint"]) == 0
        assert "repro_serve_requests_total" in capsys.readouterr().out

    def test_demo_json_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "snap.json")
        assert main(["--format", "json", "--demo", "--out", out]) == 0
        with open(out) as handle:
            assert "provenance" in json.load(handle)

    def test_snapshot_file_lints_clean(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.json")
        SnapshotWriter(_snapshot, path).write_once()
        assert main(["--format", "prometheus", "--snapshot", path, "--lint"]) == 0
        assert 'repro_serve_latency_s{quantile="0.99"}' in capsys.readouterr().out
