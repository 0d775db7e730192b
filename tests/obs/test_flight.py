"""Tests for the flight recorder: ring semantics and fault dumps."""

import json
import os

import pytest

from repro.obs.flight import (
    FLIGHT_DIR_ENV,
    FlightRecorder,
    default_flight_recorder,
    dump_flight,
    flight_dump_dir,
    record_flight_event,
    reset_default_flight_recorder,
    set_flight_dump_dir,
)


@pytest.fixture(autouse=True)
def _fresh_global(monkeypatch):
    monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
    reset_default_flight_recorder()
    yield
    reset_default_flight_recorder()


class TestRing:
    def test_events_ordered_oldest_first(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record_event("first")
        recorder.record_event("second")
        names = [e["data"]["name"] for e in recorder.snapshot()]
        assert names == ["first", "second"]

    def test_capacity_evicts_and_counts_dropped(self):
        recorder = FlightRecorder(capacity=2)
        for i in range(5):
            recorder.record_event(f"e{i}")
        assert len(recorder) == 2
        assert recorder.dropped == 3
        names = [e["data"]["name"] for e in recorder.snapshot()]
        assert names == ["e3", "e4"]

    def test_spans_and_events_share_the_ring(self):
        recorder = FlightRecorder()
        recorder.record_span({"name": "s", "start_unix": 1.0})
        recorder.record_event("e")
        assert [entry["kind"] for entry in recorder.snapshot()] == [
            "span", "event",
        ]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestDump:
    def test_dump_payload_is_self_describing(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record_event("breaker_open", lane=1)
        path = recorder.dump(str(tmp_path / "d.json"), reason="breaker-open")
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema"] == 1
        assert payload["reason"] == "breaker-open"
        assert payload["pid"] == os.getpid()
        assert "provenance" in payload
        assert payload["entries"][0]["data"]["name"] == "breaker_open"
        assert recorder.dumps == 1

    def test_dump_creates_directories(self, tmp_path):
        recorder = FlightRecorder()
        path = recorder.dump(str(tmp_path / "deep/nested/d.json"))
        assert os.path.exists(path)


class TestGlobals:
    def test_record_flight_event_feeds_default_ring(self):
        record_flight_event("worker_respawn", rank=1)
        names = [
            e["data"]["name"] for e in default_flight_recorder().snapshot()
        ]
        assert names == ["worker_respawn"]

    def test_dump_flight_noop_without_dir(self):
        record_flight_event("fault")
        assert dump_flight("fault") is None

    def test_dump_flight_writes_when_dir_set(self, tmp_path):
        set_flight_dump_dir(str(tmp_path))
        record_flight_event("fault", detail=7)
        path = dump_flight("worker-crash")
        assert path is not None and os.path.exists(path)
        assert "worker-crash" in os.path.basename(path)
        with open(path) as handle:
            assert json.load(handle)["reason"] == "worker-crash"

    def test_env_var_enables_dumps(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        assert flight_dump_dir() == str(tmp_path)
        record_flight_event("fault")
        assert dump_flight("env") is not None

    def test_explicit_dir_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path / "env"))
        set_flight_dump_dir(str(tmp_path / "explicit"))
        record_flight_event("fault")
        assert "explicit" in dump_flight("x")

    def test_back_to_back_dumps_keep_both_files(self, tmp_path):
        # One step that loses two ranks dumps "worker-crash" twice within
        # the same second.
        set_flight_dump_dir(str(tmp_path))
        record_flight_event("fault")
        first = dump_flight("worker-crash")
        second = dump_flight("worker-crash")
        assert first != second
        assert len(os.listdir(tmp_path)) == 2
        assert default_flight_recorder().dumps == 2

    def test_reason_sanitized_in_filename(self, tmp_path):
        set_flight_dump_dir(str(tmp_path))
        record_flight_event("fault")
        path = dump_flight("weird reason/../x")
        assert "/.." not in os.path.basename(path)


class TestFaultPathIntegration:
    def test_watchdog_trip_lands_in_ring(self):
        from repro.resilience.watchdog import TrainingWatchdog

        watchdog = TrainingWatchdog(loss_limit=1.0)
        assert watchdog.check(5.0) is not None
        names = [
            e["data"]["name"] for e in default_flight_recorder().snapshot()
        ]
        assert "watchdog_trip" in names

    def test_chaos_fault_records_and_dumps(self, tmp_path):
        import numpy as np

        from repro.resilience.chaos import ChaosPlan, active_plan, chaos_point, poison_arrays

        set_flight_dump_dir(str(tmp_path))
        plan = ChaosPlan().inject("train.batch", poison_arrays("inputs"), times=1)
        with active_plan(plan):
            arr = np.ones(4, dtype=np.float32)
            chaos_point("train.batch", epoch=2, inputs=arr)
        assert np.isnan(arr).all()
        names = [
            e["data"]["name"] for e in default_flight_recorder().snapshot()
        ]
        assert "chaos_fault" in names
        dumps = [f for f in os.listdir(tmp_path) if "chaos-fault" in f]
        assert dumps
        with open(tmp_path / dumps[0]) as handle:
            payload = json.load(handle)
        events = [
            e["data"] for e in payload["entries"] if e["kind"] == "event"
        ]
        assert events[0]["point"] == "train.batch"
        assert events[0]["epoch"] == 2
        assert "inputs" not in events[0]  # arrays never serialize
