"""Tests for structured run logging: JSONL write → load round-trip."""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.core.trainer import EpochStats
from repro.obs.events import SCHEMA_VERSION, RunLogger, load_run


class TestRoundTrip:
    def test_write_load_equal_records(self, tmp_path):
        run_dir = tmp_path / "run"
        written = []
        with RunLogger(str(run_dir), run_id="run-test") as logger:
            written.append(logger.log_config({"epochs": 3, "lr": 1e-3}))
            written.append(
                logger.log_epoch(
                    EpochStats(
                        epoch=1, loss=0.5, train_accuracy=0.9, coverage=0.6,
                        selective_risk=0.1, seconds=1.25, grad_norm=2.5,
                    )
                )
            )
            written.append(logger.log("metrics", coverage=np.float32(0.5)))
        records = load_run(str(run_dir))
        # run_start + 3 written + run_end
        assert [r["type"] for r in records] == [
            "run_start", "config", "epoch", "metrics", "run_end",
        ]
        assert records[1:4] == written

    def test_epoch_stats_payload_survives(self, tmp_path):
        with RunLogger(str(tmp_path / "r")) as logger:
            logger.log_epoch(
                EpochStats(
                    epoch=2, loss=0.25, train_accuracy=0.95, coverage=0.55,
                    selective_risk=0.05, seconds=3.0,
                )
            )
        epoch = [r for r in load_run(str(tmp_path / "r")) if r["type"] == "epoch"][0]
        stats = epoch["data"]["stats"]
        assert stats["epoch"] == 2
        assert stats["loss"] == 0.25
        assert stats["val_accuracy"] is None

    def test_numpy_values_become_plain_json(self, tmp_path):
        with RunLogger(str(tmp_path / "r")) as logger:
            record = logger.log(
                "metrics",
                scalar=np.float64(1.5),
                integer=np.int32(7),
                array=np.arange(3),
                nested={"tuple": (1, 2)},
            )
        assert record["data"] == {
            "scalar": 1.5, "integer": 7, "array": [0, 1, 2], "nested": {"tuple": [1, 2]},
        }
        loaded = [r for r in load_run(str(tmp_path / "r")) if r["type"] == "metrics"][0]
        assert loaded["data"] == record["data"]

    def test_nonfinite_floats_are_representable(self, tmp_path):
        with RunLogger(str(tmp_path / "r")) as logger:
            logger.log("metrics", bad=float("nan"), worse=float("inf"))
        loaded = [r for r in load_run(str(tmp_path / "r")) if r["type"] == "metrics"][0]
        assert loaded["data"] == {"bad": "nan", "worse": "inf"}


class TestSchema:
    def test_records_carry_schema_and_monotonic_seq(self, tmp_path):
        with RunLogger(str(tmp_path / "r"), run_id="abc") as logger:
            for i in range(3):
                logger.log("tick", i=i)
        records = load_run(str(tmp_path / "r"))
        assert all(r["schema"] == SCHEMA_VERSION for r in records)
        assert all(r["run_id"] == "abc" for r in records)
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_loader_rejects_mixed_runs(self, tmp_path):
        path = tmp_path / "events.jsonl"
        records = [
            {"schema": 1, "run_id": "a", "seq": 0, "ts": 0.0, "type": "x", "data": {}},
            {"schema": 1, "run_id": "b", "seq": 1, "ts": 0.0, "type": "x", "data": {}},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        with pytest.raises(ValueError, match="mixes runs"):
            load_run(str(path))

    def test_loader_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "events.jsonl"
        record = {
            "schema": SCHEMA_VERSION + 1, "run_id": "a", "seq": 0,
            "ts": 0.0, "type": "x", "data": {},
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="newer"):
            load_run(str(path))

    def test_loader_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="malformed"):
            load_run(str(path))

    def test_torn_final_record_is_dropped(self, tmp_path):
        """A crash mid-append leaves a half-written last line with no
        trailing newline; every complete record before it still loads."""
        run_dir = tmp_path / "r"
        with RunLogger(str(run_dir), run_id="torn") as logger:
            logger.log("tick", i=0)
            logger.log("tick", i=1)
        path = os.path.join(str(run_dir), "events.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "run_id": "torn", "se')  # cut mid-key
        records = load_run(str(run_dir))
        assert [r["type"] for r in records] == [
            "run_start", "tick", "tick", "run_end",
        ]

    def test_complete_malformed_line_still_raises(self, tmp_path):
        """Only a *torn tail* is forgiven: a malformed line that was
        fully written (newline included) is corruption."""
        path = tmp_path / "events.jsonl"
        record = {"schema": 1, "run_id": "a", "seq": 0, "ts": 0.0, "type": "x", "data": {}}
        path.write_text(json.dumps(record) + "\n" + "garbage\n")
        with pytest.raises(ValueError, match="malformed"):
            load_run(str(path))

    def test_closed_logger_refuses_writes(self, tmp_path):
        logger = RunLogger(str(tmp_path / "r"))
        logger.log("tick")
        logger.close()
        with pytest.raises(RuntimeError):
            logger.log("tick")

    def test_no_file_until_first_record(self, tmp_path):
        logger = RunLogger(str(tmp_path / "r"))
        assert not os.path.exists(logger.path)
        logger.log("tick")
        assert os.path.exists(logger.path)
        logger.close()


class TestConcurrentWriters:
    def test_threads_sharing_a_logger_keep_the_stream_valid(self, tmp_path):
        """Spans end on several threads; each record must land whole,
        numbered in file order, with one ``run_start``."""
        threads, per_thread = 4, 300
        logger = RunLogger(str(tmp_path / "r"))
        barrier = threading.Barrier(threads, timeout=30.0)

        def write(worker):
            barrier.wait()
            for index in range(per_thread):
                logger.log("tick", worker=worker, index=index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the writers as much as possible
        try:
            pool = [threading.Thread(target=write, args=(w,)) for w in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        logger.close()
        records = load_run(str(tmp_path / "r"))
        assert len(records) == threads * per_thread + 2
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert (records[0]["type"], records[-1]["type"]) == ("run_start", "run_end")
