"""Tests for the dynamic micro-batcher."""

import threading
import time

import pytest

from repro.serve.batcher import MicroBatcher, Overloaded


class TestTriggers:
    def test_size_trigger_flushes_full_batch(self):
        batcher = MicroBatcher(max_batch_size=4)
        for i in range(4):
            batcher.put(i)
        assert batcher.get_batch_with_reason(timeout=5.0) == ([0, 1, 2, 3], "size")

    def test_oversize_burst_drains_in_batch_size_chunks(self):
        batcher = MicroBatcher(max_batch_size=3)
        for i in range(7):
            batcher.put(i)
        assert batcher.get_batch(timeout=5.0) == [0, 1, 2]
        assert batcher.get_batch(timeout=5.0) == [3, 4, 5]
        assert batcher.get_batch(timeout=5.0) == [6]

    def test_idle_timeout_returns_none(self):
        batcher = MicroBatcher(max_batch_size=4)
        assert batcher.get_batch(timeout=0.02) is None
        assert not batcher.closed


class TestWorkConserving:
    def test_default_dispatch_takes_everything_pending_at_once(self):
        batcher = MicroBatcher(max_batch_size=4)
        batcher.put("a")
        assert batcher.get_batch_with_reason(timeout=5.0) == (["a"], "immediate")
        for i in range(6):
            batcher.put(i)
        assert batcher.get_batch_with_reason(timeout=5.0) == ([0, 1, 2, 3], "size")
        assert batcher.get_batch_with_reason(timeout=5.0) == ([4, 5], "immediate")

    def test_put_many_is_all_or_nothing(self):
        batcher = MicroBatcher(max_batch_size=8, queue_limit=5)
        batcher.put("a")
        with pytest.raises(Overloaded):
            batcher.put_many(["b", "c", "d", "e", "f"])
        assert batcher.depth == 1
        batcher.put_many(["b", "c", "d", "e"])
        assert batcher.get_batch(timeout=5.0) == ["a", "b", "c", "d", "e"]


class TestBackpressure:
    def test_put_sheds_when_full(self):
        batcher = MicroBatcher(max_batch_size=4, queue_limit=2)
        batcher.put(0)
        batcher.put(1)
        with pytest.raises(Overloaded):
            batcher.put(2)
        assert batcher.depth == 2

    def test_depth_drops_after_get(self):
        batcher = MicroBatcher(max_batch_size=2, queue_limit=2)
        batcher.put(0)
        batcher.put(1)
        batcher.get_batch(timeout=5.0)
        batcher.put(2)  # room again — no Overloaded
        assert batcher.depth == 1


class TestClose:
    def test_close_flushes_pending_then_returns_none(self):
        batcher = MicroBatcher(max_batch_size=8)
        batcher.put("x")
        batcher.close()
        assert batcher.get_batch_with_reason(timeout=1.0) == (["x"], "close")
        assert batcher.get_batch(timeout=1.0) is None

    def test_close_wakes_blocked_consumer(self):
        batcher = MicroBatcher(max_batch_size=8)
        result = {}

        def consume():
            result["batch"] = batcher.get_batch()

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        batcher.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result["batch"] is None

    def test_put_after_close_raises(self):
        batcher = MicroBatcher()
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.put(1)


class TestConcurrentConsumers:
    def test_two_consumers_partition_a_burst(self):
        batcher = MicroBatcher(max_batch_size=4)
        collected = []
        lock = threading.Lock()

        def consume():
            while True:
                batch = batcher.get_batch(timeout=0.2)
                if batch is None:
                    return
                with lock:
                    collected.extend(batch)

        threads = [threading.Thread(target=consume) for _ in range(2)]
        for thread in threads:
            thread.start()
        for i in range(20):
            batcher.put(i)
        for thread in threads:
            thread.join(timeout=10.0)
        assert sorted(collected) == list(range(20))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs", [
            {"max_batch_size": 0},
            {"max_batch_size": -1},
            {"queue_limit": 0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(**kwargs)
