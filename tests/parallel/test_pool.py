"""Worker pool: parallel_map semantics, supervision, BLAS pinning."""

import ctypes
import os
import time

import numpy as np
import pytest

from repro.parallel.pool import (
    BLAS_ENV_VARS,
    WorkerCrashed,
    WorkerPool,
    blas_single_thread,
    parallel_map,
    parallel_supported,
    worker_blas,
)


def _square(x):
    return x * x


def _scale_sum(arr):
    return float(np.asarray(arr).sum() * 2)


def _sleep_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def _explode(x):
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x


class TestParallelMap:
    def test_serial_fallback_matches_map(self):
        items = list(range(10))
        assert parallel_map(_square, items, num_workers=1) == [x * x for x in items]

    def test_preserves_order_across_workers(self):
        if not parallel_supported(2):
            pytest.skip("parallel execution unavailable")
        items = list(range(17))
        result = parallel_map(_square, items, num_workers=2)
        assert result == [x * x for x in items]

    def test_matches_serial_on_arrays(self):
        if not parallel_supported(2):
            pytest.skip("parallel execution unavailable")
        items = [np.arange(5) + i for i in range(6)]
        serial = parallel_map(_scale_sum, items, num_workers=1)
        fanned = parallel_map(_scale_sum, items, num_workers=2)
        assert serial == fanned

    def test_worker_error_propagates(self):
        if not parallel_supported(2):
            pytest.skip("parallel execution unavailable")
        with pytest.raises(RuntimeError, match="boom on 3"):
            parallel_map(_explode, list(range(6)), num_workers=2)

    def test_empty_items(self):
        assert parallel_map(_square, [], num_workers=4) == []

    def test_free_worker_takes_the_next_item(self):
        """While one worker sleeps through a long item, the other
        handles every short one instead of waiting its turn."""
        if not parallel_supported(2):
            pytest.skip("parallel execution unavailable")
        pids = parallel_map(_sleep_pid, [0.6] + [0.05] * 6, num_workers=2)
        long_pid, short_pids = pids[0], pids[1:]
        assert long_pid not in short_pids
        assert len(set(short_pids)) == 1


#: Thread-count getters an OpenBLAS build may export.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def _openblas_threads():
    """Threads the first OpenBLAS mapped into this process reports
    (``None``: none with a getter is loaded)."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return None
    paths = {parts[5].strip() for parts in fields
             if len(parts) == 6 and "openblas" in parts[5].lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for name in _OPENBLAS_GETTERS:
            getter = getattr(library, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def _blas_threads_worker(rank, num_workers, pipe, payload):
    pipe.send(("threads", _openblas_threads()))
    while pipe.recv()[0] != "stop":
        pass


class TestBlasPinning:
    def test_worker_blas_reports_one_thread(self):
        """A forked worker inherits the OpenBLAS numpy loaded in the
        parent, already sized; the pin must reach that library."""
        if _openblas_threads() is None:
            pytest.skip("no OpenBLAS with a thread-count getter is loaded")
        with WorkerPool(1, _blas_threads_worker, timeout=30.0) as pool:
            assert pool.recv(0) == ("threads", 1)

    def test_worker_blas_pins_the_parent_and_restores(self):
        """The parent's own OpenBLAS runs one thread inside the block,
        nested blocks included, and gets its thread count back after."""
        before = _openblas_threads()
        if before is None:
            pytest.skip("no OpenBLAS with a thread-count getter is loaded")
        with worker_blas():
            assert _openblas_threads() == 1
            with worker_blas():
                assert _openblas_threads() == 1
            assert _openblas_threads() == 1
        assert _openblas_threads() == before

    def test_context_sets_and_restores(self):
        var = BLAS_ENV_VARS[0]
        before = os.environ.get(var)
        with blas_single_thread():
            assert os.environ[var] == "1"
        assert os.environ.get(var) == before

    def test_restores_absence(self):
        var = BLAS_ENV_VARS[1]
        saved = os.environ.pop(var, None)
        try:
            with blas_single_thread():
                assert os.environ[var] == "1"
            assert var not in os.environ
        finally:
            if saved is not None:
                os.environ[var] = saved


class TestSupported:
    def test_single_worker_is_not_parallel(self):
        assert parallel_supported(1) is False
        assert parallel_supported(0) is False


def _echo_worker(rank, num_workers, pipe, payload):
    """Control worker for supervision tests: echo, ping, sleep, die."""
    while True:
        message = pipe.recv()
        tag = message[0]
        if tag == "stop":
            return
        if tag == "ping":
            pipe.send(("pong", rank))
        elif tag == "echo":
            pipe.send(("echoed", rank, message[1]))
        elif tag == "sleep":
            time.sleep(message[1])
        elif tag == "die":
            os._exit(7)


needs_parallel = pytest.mark.skipif(
    not parallel_supported(2), reason="parallel execution unavailable"
)


@needs_parallel
class TestSupervision:
    def test_ping_round_trip(self):
        with WorkerPool(2, _echo_worker, timeout=30.0) as pool:
            pool.ping(0, timeout=10.0)
            pool.ping(1, timeout=10.0)

    def test_ping_discards_stale_messages(self):
        """A heartbeat after an abandoned exchange still finds its pong."""
        with WorkerPool(2, _echo_worker, timeout=30.0) as pool:
            pool.send(0, ("echo", "stale"))  # never recv'd
            pool.ping(0, timeout=10.0)
            # The stale reply was drained, not left to corrupt later recvs.
            pool.send(0, ("echo", "fresh"))
            assert pool.recv(0, timeout=10.0) == ("echoed", 0, "fresh")

    def test_recv_from_dead_worker_raises_typed(self):
        with WorkerPool(2, _echo_worker, timeout=30.0) as pool:
            pool.send(0, ("die",))
            with pytest.raises(WorkerCrashed) as info:
                pool.recv(0, timeout=10.0)
            assert info.value.rank == 0
            deadline = time.monotonic() + 10.0
            while pool.exitcode(0) is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.exitcode(0) == 7
            # The other worker is unaffected.
            pool.ping(1, timeout=10.0)

    def test_recv_deadline_raises_typed(self):
        with WorkerPool(1, _echo_worker, timeout=30.0) as pool:
            pool.send(0, ("sleep", 5.0))
            started = time.monotonic()
            with pytest.raises(WorkerCrashed, match="timed out"):
                pool.recv(0, timeout=0.3)
            assert time.monotonic() - started < 3.0

    def test_respawn_replaces_dead_worker(self):
        with WorkerPool(2, _echo_worker, timeout=30.0) as pool:
            pool.send(1, ("die",))
            time.sleep(0.2)
            assert not pool.alive(1)
            pool.respawn(1)
            pool.ping(1, timeout=10.0)
            pool.send(1, ("echo", "back"))
            assert pool.recv(1, timeout=10.0) == ("echoed", 1, "back")

    def test_shutdown_bounded_with_sleeping_worker(self):
        """A worker wedged in computation never reads the stop message;
        shutdown must escalate to terminate instead of hanging."""
        pool = WorkerPool(2, _echo_worker, timeout=30.0, shutdown_grace=0.5)
        pool.send(0, ("sleep", 60.0))
        time.sleep(0.2)  # let the worker enter the sleep
        started = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - started < 10.0

    def test_kill_is_idempotent(self):
        with WorkerPool(1, _echo_worker, timeout=30.0) as pool:
            pool.kill(0)
            pool.kill(0)
            assert not pool.alive(0)
