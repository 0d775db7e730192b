"""Multiprocessing worker pool with pipe control and BLAS pinning.

The pool favours the ``fork`` start method (zero-copy inheritance of
the model and dataset) and falls back to whatever the platform offers.
Workers talk to the parent over one duplex pipe each; bulk ndarray data
never rides the pipes — it lives in a :mod:`repro.parallel.shm` arena.

Every worker pins the BLAS threadpools to one thread: with N processes
each spinning the default OpenBLAS pool the machine oversubscribes
N x cores threads and throughput collapses.  The parent's environment
is only modified while the children are being spawned (they inherit
it), then restored.  The environment only reaches a BLAS that has not
been loaded yet; a forked worker inherits the OpenBLAS numpy loaded in
the parent, already sized, so :func:`pin_blas_threads` also calls that
library's own thread-count setter.  :class:`worker_blas` does the
same for a block of parent code and restores the thread count
afterwards: OpenBLAS does not promise the same bytes at every thread
count, so code that must match a worker bit for bit runs under it.

Workers also pin their allocator (:func:`pin_allocator`): a worker
forked from a parent that never trained would otherwise hand its
freed heap back to the kernel after every step and fault it back in
on the next.

Supervision primitives (used by the resilient engine and serve
backends): :meth:`WorkerPool.recv` raises :class:`WorkerCrashed` on a
dead pipe / dead process / per-call deadline, so a crash is a typed
event rather than a hang; :meth:`WorkerPool.ping` is the heartbeat
probe; :meth:`WorkerPool.respawn` replaces a single dead or wedged
worker in place; :meth:`WorkerPool.shutdown` escalates
stop → join(grace) → terminate → kill so a wedged worker can never
block exit forever.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import threading
import time
import traceback
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .shm import HAVE_SHARED_MEMORY

__all__ = [
    "BLAS_ENV_VARS",
    "blas_single_thread",
    "worker_blas",
    "pin_blas_threads",
    "pin_allocator",
    "parallel_supported",
    "usable_cores",
    "WorkerCrashed",
    "WorkerPool",
    "parallel_map",
]

#: Thread-count knobs of every BLAS/numexpr backend numpy may link.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class WorkerCrashed(RuntimeError):
    """A worker process died or missed its deadline.

    Distinct from a plain ``RuntimeError`` carrying a worker-side
    traceback (a *logic* error, which retrying cannot fix): a crash is
    an infrastructure fault the supervision layer may recover from by
    respawning the worker and re-sharding the in-flight work.
    """

    def __init__(self, message: str, rank: int) -> None:
        super().__init__(message)
        self.rank = rank


class blas_single_thread:
    """Context manager pinning BLAS env vars to ``1``, restoring the
    previous values (including absence) on exit."""

    def __enter__(self) -> "blas_single_thread":
        self._saved = {var: os.environ.get(var) for var in BLAS_ENV_VARS}
        for var in BLAS_ENV_VARS:
            os.environ[var] = "1"
        return self

    def __exit__(self, *exc) -> None:
        for var, value in self._saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


#: Thread-count setters and matching getters an OpenBLAS build may
#: export, in lookup order (numpy's bundled ILP64 build first).
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


_controls: Optional[List[Tuple[Any, Any]]] = None


def _openblas_controls() -> List[Tuple[Any, Any]]:
    """``(setter, getter)`` of every OpenBLAS mapped into this process
    (getter ``None`` when the build exports no matching one; ``[]``
    where ``/proc/self/maps`` is unavailable).

    Scanned once per process, at first use: numpy has loaded its
    OpenBLAS by then, and a forked child inherits both the mapping and
    this list.
    """
    global _controls
    if _controls is not None:
        return _controls
    _controls = []
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return _controls
    paths = sorted({
        parts[5].strip() for parts in fields
        if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()
    })
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in zip(_OPENBLAS_SETTERS, _OPENBLAS_GETTERS):
            setter = getattr(library, set_name, None)
            if setter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter = getattr(library, get_name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
            _controls.append((setter, getter))
            break
    return _controls


def pin_blas_threads() -> None:
    """Pin BLAS threadpools to one thread (called inside each worker).

    Sets the env vars for BLAS builds loaded later, and tells every
    already-loaded OpenBLAS through the first setter it exports among
    :data:`_OPENBLAS_SETTERS` (none found: the env vars are all there is).
    """
    for var in BLAS_ENV_VARS:
        os.environ[var] = "1"
    for setter, _ in _openblas_controls():
        setter(1)


class worker_blas:
    """Context manager running a block on the BLAS a worker has: every
    loaded OpenBLAS on one thread, restored on exit to the count its
    getter reported.

    OpenBLAS does not promise the same bytes at every thread count, so
    in-process code that must match a worker bit for bit runs under
    this.  The thread count is process-wide: other threads' BLAS calls
    inside the block run on one thread too.  Uses may nest and overlap
    across threads: the first entry saves, the last exit restores.
    Where no OpenBLAS setter is found the block runs unchanged.
    """

    _lock = threading.Lock()
    _depth = 0
    _saved: List[Tuple[Any, int]] = []

    def __enter__(self) -> "worker_blas":
        cls = worker_blas
        with cls._lock:
            if cls._depth == 0:
                controls = _openblas_controls()
                cls._saved = [
                    (setter, getter()) for setter, getter in controls
                    if getter is not None
                ]
                for setter, _ in controls:
                    setter(1)
            cls._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        cls = worker_blas
        with cls._lock:
            cls._depth -= 1
            if cls._depth == 0:
                for setter, count in cls._saved:
                    setter(count)


#: glibc ``mallopt`` parameters (``malloc.h``) and the values workers
#: pin: freed memory stays in the heap up to the trim threshold, and
#: blocks below the mmap threshold (32 MiB is glibc's 64-bit maximum)
#: come from the heap instead of a fresh mapping.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD_BYTES = 256 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20


def pin_allocator() -> None:
    """Keep a worker's freed heap for its next step (called inside each
    worker, never in the parent).

    glibc's default thresholds return a training step's freed
    activations to the kernel, so each step faults them back in.  A
    no-op where the C library exports no ``mallopt``.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def parallel_supported(num_workers: int) -> bool:
    """Whether multi-process execution is possible and worthwhile here.

    False for ``num_workers <= 1``, when the platform lacks
    ``multiprocessing.shared_memory``, or inside a daemon process
    (daemons cannot have children) — callers fall back to serial.
    """
    if num_workers <= 1:
        return False
    if not HAVE_SHARED_MEMORY:
        return False
    if mp.current_process().daemon:
        return False
    return True


def _start_method() -> str:
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class WorkerPool:
    """``num_workers`` processes running ``worker_fn(rank, num_workers,
    pipe, payload)``, each driven over its own duplex pipe.

    ``payload`` is pickled once at start-up (under ``fork`` it is
    inherited for free); per-step messages should be small tuples, with
    array traffic going through a shared-memory arena.

    Worker functions should answer a ``("ping",)`` message with
    ``("pong", rank)`` so :meth:`ping` heartbeats and respawn readiness
    probes work; the built-in worker loops all do.
    """

    def __init__(
        self,
        num_workers: int,
        worker_fn: Callable,
        payload: Any = None,
        timeout: float = 120.0,
        shutdown_grace: float = 5.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if shutdown_grace < 0:
            raise ValueError("shutdown_grace must be non-negative")
        self.num_workers = num_workers
        self._timeout = float(timeout)
        self._shutdown_grace = float(shutdown_grace)
        self._worker_fn = worker_fn
        self._payload = payload
        self._ctx = mp.get_context(_start_method())
        self._pipes: List[Any] = [None] * num_workers
        self._procs: List[Any] = [None] * num_workers
        # Children inherit the pinned environment; the parent's own env
        # is restored as soon as every worker has been started.
        with blas_single_thread():
            for rank in range(num_workers):
                self._spawn(rank)

    def _spawn(self, rank: int) -> None:
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(self._worker_fn, rank, self.num_workers, child_end, self._payload),
            daemon=True,
        )
        proc.start()
        child_end.close()
        self._pipes[rank] = parent_end
        self._procs[rank] = proc

    # ------------------------------------------------------------------
    def send(self, rank: int, message: Any) -> None:
        self._pipes[rank].send(message)

    def broadcast(self, message: Any) -> None:
        for pipe in self._pipes:
            pipe.send(message)

    def recv(self, rank: int, timeout: Optional[float] = None) -> Any:
        """Receive one message, polling so a dead worker surfaces as a
        :class:`WorkerCrashed` instead of a hang.

        The per-call deadline (``timeout``, defaulting to the pool's)
        also raises :class:`WorkerCrashed` — a wedged-but-alive worker
        is indistinguishable from a dead one to the caller, and the
        supervision layer handles both by replacing it.
        """
        deadline = time.monotonic() + (self._timeout if timeout is None else timeout)
        pipe = self._pipes[rank]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerCrashed(f"worker {rank} timed out", rank)
            try:
                ready = pipe.poll(min(remaining, 0.2))
            except (BrokenPipeError, OSError) as exc:
                raise WorkerCrashed(f"worker {rank} pipe broke: {exc}", rank)
            if ready:
                try:
                    message = pipe.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerCrashed(f"worker {rank} pipe closed: {exc}", rank)
                if isinstance(message, tuple) and message and message[0] == "__error__":
                    raise RuntimeError(
                        f"worker {rank} failed:\n{message[1]}"
                    )
                return message
            if not self._procs[rank].is_alive():
                # Drain anything flushed before death, then give up.
                if pipe.poll(0):
                    continue
                raise WorkerCrashed(
                    f"worker {rank} died (exit code "
                    f"{self._procs[rank].exitcode})",
                    rank,
                )

    def gather(self, timeout: Optional[float] = None) -> List[Any]:
        """One message from every worker, in rank order."""
        return [self.recv(rank, timeout) for rank in range(self.num_workers)]

    def wait(self, ranks: Sequence[int], timeout: float) -> List[int]:
        """The listed ranks that have a message waiting or have died,
        blocking up to ``timeout`` seconds for the first (``[]``: none
        did).  :meth:`recv` on a returned rank does not block for long:
        it returns the message or raises :class:`WorkerCrashed`."""
        handles = {}
        for rank in ranks:
            handles[self._pipes[rank]] = rank
            handles[self._procs[rank].sentinel] = rank
        ready = wait_ready(list(handles), timeout)
        return sorted({handles[handle] for handle in ready})

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def alive(self, rank: int) -> bool:
        proc = self._procs[rank]
        return proc is not None and proc.is_alive()

    def exitcode(self, rank: int) -> Optional[int]:
        proc = self._procs[rank]
        return None if proc is None else proc.exitcode

    def ping(self, rank: int, timeout: Optional[float] = None) -> None:
        """Heartbeat one worker; raises :class:`WorkerCrashed` on miss.

        Stale in-flight messages from an aborted step are discarded
        until the matching ``pong`` arrives.
        """
        try:
            self.send(rank, ("ping",))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"worker {rank} pipe broke: {exc}", rank)
        deadline = time.monotonic() + (self._timeout if timeout is None else timeout)
        while True:
            message = self.recv(rank, max(0.0, deadline - time.monotonic()))
            if isinstance(message, tuple) and message and message[0] == "pong":
                return

    def kill(self, rank: int) -> None:
        """Force-stop one worker (terminate, then SIGKILL)."""
        proc = self._procs[rank]
        if proc is None or not proc.is_alive():
            return
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - terminate ignored
            proc.kill()
            proc.join(timeout=1.0)

    def respawn(self, rank: int) -> None:
        """Replace one worker process in place (dead or wedged).

        The old process is force-stopped, its pipe closed, and a fresh
        process started with the same ``worker_fn`` / ``payload``.
        Callers should :meth:`ping` afterwards to confirm readiness.
        Every respawn is counted in the parent's
        ``parallel.worker.respawns`` and noted in the flight-recorder
        ring; workers keep no metrics of their own, so nothing is lost
        with the casualty.
        """
        exitcode = self.exitcode(rank)
        self.kill(rank)
        old_pipe = self._pipes[rank]
        if old_pipe is not None:
            try:
                old_pipe.close()
            except OSError:  # pragma: no cover
                pass
        with blas_single_thread():
            self._spawn(rank)
        try:
            from ..obs.flight import record_flight_event
            from ..obs.metrics import default_registry

            default_registry().counter("parallel.worker.respawns").inc()
            record_flight_event("worker_respawn", rank=rank, exitcode=exitcode)
        except Exception:  # pragma: no cover - telemetry is best-effort
            pass

    # ------------------------------------------------------------------
    def shutdown(self, grace: Optional[float] = None) -> None:
        """Stop workers: stop message → join(grace) → terminate → kill.

        Bounded even when a worker is wedged mid-computation and never
        reads the stop message — after the grace period stragglers are
        terminated, and a worker that survives ``SIGTERM`` is killed.
        """
        grace = self._shutdown_grace if grace is None else float(grace)
        for pipe in self._pipes:
            if pipe is None:
                continue
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + grace
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=1.0)
        for pipe in self._pipes:
            if pipe is None:
                continue
            try:
                pipe.close()
            except OSError:  # pragma: no cover
                pass
        self._pipes = []
        self._procs = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _worker_entry(worker_fn, rank, num_workers, pipe, payload) -> None:
    pin_blas_threads()
    pin_allocator()
    try:
        worker_fn(rank, num_workers, pipe, payload)
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown races
        pass
    except Exception:  # surface the traceback in the parent
        try:
            pipe.send(("__error__", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        try:
            pipe.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
def _map_worker(rank, num_workers, pipe, fn) -> None:
    while True:
        message = pipe.recv()
        if message[0] == "stop":
            return
        if message[0] == "ping":
            pipe.send(("pong", rank))
            continue
        _, index, item = message
        try:
            pipe.send(("ok", index, fn(item)))
        except Exception:
            pipe.send(("err", index, traceback.format_exc()))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    num_workers: int = 1,
    timeout: float = 600.0,
) -> List[Any]:
    """Order-preserving ``[fn(item) for item in items]`` across workers.

    Items are dispatched one-at-a-time to whichever worker is free
    (bounding pipe buffering and balancing uneven item costs).  Falls
    back to a plain serial loop when :func:`parallel_supported` says
    multiprocessing is not available, so callers can use it
    unconditionally.  The loop runs under :class:`worker_blas`, so a
    deterministic ``fn`` returns the same bytes for any worker count.
    ``fn`` must be picklable under spawn start methods — define it at
    module top level.
    """
    item_list = list(items)
    if not item_list:
        return []
    workers = min(num_workers, len(item_list))
    if not parallel_supported(workers):
        with worker_blas():
            return [fn(item) for item in item_list]

    results: List[Any] = [None] * len(item_list)
    with WorkerPool(workers, _map_worker, payload=fn, timeout=timeout) as pool:
        cursor = 0
        busy: List[int] = []
        for rank in range(workers):
            pool.send(rank, ("item", cursor, item_list[cursor]))
            busy.append(rank)
            cursor += 1
        while busy:
            ready = pool.wait(busy, timeout)
            if not ready:
                raise WorkerCrashed(
                    f"parallel_map: no worker answered within {timeout}s", busy[0]
                )
            for rank in ready:
                status, index, value = pool.recv(rank, timeout)
                if status == "err":
                    raise RuntimeError(f"parallel_map item {index} failed:\n{value}")
                results[index] = value
                if cursor < len(item_list):
                    pool.send(rank, ("item", cursor, item_list[cursor]))
                    cursor += 1
                else:
                    busy.remove(rank)
    return results
