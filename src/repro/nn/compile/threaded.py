"""Threaded compiled-graph backend: intra-op parallel GEMM/conv.

:class:`ThreadedBackend` executes every partitionable kernel as a
fixed-order sequence of row tiles dispatched to a persistent
:class:`~concurrent.futures.ThreadPoolExecutor`.  numpy releases the
GIL inside BLAS GEMMs and large ufunc loops, so tiles genuinely
overlap on separate cores even though the workers are threads — and
under the single-thread BLAS pinning :mod:`repro.parallel` enforces,
this is the *only* intra-op parallelism available on the serve path.

The bit-identity contract survives parallelism by construction:

* the partition (tile bounds) comes from the plan layer
  (:func:`repro.nn.compile.plan.partition_kernel`) and depends only on
  the kernel's geometry and the run's batch size — never on the thread
  count — so every N-thread run at a batch size executes the *same*
  tiles (a 1-worker pool runs the serial numpy-backend lowering
  instead: zero tiling overhead, and the probe below certifies the
  numbers cannot differ);
* each tile writes a disjoint row range of the shared output buffer,
  so there is no cross-tile reduction at all (every reduction an op
  performs stays inside one tile, in the serial fan-in order);
* row-sliced BLAS GEMMs are **probed** for bit-identity against the
  full-size GEMM at lowering time (:func:`gemm_slicing_bit_identical`):
  OpenBLAS switches micro-kernels by matrix size, so a sliced GEMM is
  *not* universally bit-equal to its full-size twin — kernels whose
  probe fails fall back to the serial lowering and are counted in
  ``compile.threads.kernels_serial``.  Parity with
  :class:`~.backend.NumpyBackend` is therefore guaranteed on whatever
  BLAS the process is running, not assumed from a library property.

Thread-pool sizing: ``configure_threads(n)`` (explicit) or the
``REPRO_COMPILE_THREADS`` environment variable; default
``min(4, cpu_count)``.  The pool is process-wide and lazily built;
sizing it never changes results, only wall-clock.

Telemetry (``repro.obs`` default registry):

* ``compile.threads.tiles`` — tiles dispatched (counter; tiles/s in
  ``repro.obs.top``);
* ``compile.threads.kernels_parallel`` / ``.kernels_serial`` — lowering
  decisions (counter; serial = below min-work, probe-failed, or
  unpartitionable);
* ``compile.threads.pool_size`` — configured worker count (gauge).
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .backend import BATCH, Getter, NumpyBackend, narrowing_conv, register_backend
from .fuse import FusedProgram, Kernel
from .plan import partition_kernel

__all__ = [
    "ThreadedBackend",
    "configure_threads",
    "thread_count",
    "clamped_threads",
    "shutdown_pool",
    "gemm_slicing_bit_identical",
]

#: Default pool size cap — wafer kernels rarely profit past a few
#: cores, and serve replicas multiply whatever we pick.
DEFAULT_THREAD_CAP = 4


def _metrics():
    from ...obs.metrics import default_registry

    return default_registry()


# ----------------------------------------------------------------------
# Process-wide worker pool
# ----------------------------------------------------------------------
class _Pool:
    lock = threading.Lock()
    executor: Optional[ThreadPoolExecutor] = None
    threads: Optional[int] = None  # None = not yet resolved


def _default_threads() -> int:
    env = os.environ.get("REPRO_COMPILE_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(DEFAULT_THREAD_CAP, os.cpu_count() or 1))


def thread_count() -> int:
    """The configured worker count (resolving the default if unset)."""
    with _Pool.lock:
        if _Pool.threads is None:
            _Pool.threads = _default_threads()
        return _Pool.threads


def configure_threads(threads: Optional[int]) -> int:
    """Set the pool size; ``None`` re-resolves the env/default.

    Returns the resulting count.  An existing pool of a different size
    is shut down and lazily rebuilt — safe between runs (the executor
    is only held during a ``CompiledGraph.run``), and changing the size
    never changes results, because tile bounds do not depend on it.
    """
    with _Pool.lock:
        new = _default_threads() if threads is None else max(1, int(threads))
        if new != _Pool.threads and _Pool.executor is not None:
            _Pool.executor.shutdown(wait=True)
            _Pool.executor = None
        _Pool.threads = new
        _metrics().gauge("compile.threads.pool_size").set(new)
        return new


def clamped_threads(requested: Optional[int], lanes: int = 1) -> int:
    """Thread-group size for one of ``lanes`` replica processes.

    Guards the threads × processes topology against oversubscription:
    with every replica's BLAS pinned to one thread
    (:data:`repro.parallel.BLAS_ENV_VARS`), the compile pool is the
    only per-replica parallelism, so its size is capped at
    ``cpu_count // lanes`` (floor 1).  ``requested=None`` clamps the
    env/default resolution instead.
    """
    cpus = os.cpu_count() or 1
    ceiling = max(1, cpus // max(int(lanes), 1))
    wanted = _default_threads() if requested is None else max(1, int(requested))
    return min(wanted, ceiling)


def shutdown_pool() -> None:
    """Tear down the worker pool (tests / idle reclaim); lazily rebuilt."""
    with _Pool.lock:
        if _Pool.executor is not None:
            _Pool.executor.shutdown(wait=True)
            _Pool.executor = None


def _executor() -> Optional[ThreadPoolExecutor]:
    """The shared executor, or ``None`` when one worker would be it."""
    with _Pool.lock:
        if _Pool.threads is None:
            _Pool.threads = _default_threads()
        if _Pool.threads <= 1:
            return None
        if _Pool.executor is None:
            _Pool.executor = ThreadPoolExecutor(
                max_workers=_Pool.threads,
                thread_name_prefix="repro-compile",
            )
        return _Pool.executor


# ----------------------------------------------------------------------
# GEMM slicing bit-identity probe
# ----------------------------------------------------------------------
#: (m, k, n, dtype.str, bounds) -> probe verdict.  Process-wide: the
#: verdict is a property of the BLAS build and the shapes, not of any
#: particular graph.
_PROBE_CACHE: Dict[Tuple, bool] = {}
_PROBE_LOCK = threading.Lock()


def gemm_slicing_bit_identical(
    m: int, k: int, n: int, dtype, bounds: Tuple[int, ...],
    b_transposed: bool = False,
) -> bool:
    """True if row-slicing an ``(m, k) @ (k, n)`` GEMM at ``bounds``
    reproduces the full-size GEMM bit for bit on this machine's BLAS.

    ``b_transposed`` says the kernel's ``(k, n)`` operand is the
    transpose of a C-contiguous ``(n, k)`` array (a conv's filters), so
    the probe makes the same BLAS call as the kernel: a transposed
    operand selects other BLAS code paths, which can slice differently.

    Checked empirically with seeded gaussian operands: if the sliced
    path takes a different BLAS code path (different k-blocking or a
    small-matrix kernel), rounding diverges somewhere in the output
    with near-certainty on continuous random data; two independent
    trials make a false pass astronomically unlikely.  The verdict is
    cached — one probe per distinct GEMM geometry per process.
    """
    dt = np.dtype(dtype)
    key = (int(m), int(k), int(n), dt.str, tuple(bounds), bool(b_transposed))
    with _PROBE_LOCK:
        cached = _PROBE_CACHE.get(key)
    if cached is not None:
        return cached
    verdict = True
    for trial in range(2):
        # Seeded from a *stable* digest of the geometry (Python's hash()
        # is salted per process) so every process probes identical data.
        digest = hashlib.blake2s(
            repr(("repro.compile.probe", key, trial)).encode()
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        a = rng.standard_normal((m, k)).astype(dt, copy=False)
        if b_transposed:
            b = rng.standard_normal((n, k)).astype(dt, copy=False).T
        else:
            b = rng.standard_normal((k, n)).astype(dt, copy=False)
        full = a @ b
        sliced = np.empty_like(full)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            np.matmul(a[start:stop], b, out=sliced[start:stop])
        if not np.array_equal(full, sliced):
            verdict = False
            break
    with _PROBE_LOCK:
        _PROBE_CACHE[key] = verdict
    return verdict


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
#: ``tile(env, start, stop, *extra)`` — computes one disjoint row range.
Tile = Callable[..., None]

#: ``run(env, bounds, pool)`` — executes a kernel as the tiles ``bounds``.
TiledRun = Callable[[dict, Tuple[int, ...], ThreadPoolExecutor], None]

#: Run-environment key a sliced kernel's tile reads its row range from.
_TILE = "tile"


def _dispatch(
    pool: ThreadPoolExecutor, tile: Tile, env: dict, bounds: Tuple[int, ...], *extra
) -> None:
    """Run ``tile`` over every range of ``bounds``; the first range runs
    on the dispatching thread, the rest on the pool."""
    ranges = list(zip(bounds[:-1], bounds[1:]))
    _metrics().counter("compile.threads.tiles").inc(len(ranges))
    futures = [pool.submit(tile, env, a, b, *extra) for a, b in ranges[1:]]
    tile(env, *ranges[0], *extra)
    for future in futures:
        future.result()


class ThreadedBackend(NumpyBackend):
    """Tile-parallel twin of :class:`~.backend.NumpyBackend`.

    Scratch sizing and output hosting are inherited unchanged — tiles
    slice the very same arena buffers by disjoint row ranges — so the
    planner treats both backends identically and a graph planned for
    one is *not* interchangeable with the other only because the
    lowered closures differ (which is why the compile cache keys on the
    backend name).

    A graph runs any batch up to its planned capacity, so tiles are
    planned per run size: the first run of a kernel at ``n`` rows
    partitions it at ``n`` (:func:`~.plan.partition_kernel`), probes
    the sliced GEMM, counts the decision in
    ``compile.threads.kernels_parallel`` / ``.kernels_serial`` and
    caches it for every later run at ``n``.
    """

    name = "threaded"

    def _mark(self, parallel: bool) -> None:
        name = "kernels_parallel" if parallel else "kernels_serial"
        _metrics().counter(f"compile.threads.{name}").inc()

    # -- lowering -------------------------------------------------------
    def lower(
        self,
        kernel: Kernel,
        program: FusedProgram,
        get: Callable[[int], Getter],
        out: Getter,
        scratch: Dict[str, np.ndarray],
    ) -> Callable[[dict], None]:
        serial = super().lower(kernel, program, get, out, scratch)
        # Narrowing convs run their transposed-conv lowering serially.
        if partition_kernel(kernel, program) is None or narrowing_conv(kernel):
            self._mark(parallel=False)
            return serial
        root = kernel.ops[0]
        gemm = None
        if kernel.kind == "gemm" and root.kind == "conv2d":
            tiled, gemm = self._conv_tiles(kernel, get, scratch)
        elif kernel.kind == "gemm" and root.kind == "matmul":
            tiled, gemm = self._matmul_tiles(kernel, program, get, out)
        else:
            tiled = self._sliced_tiles(kernel, program, get, out, scratch)
        plans: Dict[int, Optional[Tuple[int, ...]]] = {}

        # With a 1-worker pool the serial (numpy-backend) lowering runs:
        # zero tiling overhead when parallelism is unavailable.  The
        # numbers are identical either way: the probe that admits a
        # tiling certifies its row-sliced GEMMs are bit-equal to the
        # full GEMM, and every non-GEMM op is sliced along an axis it
        # never reduces across.
        def run(env: dict) -> None:
            pool = _executor()
            if pool is None:
                serial(env)
                return
            n = env[BATCH]
            if n not in plans:
                plans[n] = self._plan(kernel, program, n, gemm)
            bounds = plans[n]
            if bounds is None:
                serial(env)
            else:
                tiled(env, bounds, pool)

        return run

    def _plan(
        self,
        kernel: Kernel,
        program: FusedProgram,
        n: int,
        gemm: Optional[Tuple[int, int, int, bool]],
    ) -> Optional[Tuple[int, ...]]:
        """Tile bounds for ``kernel`` at ``n`` rows, or ``None`` (serial).

        ``gemm`` is ``(gemm rows per leading row, inner dim, columns,
        weight operand transposed)`` for GEMM-rooted kernels, whose
        sliced GEMM must pass the probe.
        """
        partition = partition_kernel(kernel, program, rows=n)
        parallel = partition is not None and partition.num_tiles > 1
        if parallel and gemm is not None:
            per_row, inner, cols, b_transposed = gemm
            parallel = gemm_slicing_bit_identical(
                n * per_row, inner, cols, kernel.ops[0].dtype,
                partition.scaled(per_row).bounds, b_transposed,
            )
        self._mark(parallel)
        return partition.bounds if parallel else None

    # -- GEMM-rooted kernels --------------------------------------------
    def _matmul_tiles(
        self,
        kernel: Kernel,
        program: FusedProgram,
        get: Callable[[int], Getter],
        out: Getter,
    ) -> Tuple[TiledRun, Tuple[int, int, int, bool]]:
        root = kernel.ops[0]
        get_x = get(root.inputs[0])
        get_w = get(root.inputs[1])
        chain = self._chain_appliers(kernel.ops[1:], get, channels_last=True)

        def tile(env: dict, a: int, b: int) -> None:
            target = out(env)[a:b]
            np.matmul(get_x(env)[a:b], get_w(env), out=target)
            for apply in chain:
                apply(target, env)

        def run(env: dict, bounds: Tuple[int, ...], pool: ThreadPoolExecutor) -> None:
            # A graph output is allocated on first use: do it here, once,
            # before the tiles race for it.
            out(env)
            _dispatch(pool, tile, env, bounds)

        inner = program.graph.op(root.inputs[1]).shape[0]
        return run, (1, inner, root.shape[1], False)

    def _conv_tiles(
        self,
        kernel: Kernel,
        get: Callable[[int], Getter],
        scratch: Dict[str, np.ndarray],
    ) -> Tuple[TiledRun, Tuple[int, int, int, bool]]:
        """Batch-partitioned conv: the serial lowering's pad / im2col /
        GEMM, then chain / pool, per batch tile, into disjoint slices of
        the same arena scratch and the same published output.
        """
        root = kernel.ops[0]
        capacity, c_in, _, _ = self._conv_input_shape(kernel, root)
        kh, kw = self._conv_kernel_hw(root)
        c_out, out_h, out_w = root.shape[1], root.shape[2], root.shape[3]
        out_hw = out_h * out_w
        conv = self._im2col_conv_rows(kernel, scratch)
        get_x = get(root.inputs[0])
        get_w = get(root.inputs[1])
        chain = self._chain_appliers(kernel.ops[1:], get, channels_last=True)
        dt = np.dtype(root.dtype)
        pool_hw = kernel.pool[0].params["kernel"] if kernel.pool else None
        out_id = kernel.output
        gemm = None
        if "gemm" in scratch:
            gemm = scratch["gemm"].view(dt).reshape(capacity, out_hw, c_out)

        def tile(
            env: dict, b0: int, b1: int, buf3: np.ndarray, pooled: Optional[np.ndarray]
        ) -> None:
            nb = b1 - b0
            buf = buf3[b0:b1].reshape(nb * out_hw, c_out)
            conv(get_x(env)[b0:b1], get_w(env), buf, b0)
            for apply in chain:
                apply(buf, env)
            if pooled is not None:
                qh, qw = pool_hw
                nhwc = buf.reshape(nb, out_h // qh, qh, out_w // qw, qw, c_out)
                np.max(nhwc, axis=(2, 4), out=pooled[b0:b1])

        # Hosted output (hosts_output is inherited): both shapes publish
        # the NHWC-strided transpose of one fresh buffer — the same
        # values *and strides* the serial lowering publishes (pooled:
        # the pooling reduction's array; unpooled: the GEMM buffer).
        def run(env: dict, bounds: Tuple[int, ...], pool: ThreadPoolExecutor) -> None:
            n = env[BATCH]
            pooled = None
            if pool_hw is not None:
                buf3 = gemm[:n]
                qh, qw = pool_hw
                pooled = np.empty((n, out_h // qh, out_w // qw, c_out), dtype=dt)
                env[out_id] = pooled.transpose(0, 3, 1, 2)
            else:
                buf3 = np.empty((n, out_hw, c_out), dtype=dt)
                env[out_id] = buf3.reshape(n, out_h, out_w, c_out).transpose(
                    0, 3, 1, 2
                )
            _dispatch(pool, tile, env, bounds, buf3, pooled)

        return run, (out_hw, c_in * kh * kw, c_out, True)

    # -- sliceable non-GEMM kernels -------------------------------------
    def _sliced_tiles(
        self,
        kernel: Kernel,
        program: FusedProgram,
        get: Callable[[int], Getter],
        out: Getter,
        scratch: Dict[str, np.ndarray],
    ) -> TiledRun:
        """Row-tile an elementwise chain or singleton kernel by running
        the serial lowering per tile, on axis-0 slices of its primary
        input and its output.

        Valid because none of these kernels mix data across the leading
        axis: elementwise ops are per-element, pooling/upsample are
        per-sample spatial, and softmax-family kernels only partition
        when their reduction axis is not the leading one (plan layer
        guarantee) — so each output row range depends only on the same
        input row range, computed by the very same numpy calls.
        """
        primary = kernel.ops[0].inputs[0]

        def sliced_get(value_id: int) -> Getter:
            getter = get(value_id)
            if value_id != primary:
                return getter
            return lambda env: getter(env)[slice(*env[_TILE])]

        inner = super().lower(
            kernel, program, sliced_get,
            lambda env: out(env)[slice(*env[_TILE])], scratch,
        )

        def tile(env: dict, a: int, b: int) -> None:
            local = dict(env)
            local[_TILE] = (a, b)
            inner(local)

        def run(env: dict, bounds: Tuple[int, ...], pool: ThreadPoolExecutor) -> None:
            out(env)  # allocate a graph output before the tiles copy env
            _dispatch(pool, tile, env, bounds)

        return run


register_backend(ThreadedBackend())
