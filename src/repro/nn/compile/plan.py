"""Static buffer-reuse planning: liveness analysis over a fused program.

Every kernel output (and every chunk of backend scratch a kernel asks
for) is assigned a byte range inside one preallocated arena.  Two
ranges may overlap only if their live intervals do not — the planner
frees a value's range the moment its last consumer has run and hands
the space to the next allocation (first-fit over an offset-ordered,
coalescing free list).  The compiled executor therefore performs no
large allocations per run at all: one arena, planned once, reused for
every batch of the same per-sample geometry.  The plan is made at a
batch *capacity*; a run of ``n <= capacity`` rows uses the leading-axis
prefix of every planned range.

Conv column matrices, padded images and GEMM outputs are just arena
intervals with kernel-local lifetimes.

Alignment is 64 bytes so every planned view is SIMD/BLAS friendly
regardless of dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fuse import FusedProgram, Kernel

__all__ = [
    "Slot",
    "ArenaPlan",
    "plan_buffers",
    "ALIGN",
    "KernelPartition",
    "partition_rows",
    "partition_kernel",
    "plan_partitions",
    "MIN_TILE_WORK",
    "MAX_TILES",
]

ALIGN = 64

#: Minimum scalar-operation work (a flop proxy) one tile must carry
#: before a kernel is split at all — below this the dispatch overhead
#: of even a second tile exceeds the compute it would offload, so small
#: kernels stay serial by plan, not by runtime heuristic.
MIN_TILE_WORK = 1 << 17

#: Fixed tile-count ceiling.  The partition is part of the *plan*, not
#: of the thread pool: the same bounds are produced whatever the pool
#: size, so all multi-worker runs execute identical tile sequences
#: (determinism) and a pool larger than MAX_TILES simply leaves workers
#: idle rather than changing the numbers.
MAX_TILES = 16


@dataclass(frozen=True)
class Slot:
    """One planned byte range: ``[offset, offset + nbytes)``."""

    offset: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


@dataclass
class ArenaPlan:
    """Assignment of values and kernel scratch into one arena."""

    total_bytes: int = 0
    #: root value id -> arena slot (graph outputs included).
    slots: Dict[int, Slot] = field(default_factory=dict)
    #: (kernel index, tag) -> arena slot for backend scratch.
    scratch: Dict[Tuple[int, str], Slot] = field(default_factory=dict)
    #: root value id -> (first kernel index, last kernel index) live range,
    #: in kernel-sequence coordinates; kept for the property tests.
    intervals: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def peak_naive_bytes(self) -> int:
        """Bytes a no-reuse allocator would have used (telemetry)."""
        return sum(slot.nbytes for slot in self.slots.values()) + sum(
            slot.nbytes for slot in self.scratch.values()
        )


def _aligned(nbytes: int) -> int:
    return (nbytes + ALIGN - 1) // ALIGN * ALIGN


class _FreeList:
    """Offset-ordered free intervals with coalescing, first-fit grabs."""

    def __init__(self) -> None:
        self._free: List[List[int]] = []  # [offset, nbytes], offset-ordered
        self.high_water = 0

    def allocate(self, nbytes: int) -> int:
        nbytes = _aligned(max(nbytes, 1))
        for interval in self._free:
            if interval[1] >= nbytes:
                offset = interval[0]
                interval[0] += nbytes
                interval[1] -= nbytes
                if interval[1] == 0:
                    self._free.remove(interval)
                return offset
        offset = self.high_water
        self.high_water += nbytes
        return offset

    def release(self, offset: int, nbytes: int) -> None:
        nbytes = _aligned(max(nbytes, 1))
        index = 0
        while index < len(self._free) and self._free[index][0] < offset:
            index += 1
        self._free.insert(index, [offset, nbytes])
        # Coalesce with neighbours so big buffers can be re-carved.
        merged: List[List[int]] = []
        for interval in self._free:
            if merged and merged[-1][0] + merged[-1][1] == interval[0]:
                merged[-1][1] += interval[1]
            else:
                merged.append(interval)
        self._free = merged


def plan_buffers(program: FusedProgram, backend) -> ArenaPlan:
    """Liveness-analyze ``program`` and pack it into one arena.

    ``backend`` supplies per-kernel scratch requests via
    ``backend.scratch_requests(kernel, program)`` — scratch lives only
    for its kernel's index, so consecutive kernels share the same bytes.
    """
    graph = program.graph
    kernels = program.kernels
    # Leaves live outside the arena, and so do graph-output roots: the
    # executor gives outputs fresh per-run buffers (they escape to the
    # caller, mirroring eager semantics) instead of copying them out of
    # reused arena space at the end of every run.  Backend-hosted
    # kernel outputs (``backend.hosts_output``) are skipped below for
    # the same reason: the lowering publishes its own freshly-owned
    # array per run.
    external = {op.id for op in graph.ops if op.kind in ("input", "param")}
    external.update(program.resolve(value) for value in graph.output_ids)

    last_use: Dict[int, int] = {}
    for index, kernel in enumerate(kernels):
        for value in kernel.inputs:
            root = program.resolve(value)
            if root in external:
                continue
            last_use[root] = index

    plan = ArenaPlan()
    free = _FreeList()
    #: kernel index -> [(root, slot), ...] to release after it runs.
    expiring: Dict[int, List[Tuple[int, Slot]]] = {}

    for index, kernel in enumerate(kernels):
        root = program.resolve(kernel.output)
        if (
            root not in plan.slots
            and root not in external
            and not backend.hosts_output(kernel, program)
        ):
            op = graph.op(root)
            nbytes = int(np.prod(op.shape, dtype=np.int64)) * np.dtype(op.dtype).itemsize
            slot = Slot(free.allocate(nbytes), _aligned(max(nbytes, 1)))
            plan.slots[root] = slot
            death = last_use.get(root, index)
            plan.intervals[root] = (index, death)
            expiring.setdefault(death, []).append((root, slot))

        for tag, nbytes in backend.scratch_requests(kernel, program):
            slot = Slot(free.allocate(nbytes), _aligned(max(nbytes, 1)))
            plan.scratch[(index, tag)] = slot
            # Scratch dies with its own kernel: release immediately so
            # the very next kernel can reuse the bytes.
            expiring.setdefault(index, []).append((-1, slot))

        for _, slot in expiring.pop(index, ()):
            free.release(slot.offset, slot.nbytes)

    plan.total_bytes = free.high_water
    return plan


# ----------------------------------------------------------------------
# Row partitioning (threaded backend metadata)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelPartition:
    """Fixed-order row partition of one kernel's leading axis.

    ``bounds`` is a monotone tuple ``(0, ..., axis_size)``; tile ``i``
    covers rows ``[bounds[i], bounds[i+1])``.  Tiles are disjoint and
    cover the axis exactly once (pinned by a hypothesis property test),
    so tile writes into one shared output buffer never overlap and the
    union of tiles is the whole kernel.
    """

    axis_size: int
    bounds: Tuple[int, ...]

    @property
    def num_tiles(self) -> int:
        return len(self.bounds) - 1

    @property
    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(zip(self.bounds[:-1], self.bounds[1:]))

    def scaled(self, factor: int) -> "KernelPartition":
        """The same partition with every bound multiplied by ``factor``.

        Used to convert a conv kernel's batch partition into GEMM-row
        coordinates (``rows = batch * out_h * out_w``).
        """
        return KernelPartition(
            axis_size=self.axis_size * factor,
            bounds=tuple(b * factor for b in self.bounds),
        )


def partition_rows(
    axis_size: int,
    work_per_row: int,
    min_tile_work: int = MIN_TILE_WORK,
    max_tiles: int = MAX_TILES,
) -> KernelPartition:
    """Deterministically partition ``axis_size`` rows into tiles.

    The tile count depends only on the kernel's total work and the two
    module constants — never on the thread count — and the bounds are
    the canonical even integer split, so every process planning the
    same graph produces byte-identical partitions.
    """
    if axis_size <= 0:
        return KernelPartition(axis_size=max(axis_size, 0), bounds=(0, max(axis_size, 0)))
    total_work = axis_size * max(work_per_row, 1)
    tiles = min(total_work // max(min_tile_work, 1), max_tiles, axis_size)
    tiles = max(int(tiles), 1)
    bounds = tuple(i * axis_size // tiles for i in range(tiles + 1))
    return KernelPartition(axis_size=axis_size, bounds=bounds)


def _kernel_row_work(
    kernel: Kernel, program: FusedProgram, rows: Optional[int] = None
) -> Tuple[int, int]:
    """``(axis_size, work_per_row)`` for partitioning one kernel.

    The leading axis is the batch/rows dimension of the kernel's output
    (``rows`` overrides its planned size with a run's batch size);
    work per row is a scalar-operation (flop) proxy — GEMM rows weigh
    their inner dimension, elementwise rows weigh their chain length —
    so GEMM-heavy kernels split readily while cheap elementwise kernels
    stay serial unless they are genuinely large.
    """
    root = kernel.ops[0]
    if not root.shape:
        return 0, 0
    axis = int(root.shape[0]) if rows is None else int(rows)
    per_row = int(np.prod(root.shape[1:], dtype=np.int64))
    if root.kind == "conv2d":
        c_in, _, _ = root.params["input_chw"]
        kh, kw = root.params["kernel"]
        per_row *= c_in * kh * kw
    elif root.kind == "matmul":
        weight = program.graph.op(root.inputs[1])
        per_row *= int(weight.shape[0])
    else:
        per_row *= len(kernel.ops) + len(kernel.pool)
    return axis, per_row


def partition_kernel(
    kernel: Kernel, program: FusedProgram, rows: Optional[int] = None
) -> Optional[KernelPartition]:
    """The partition for ``kernel`` at ``rows`` leading-axis rows (the
    planned capacity by default), or ``None`` if it must stay serial
    for correctness (not merely for size).

    Softmax-family kernels reduce along a recorded axis; they partition
    only when that axis is not the leading one, so every reduction stays
    entirely inside a single tile (no cross-tile reduction trees are
    ever needed — fan-in order is the serial order by construction).
    """
    root = kernel.ops[0]
    if root.kind in ("softmax", "log_softmax"):
        axis = root.params["axis"] % len(root.shape)
        if axis == 0:
            return None
    axis_size, per_row = _kernel_row_work(kernel, program, rows)
    if axis_size <= 0:
        return None
    return partition_rows(axis_size, per_row)


def plan_partitions(program: FusedProgram) -> Dict[int, KernelPartition]:
    """Partition metadata for every kernel of ``program``.

    Keyed by kernel index.  Kernels that must stay serial are simply
    absent; kernels present with ``num_tiles == 1`` fell under the
    min-work threshold.
    """
    partitions: Dict[int, KernelPartition] = {}
    for index, kernel in enumerate(program.kernels):
        partition = partition_kernel(kernel, program)
        if partition is not None:
            partitions[index] = partition
    return partitions
