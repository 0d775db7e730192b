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
from typing import Dict, List, Tuple

import numpy as np

from .fuse import FusedProgram

__all__ = ["Slot", "ArenaPlan", "plan_buffers", "ALIGN"]

ALIGN = 64


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

    ``backend`` (the :class:`~repro.nn.compile.backend.NumpyBackend`
    that will lower the kernels) supplies per-kernel scratch requests
    via ``backend.scratch_requests(kernel, program)`` — scratch lives
    only for its kernel's index, so consecutive kernels share the same
    bytes.
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
