"""Arena-hosted execution of a fused, planned graph.

:class:`CompiledGraph` owns one byte arena sized by the planner and a
list of backend-lowered kernel closures.  The graph is planned at a
batch *capacity* (the leading-axis length it was traced with) and runs
any batch of ``n <= capacity`` rows: every arena value is read and
written through its leading-axis prefix ``[:n]``, so a run at ``n``
makes the very numpy/BLAS calls eager inference makes at ``n`` — which
is what keeps compiled outputs bit-identical to eager at every batch
size.

A run is: resolve leaves (inputs + live parameter bindings) into an
environment dict, execute the kernels in order (graph outputs are
produced into fresh buffers or fresh views as each kernel runs — they
escape to the caller, like eager results), return the outputs.
Everything intermediate lives in the arena at planner-assigned offsets,
so steady-state runs perform no large allocations beyond the outputs
themselves.  Runs of one graph are serialized (they share the arena).
Every value is laid out in the memory order the eager forward leaves
it in (:func:`_channels_last`), so outputs match eager's strides as
well as its values.

:meth:`CompiledGraph.release` drops the arena (and the kernel closures
viewing it) so an idle server can return the memory; the next run
rebuilds both from the retained plan.  The ``compile.arena_bytes``
gauge tracks the bytes of live arenas.  Materializing touches no arena
page, so a run at ``n`` only ever pages in the prefixes it uses.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from .backend import BATCH, NumpyBackend
from .fuse import FusedProgram
from .ir import ELEMENTWISE_KINDS, Graph, UnsupportedOpError
from .plan import ArenaPlan

__all__ = ["CompiledGraph"]

#: Op kinds whose eager result keeps its input's memory order.
_ORDER_KEEPING = ELEMENTWISE_KINDS | {"maxpool", "softmax"}


def _channels_last(graph: Graph) -> Set[int]:
    """Ids of the values the eager forward holds channels-last in memory.

    An eager conv returns an NCHW view of its ``(N*H*W, C)`` GEMM rows;
    elementwise ops, max-pool and softmax keep their input's memory
    order; every other op returns C-contiguous data.
    """
    nhwc: Set[int] = set()
    for op in graph.ops:
        if op.kind == "conv2d" or (op.kind in _ORDER_KEEPING and op.inputs[0] in nhwc):
            nhwc.add(op.id)
    return nhwc


def _shaped(flat: np.ndarray, shape: Tuple[int, ...], channels_last: bool) -> np.ndarray:
    """``flat`` viewed as ``shape``, channels-last in memory if asked."""
    if channels_last:
        n, c, h, w = shape
        return flat.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    return flat.reshape(shape)


def _arena_gauge():
    from ...obs.metrics import default_registry

    return default_registry().gauge("compile.arena_bytes")


class CompiledGraph:
    """One (graph, plan, backend) triple, ready to run repeatedly."""

    def __init__(
        self,
        program: FusedProgram,
        plan: ArenaPlan,
        backend: NumpyBackend,
    ) -> None:
        self.program = program
        self.graph: Graph = program.graph
        self.plan = plan
        self.backend = backend
        self.capacity = _batch_capacity(self.graph)
        self._arena: Optional[np.ndarray] = None
        self._fns: Optional[List[Callable[[dict], None]]] = None
        self._lock = threading.Lock()
        self._external = {
            op.id for op in self.graph.ops if op.kind in ("input", "param")
        }

    # ------------------------------------------------------------------
    # Introspection (telemetry / tests)
    # ------------------------------------------------------------------
    @property
    def arena_nbytes(self) -> int:
        return self.plan.total_bytes

    @property
    def kernel_count(self) -> int:
        return len(self.program.kernels)

    @property
    def ops_fused(self) -> int:
        return self.program.ops_fused

    def release(self) -> int:
        """Drop the arena; returns the bytes freed.  Rebuilt lazily."""
        with self._lock:
            freed = 0 if self._arena is None else self._arena.nbytes
            self._arena = None
            self._fns = None
        return freed

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Allocate the arena and lower every kernel, without running."""
        with self._lock:
            if self._fns is None:
                self._materialize()

    def _materialize(self) -> None:
        graph, program, plan = self.graph, self.program, self.plan
        nhwc = _channels_last(graph)
        arena = np.empty((plan.total_bytes,), dtype=np.uint8)
        views: Dict[int, np.ndarray] = {}
        for root, slot in plan.slots.items():
            op = graph.op(root)
            nbytes = int(np.prod(op.shape, dtype=np.int64)) * np.dtype(op.dtype).itemsize
            views[root] = _shaped(
                arena[slot.offset:slot.offset + nbytes].view(np.dtype(op.dtype)),
                op.shape, root in nhwc,
            )

        # Every value carries the batch on its leading axis, so a run of
        # n rows sees the [:n] prefix of each capacity-sized view.
        def make_getter(value_id: int) -> Callable[[dict], np.ndarray]:
            root = program.resolve(value_id)
            tail = graph.op(value_id).shape[1:]
            static = views.get(root)
            if graph.op(root).shape[1:] == tail:
                if static is not None:
                    return lambda env, _v=static: _v[:env[BATCH]]
                return lambda env, _r=root: env[_r]
            if static is not None:
                return lambda env, _v=static, _t=tail: (
                    _v[:env[BATCH]].reshape((env[BATCH],) + _t)
                )
            return lambda env, _r=root, _t=tail: env[_r].reshape((env[BATCH],) + _t)

        def make_out(root: int) -> Callable[[dict], np.ndarray]:
            # Kernel-output getter: arena view for planned intermediates;
            # graph outputs (external to the arena) are allocated fresh
            # on first use and published into the run environment, so
            # they escape to the caller like eager results.
            static = views.get(root)
            if static is not None:
                return lambda env, _v=static: _v[:env[BATCH]]
            op = graph.op(root)
            tail, dt, last = op.shape[1:], np.dtype(op.dtype), root in nhwc
            size = int(np.prod(tail, dtype=np.int64))

            def getter(env: dict) -> np.ndarray:
                buf = env.get(root)
                if buf is None:
                    n = env[BATCH]
                    buf = _shaped(np.empty(n * size, dtype=dt), (n,) + tail, last)
                    env[root] = buf
                return buf

            return getter

        fns: List[Callable[[dict], None]] = []
        for index, kernel in enumerate(program.kernels):
            scratch: Dict[str, np.ndarray] = {}
            for tag, nbytes in self.backend.scratch_requests(kernel, program):
                slot = plan.scratch[(index, tag)]
                scratch[tag] = arena[slot.offset:slot.offset + nbytes]
            fns.append(
                self.backend.lower(
                    kernel, program, make_getter, make_out(kernel.output), scratch
                )
            )
        self._arena = arena
        self._fns = fns
        gauge = _arena_gauge()
        gauge.add(arena.nbytes)
        # Counted down when the arena is freed: on release(), or when a
        # graph nobody released (a dropped model's) is collected.
        weakref.finalize(arena, gauge.add, -arena.nbytes)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, *inputs: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Execute the graph on ``n <= capacity`` rows; returns one fresh
        array per graph output, each with ``n`` leading rows."""
        graph = self.graph
        if len(inputs) != len(graph.input_ids):
            raise ValueError(
                f"graph takes {len(graph.input_ids)} inputs, got {len(inputs)}"
            )
        n = len(inputs[0])
        if not 1 <= n <= self.capacity:
            raise ValueError(f"batch of {n} rows outside 1..{self.capacity}")
        env: dict = {BATCH: n}
        for value_id, array in zip(graph.input_ids, inputs):
            op = graph.op(value_id)
            if array.shape != (n,) + op.shape[1:]:
                raise ValueError(
                    f"input %{value_id} expects shape {(n,) + op.shape[1:]}, "
                    f"got {array.shape}"
                )
            env[value_id] = np.ascontiguousarray(array, dtype=np.dtype(op.dtype))
        for value_id, binding in graph.bindings.items():
            env[value_id] = binding()
        with self._lock:
            if self._fns is None:
                self._materialize()
            for fn in self._fns:
                fn(env)
        results = []
        for value_id in graph.output_ids:
            root = self.program.resolve(value_id)
            out = env[root]
            shape = (n,) + graph.op(value_id).shape[1:]
            if out.shape != shape:
                out = out.reshape(shape)
            if root in self._external:
                # The output aliases a caller-owned leaf; hand back a copy.
                out = out.copy()
            results.append(out)
        return tuple(results)


def _batch_capacity(graph: Graph) -> int:
    """The graph's batch capacity: its inputs' shared leading axis.

    Prefix execution is only sound when every computed value keeps the
    batch on its leading axis; a graph breaking that (say, a reshape
    folding the batch into another axis) is not compiled.
    """
    leading = {graph.op(v).shape[0] for v in graph.input_ids if graph.op(v).shape}
    if len(leading) != 1:
        raise UnsupportedOpError("graph inputs do not share a leading batch axis")
    capacity = leading.pop()
    for op in graph.ops:
        if op.kind != "param" and (not op.shape or op.shape[0] != capacity):
            raise UnsupportedOpError(
                f"%{op.id} {op.kind} {op.shape} does not keep the batch of "
                f"{capacity} on its leading axis"
            )
    return capacity
