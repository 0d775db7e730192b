"""Graph fusion: group :class:`~.ir.LazyOp` nodes into kernels.

Fusion groups *arbitrary* elementwise chains behind any GEMM producer:

* a ``conv2d`` or ``matmul`` absorbs every following single-consumer
  elementwise op (``bias_add``, ``relu``, ``sigmoid``) into one
  kernel — the chain runs in place on the GEMM output while it is
  still in the GEMM's natural layout;
* a conv-rooted kernel additionally absorbs a trailing non-overlapping
  ``maxpool`` that tiles its output exactly, reducing the windows in
  the GEMM's channels-last rows, so the full-size activation is never
  written a second time;
* elementwise ops with no producer to ride fuse with each other into a
  single chain kernel;
* ``reshape`` becomes a zero-copy alias of its input buffer;
* everything else lowers to a singleton kernel.

The output is a :class:`FusedProgram` — the unit the buffer planner
(:mod:`repro.nn.compile.plan`) and the backend lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .ir import ELEMENTWISE_KINDS, PRODUCER_KINDS, Graph, LazyOp

__all__ = ["Kernel", "FusedProgram", "fuse_graph"]


@dataclass
class Kernel:
    """One executable unit: a producer op plus everything fused onto it."""

    kind: str                  # "gemm", "elementwise", or the op's own kind
    ops: Tuple[LazyOp, ...]    # chain in execution order; ops[0] is the root
    inputs: Tuple[int, ...]    # external value ids, primary data input first
    output: int                # value id this kernel defines
    pool: Tuple[LazyOp, ...] = ()  # trailing fused maxpool (conv kernels only)

    @property
    def fused_away(self) -> int:
        """Ops this kernel absorbed beyond its root (telemetry)."""
        return len(self.ops) - 1 + len(self.pool)


@dataclass
class FusedProgram:
    """Kernels in execution order plus reshape aliasing."""

    graph: Graph
    kernels: List[Kernel]
    #: value id -> the earlier value whose buffer it aliases (reshape).
    aliases: Dict[int, int] = field(default_factory=dict)

    def resolve(self, value_id: int) -> int:
        """Follow alias links to the root buffer-owning value."""
        while value_id in self.aliases:
            value_id = self.aliases[value_id]
        return value_id

    @property
    def ops_fused(self) -> int:
        return sum(kernel.fused_away for kernel in self.kernels)


def _single_consumer(consumers: Dict[int, List[int]], value_id: int) -> int:
    """The one op consuming ``value_id``, or -1."""
    users = consumers.get(value_id, ())
    return users[0] if len(users) == 1 else -1


def _chain_extras_are_params(graph: Graph, op: LazyOp) -> bool:
    """Non-primary inputs of a fusable elementwise op must be leaves."""
    return all(graph.op(v).kind == "param" for v in op.inputs[1:])


def _pool_tiles_exactly(conv_shape: Tuple[int, ...], pool: LazyOp) -> bool:
    kernel = pool.params["kernel"]
    stride = pool.params["stride"]
    return (
        stride == kernel
        and conv_shape[2] % kernel[0] == 0
        and conv_shape[3] % kernel[1] == 0
    )


def fuse_graph(graph: Graph, output_ids: Tuple[int, ...] = ()) -> FusedProgram:
    """Partition ``graph`` into fused kernels (deterministic, one pass)."""
    consumers = graph.consumers()
    outputs = set(output_ids or graph.output_ids)
    program = FusedProgram(graph=graph, kernels=[])
    claimed = set()  # op ids folded into an earlier kernel

    for op in graph.ops:
        if op.id in claimed or op.kind in ("input", "param"):
            continue

        if op.kind == "reshape":
            program.aliases[op.id] = op.inputs[0]
            # An alias of a graph input still needs the data staged into
            # a buffer the executor owns? No — aliases resolve through
            # to external arrays too; the backend reshapes the view.
            continue

        if op.kind in PRODUCER_KINDS:
            chain = [op]
            tail = op
            while True:
                nxt_id = _single_consumer(consumers, tail.id)
                if nxt_id < 0 or tail.id in outputs:
                    break
                nxt = graph.op(nxt_id)
                if (
                    nxt.kind not in ELEMENTWISE_KINDS
                    or nxt.inputs[0] != tail.id
                    or not _chain_extras_are_params(graph, nxt)
                ):
                    break
                chain.append(nxt)
                claimed.add(nxt.id)
                tail = nxt
            pool_ops: Tuple[LazyOp, ...] = ()
            if op.kind == "conv2d" and tail.id not in outputs:
                nxt_id = _single_consumer(consumers, tail.id)
                if nxt_id >= 0:
                    nxt = graph.op(nxt_id)
                    if nxt.kind == "maxpool" and _pool_tiles_exactly(op.shape, nxt):
                        pool_ops = (nxt,)
                        claimed.add(nxt.id)
                        tail = nxt
            extras = [v for link in chain for v in link.inputs[1:]]
            program.kernels.append(
                Kernel(
                    kind="gemm",
                    ops=tuple(chain),
                    inputs=(op.inputs[0],) + tuple(extras),
                    output=tail.id,
                    pool=pool_ops,
                )
            )
            continue

        if op.kind in ELEMENTWISE_KINDS:
            chain = [op]
            tail = op
            while True:
                nxt_id = _single_consumer(consumers, tail.id)
                if nxt_id < 0 or tail.id in outputs:
                    break
                nxt = graph.op(nxt_id)
                if (
                    nxt.kind not in ELEMENTWISE_KINDS
                    or nxt.inputs[0] != tail.id
                    or not _chain_extras_are_params(graph, nxt)
                ):
                    break
                chain.append(nxt)
                claimed.add(nxt.id)
                tail = nxt
            extras = [v for link in chain for v in link.inputs[1:]]
            program.kernels.append(
                Kernel(
                    kind="elementwise",
                    ops=tuple(chain),
                    inputs=(op.inputs[0],) + tuple(extras),
                    output=tail.id,
                )
            )
            continue

        # Singleton kernel (softmax, pooling, upsample, ...).
        program.kernels.append(
            Kernel(kind=op.kind, ops=(op,), inputs=tuple(op.inputs), output=op.id)
        )

    return program
