"""The lazy intermediate representation: :class:`LazyOp` graphs.

A :class:`Graph` is a flat, topologically ordered list of
:class:`LazyOp` nodes.  Each node records *what* would be computed —
op kind, input value ids, geometry parameters, output shape and dtype,
and a ``source`` ref naming the layer it came from — without computing
anything.  Tracing (:mod:`repro.nn.compile.trace`) builds the graph
from a module tree; lowering turns it into fused kernels
(:mod:`repro.nn.compile.fuse`), an arena plan
(:mod:`repro.nn.compile.plan`), and finally the backend's callables
(:mod:`repro.nn.compile.backend`).

Value ids are just op ids: every op produces exactly one value.  Leaf
ops (``input`` / ``param``) carry no inputs; ``param`` leaves hold a
zero-argument *binding* callable evaluated at run time, so weight
updates (in-place optimizer steps, ``load_state_dict``) are picked up
without recompiling.

The op kinds are exactly what the paper's models run at inference:
the leaves ``input`` and ``param``; the GEMM producers ``conv2d`` and
``matmul``; the elementwise ``bias_add``, ``relu`` and ``sigmoid``;
and ``maxpool``, ``upsample``, ``reshape`` and ``softmax``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LazyOp",
    "Graph",
    "GraphBuilder",
    "UnsupportedOpError",
    "ModuleStateError",
    "ELEMENTWISE_KINDS",
    "PRODUCER_KINDS",
]

#: Elementwise op kinds: one value in, same-shape value out, no
#: cross-element data flow.  These are the fusion pass's free riders —
#: any chain of them can run in place on a producer's output buffer.
ELEMENTWISE_KINDS = frozenset({"bias_add", "relu", "sigmoid"})

#: Kinds that anchor a fused kernel (a GEMM whose output an elementwise
#: chain — and for conv, a trailing max-pool — can be folded into).
PRODUCER_KINDS = frozenset({"conv2d", "matmul"})


class UnsupportedOpError(Exception):
    """Raised when a module or op has no lazy lowering.

    The compile entry points catch this and fall back to the eager
    path — an unsupported model is a missed optimization, never an
    error surfaced to callers.  The failure is remembered for that
    per-sample shape and dtype, so it is not retraced on every call.
    """


class ModuleStateError(UnsupportedOpError):
    """The module cannot compile in its *current state* (timing hooks
    attached), though it may once that state changes.  Falls back like
    any :class:`UnsupportedOpError`, but is not remembered: the next
    call tries again.
    """


@dataclass(frozen=True)
class LazyOp:
    """One node of the lazy graph (op kind + geometry, no data)."""

    id: int
    kind: str
    inputs: Tuple[int, ...]
    shape: Tuple[int, ...]
    dtype: str
    params: Dict[str, object] = field(default_factory=dict)
    source: str = ""


class Graph:
    """A topologically ordered op list with run-time param bindings."""

    def __init__(self) -> None:
        self.ops: List[LazyOp] = []
        self.bindings: Dict[int, Callable[[], np.ndarray]] = {}
        self.input_ids: List[int] = []
        self.output_ids: List[int] = []

    def op(self, value_id: int) -> LazyOp:
        return self.ops[value_id]

    def consumers(self) -> Dict[int, List[int]]:
        """Map of value id -> ids of ops that consume it."""
        result: Dict[int, List[int]] = {op.id: [] for op in self.ops}
        for op in self.ops:
            for value in op.inputs:
                result[value].append(op.id)
        return result

    def __len__(self) -> int:
        return len(self.ops)

    def summary(self) -> str:
        lines = []
        for op in self.ops:
            args = ", ".join(f"%{i}" for i in op.inputs)
            lines.append(
                f"%{op.id} = {op.kind}({args}) -> {op.shape} {op.dtype}"
                + (f"  # {op.source}" if op.source else "")
            )
        outs = ", ".join(f"%{i}" for i in self.output_ids)
        lines.append(f"return {outs}")
        return "\n".join(lines)


class GraphBuilder:
    """Append-only builder enforcing shape/dtype bookkeeping per op."""

    def __init__(self) -> None:
        self.graph = Graph()

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def add_input(self, shape: Sequence[int], dtype) -> int:
        value = self._append("input", (), tuple(shape), dtype)
        self.graph.input_ids.append(value)
        return value

    def add_param(
        self,
        binding: Callable[[], np.ndarray],
        shape: Sequence[int],
        dtype,
        source: str = "",
    ) -> int:
        """A leaf whose array is fetched by calling ``binding`` per run."""
        value = self._append("param", (), tuple(shape), dtype, source=source)
        self.graph.bindings[value] = binding
        return value

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def add_op(
        self,
        kind: str,
        inputs: Sequence[int],
        shape: Sequence[int],
        dtype,
        params: Optional[Dict[str, object]] = None,
        source: str = "",
    ) -> int:
        for value in inputs:
            if not 0 <= value < len(self.graph.ops):
                raise ValueError(f"unknown input value %{value} for {kind}")
        return self._append(
            kind, tuple(inputs), tuple(shape), dtype, params=params, source=source
        )

    def mark_output(self, value_id: int) -> None:
        self.graph.output_ids.append(value_id)

    def _append(
        self,
        kind: str,
        inputs: Tuple[int, ...],
        shape: Tuple[int, ...],
        dtype,
        params: Optional[Dict[str, object]] = None,
        source: str = "",
    ) -> int:
        op = LazyOp(
            id=len(self.graph.ops),
            kind=kind,
            inputs=inputs,
            shape=shape,
            dtype=np.dtype(dtype).str,
            params=dict(params or {}),
            source=source,
        )
        self.graph.ops.append(op)
        return op.id
