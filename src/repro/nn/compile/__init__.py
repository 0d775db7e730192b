"""``repro.nn.compile`` — a lazy-graph compiler over the numpy backend.

The pipeline::

    model ──trace──▶ Graph (LazyOp IR)
          ──fuse───▶ FusedProgram (GEMM+elementwise[+pool] kernels)
          ──plan───▶ ArenaPlan (liveness-packed buffer offsets)
          ──lower──▶ CompiledGraph (backend closures over one arena)

Entry points:

* ``nn.compile(model)`` — the module itself is callable; returns a
  :class:`CompiledModule` whose runs are bit-identical to eager
  ``inference_mode`` and which falls back to eager for anything the
  compiler does not cover;
* :func:`compiled_for` — process-local cached wrapper, used by the
  model predict paths and the serving engine;
* :func:`register_tracer` / :func:`register_graph_factory` — the two
  extension seams (new layers, new whole-model graphs).

Every graph runs on :class:`NumpyBackend`, which replays the eager
forward's numpy calls over one planned arena.

Smoke check: ``python -m repro.nn.compile.smoke``.
"""

from __future__ import annotations

import sys
import types

from .api import (
    CompiledModule,
    compile_module,
    compiled_for,
    eager_only,
    is_enabled,
    register_graph_factory,
    release_compiled,
    set_enabled,
)
from .backend import NumpyBackend
from .executor import CompiledGraph
from .fuse import FusedProgram, Kernel, fuse_graph
from .ir import Graph, GraphBuilder, LazyOp, ModuleStateError, UnsupportedOpError
from .plan import ArenaPlan, Slot, plan_buffers
from .trace import register_tracer, trace_call, trace_module

__all__ = [
    "CompiledModule",
    "compile_module",
    "compiled_for",
    "eager_only",
    "is_enabled",
    "set_enabled",
    "release_compiled",
    "register_graph_factory",
    "register_tracer",
    "trace_call",
    "trace_module",
    "Graph",
    "GraphBuilder",
    "LazyOp",
    "UnsupportedOpError",
    "ModuleStateError",
    "FusedProgram",
    "Kernel",
    "fuse_graph",
    "ArenaPlan",
    "Slot",
    "plan_buffers",
    "NumpyBackend",
    "CompiledGraph",
]


class _CallableModule(types.ModuleType):
    """Makes ``nn.compile(model)`` work while keeping this a real module
    (so ``python -m repro.nn.compile.smoke`` and submodule imports still
    resolve normally)."""

    def __call__(self, model) -> CompiledModule:
        return compile_module(model)


sys.modules[__name__].__class__ = _CallableModule
