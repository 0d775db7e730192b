"""Compile entry points: :func:`compile_module` and :class:`CompiledModule`.

The contract, end to end:

* ``nn.compile(model)`` returns a :class:`CompiledModule` wrapping the
  live model — parameters are *bound by reference* (re-read every run),
  so optimizer steps and ``load_state_dict`` are picked up without
  recompiling.
* Compiled outputs are **bit-identical** to the plain eager forward
  (the tape's forward with recording off) for the same inputs, in
  values and memory layout (pinned by the parity test wall).
* Anything the compiler does not cover — unknown layer types, layer
  subclasses, models in training mode, hooked modules — makes
  :meth:`CompiledModule.try_run` return ``None`` and bumps the
  ``compile.fallbacks`` counter; it never raises at the call site.
  Calling the :class:`CompiledModule` falls back to the graph's eager
  twin, so both arms compute the same function.

One graph is cached on the :class:`CompiledModule` per ``(per-sample
shape, dtype)``: batch size is not part of the key.  The graph
is planned at a batch *capacity* and runs any batch of up to that many
rows on leading-axis prefixes of one arena (bit-identical to eager at
every size).  A larger batch grows the capacity geometrically — at
least doubling it — and releases the outgrown arena, so a caller
ramping through sizes compiles O(log n) times, and one that reserves
its largest batch up front (:meth:`CompiledModule.reserve`, as the
serving engine does) compiles once.  Model classes outside
:mod:`repro.nn` (e.g. :class:`repro.core.selective.SelectiveNet`) plug
in whole-model graphs, each with its eager twin, via
:func:`register_graph_factory`.

Telemetry (``repro.obs`` default registry):

* ``compile.graphs`` — graphs compiled, capacity growth included
  (counter);
* ``compile.cache_hits`` / ``compile.cache_misses`` — per-run lookups
  against the per-model graph cache (a miss compiles or grows);
* ``compile.fallbacks`` — runs that fell back to eager;
* ``compile.kernels_fused`` — ops absorbed into other kernels;
* ``compile.arena_bytes`` — bytes of live compiled arenas (gauge).
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..layers.base import Module
from ..tensor import Tensor, _as_array, no_grad
from .backend import NumpyBackend
from .executor import CompiledGraph
from .fuse import fuse_graph
from .ir import Graph, ModuleStateError, UnsupportedOpError
from .plan import plan_buffers
from .trace import trace_module

__all__ = [
    "CompiledModule",
    "compile_module",
    "compiled_for",
    "register_graph_factory",
    "set_enabled",
    "is_enabled",
    "eager_only",
    "release_compiled",
]

#: The stateless backend every graph is planned and lowered with.
_BACKEND = NumpyBackend()


_default_registry = None


def _metrics():
    # Imported lazily: repro.obs pulls in profiling helpers that import
    # repro.nn, so a module-level import here would be circular.  Only
    # the function is cached — the registry itself may be reset between
    # tests, so it is re-resolved per call.
    global _default_registry
    if _default_registry is None:
        from ...obs.metrics import default_registry

        _default_registry = default_registry
    return _default_registry()


# ----------------------------------------------------------------------
# Global opt-in/out switch
# ----------------------------------------------------------------------
class _State:
    enabled = True
    lock = threading.Lock()


def set_enabled(flag: bool) -> bool:
    """Globally enable/disable the compiled path; returns the old value."""
    with _State.lock:
        previous = _State.enabled
        _State.enabled = bool(flag)
    return previous


def is_enabled() -> bool:
    return _State.enabled


@contextmanager
def eager_only():
    """Scope in which every ``try_run`` falls back to eager (tests/benches)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


# ----------------------------------------------------------------------
# Whole-model graph factories
# ----------------------------------------------------------------------
#: ``factory(model, input_shape, dtype) -> Graph``.
GraphFactory = Callable[[object, Tuple[int, ...], np.dtype], Graph]

#: ``eager(model, x) -> outputs``: a factory graph's outputs computed
#: eagerly from the tensor ``x``, as plain arrays in output order.
EagerFn = Callable[[object, Tensor], Tuple[np.ndarray, ...]]

#: Exact model type -> (graph factory, its eager twin).
_GRAPH_FACTORIES: Dict[type, Tuple[GraphFactory, EagerFn]] = {}


def register_graph_factory(model_type: type, *, eager: EagerFn):
    """Register a whole-model graph builder for an exact model type.

    Used by model classes whose inference output is not simply
    ``forward(x)`` — e.g. SelectiveNet's two-headed
    ``(probabilities, selection_scores)``.  ``eager`` computes the same
    outputs without compiling; :meth:`CompiledModule.__call__` runs it
    whenever the graph cannot run, so both arms return the same thing.
    """

    def decorator(factory: GraphFactory) -> GraphFactory:
        _GRAPH_FACTORIES[model_type] = (factory, eager)
        return factory

    return decorator


def _forward_outputs(model, x: Tensor) -> Tuple[np.ndarray, ...]:
    result = model(x)
    if isinstance(result, tuple):
        return tuple(t.data for t in result)
    return (result.data,)


def _build_graph(model, input_shape: Tuple[int, ...], dtype) -> Graph:
    registered = _GRAPH_FACTORIES.get(type(model))
    if registered is not None:
        return registered[0](model, input_shape, dtype)
    if isinstance(model, Module):
        # Structural trace of forward; exact-type dispatch inside raises
        # UnsupportedOpError for anything unknown (including subclasses).
        return trace_module(model, input_shape, dtype)
    raise UnsupportedOpError(f"cannot trace {type(model).__name__}")


# ----------------------------------------------------------------------
# CompiledModule
# ----------------------------------------------------------------------
class CompiledModule:
    """Lazy-compiling wrapper around one live model.

    Not serialized: pickling (e.g. shipping a model to a serve worker)
    moves only the model; each process compiles its own graphs on first
    use, which keeps compiled state process-local by construction.
    """

    def __init__(self, model) -> None:
        self.model = model
        self._graphs: Dict[Tuple, CompiledGraph] = {}
        self._unsupported: set = set()
        self._lock = threading.Lock()

    # -- compilation ----------------------------------------------------
    def _key(self, x: np.ndarray) -> Tuple:
        return (tuple(x.shape[1:]), x.dtype.str)

    def _compile(self, shape: Tuple[int, ...], dtype) -> CompiledGraph:
        graph = _build_graph(self.model, shape, dtype)
        program = fuse_graph(graph)
        plan = plan_buffers(program, _BACKEND)
        compiled = CompiledGraph(program, plan, _BACKEND)
        registry = _metrics()
        registry.counter("compile.graphs").inc()
        registry.counter("compile.kernels_fused").inc(compiled.ops_fused)
        return compiled

    def _graph_for(self, x: np.ndarray, rows: int) -> Optional[CompiledGraph]:
        """The graph for ``x``'s per-sample shape and dtype with room for
        ``rows`` rows — compiling or growing it (a cache miss) when the
        cached one is missing or too small — or ``None`` if the model
        does not compile at that shape.
        """
        key = self._key(x)
        with self._lock:
            if key in self._unsupported:
                return None
            compiled = self._graphs.get(key)
            if compiled is not None and rows <= compiled.capacity:
                _metrics().counter("compile.cache_hits").inc()
                return compiled
            _metrics().counter("compile.cache_misses").inc()
            capacity = rows if compiled is None else max(rows, 2 * compiled.capacity)
            try:
                grown = self._compile((capacity,) + tuple(x.shape[1:]), x.dtype)
            except ModuleStateError:
                return None
            except UnsupportedOpError:
                self._unsupported.add(key)
                return None
            self._graphs[key] = grown
        if compiled is not None:
            compiled.release()
        return grown

    def _eligible(self, x: np.ndarray) -> bool:
        # Inference compilation covers eval mode only; a model in
        # training mode runs the tape.  An empty or 0-d batch has no
        # rows to plan.
        return not getattr(self.model, "training", False) and x.ndim > 0 and len(x) > 0

    def reserve(self, x, capacity: int) -> bool:
        """Compile for ``x``'s per-sample shape and dtype at ``capacity``
        rows ahead of traffic, without running anything.

        ``x`` is any batch with the shape and dtype later runs will
        have.  The arena is allocated but not touched, so reserving a
        large capacity costs address space, not resident memory, until
        runs actually use it.  Returns whether the compiled path is
        available (``False``: runs will fall back to eager).
        """
        x = _as_array(x)
        if not (_State.enabled and self._eligible(x)):
            return False
        compiled = self._graph_for(x, capacity)
        if compiled is None:
            return False
        compiled.materialize()
        return True

    # -- execution ------------------------------------------------------
    def try_run(self, x: np.ndarray) -> Optional[Tuple[np.ndarray, ...]]:
        """Run compiled if possible; ``None`` means "use your eager path".

        ``x`` is coerced exactly like ``Tensor(x)`` would coerce it, so
        the compiled run sees the same array the eager fallback would.
        """
        if not _State.enabled:
            return None
        x = _as_array(x)
        if not self._eligible(x):
            _metrics().counter("compile.fallbacks").inc()
            return None
        # Steady-state fast path: dict reads are atomic under the GIL,
        # so cache hits skip the lock entirely.
        compiled = self._graphs.get(self._key(x))
        if compiled is not None and len(x) <= compiled.capacity:
            _metrics().counter("compile.cache_hits").inc()
            return compiled.run(x)
        compiled = self._graph_for(x, len(x))
        if compiled is None:
            _metrics().counter("compile.fallbacks").inc()
            return None
        return compiled.run(x)

    def __call__(self, x) -> Tuple[np.ndarray, ...]:
        """Run the model's compiled inference function on ``x``.

        When the graph cannot run, computes the same function eagerly
        (under no tape): the registered factory's eager twin, or
        ``model(x)`` for a plain ``Module``.  Either way the result is
        the tuple of plain output arrays the graph defines.
        """
        data = x.data if isinstance(x, Tensor) else _as_array(x)
        outputs = self.try_run(data)
        if outputs is not None:
            return outputs
        registered = _GRAPH_FACTORIES.get(type(self.model))
        eager = _forward_outputs if registered is None else registered[1]
        with no_grad():
            return eager(self.model, Tensor(data))

    # -- bookkeeping ----------------------------------------------------
    @property
    def graphs(self) -> Dict[Tuple, CompiledGraph]:
        return dict(self._graphs)

    def release(self) -> int:
        """Release every compiled arena; returns total bytes freed."""
        with self._lock:
            return sum(compiled.release() for compiled in self._graphs.values())

    def __getstate__(self):  # pragma: no cover - guard, not a feature
        raise TypeError(
            "CompiledModule is process-local and not picklable; "
            "pickle the underlying model instead"
        )


def compile_module(model) -> CompiledModule:
    """Compile ``model`` for repeated inference (the ``nn.compile`` call)."""
    return CompiledModule(model)


#: Per-model compiled wrappers, created on demand by the predict paths.
#: Weakly keyed on the model so dropping it drops its compiled graphs.
#: Never pickled (each process builds its own).
_MODULE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_MODULE_CACHE_LOCK = threading.Lock()


def compiled_for(model) -> CompiledModule:
    """The process-local :class:`CompiledModule` for ``model``: one
    cached wrapper per model, so repeated calls return the same object."""
    with _MODULE_CACHE_LOCK:
        compiled = _MODULE_CACHE.get(model)
        if compiled is None:
            compiled = CompiledModule(model)
            _MODULE_CACHE[model] = compiled
        return compiled


def release_compiled() -> int:
    """Release every cached compiled arena (serve reclaim hook)."""
    with _MODULE_CACHE_LOCK:
        modules = list(_MODULE_CACHE.values())
    return sum(compiled.release() for compiled in modules)
