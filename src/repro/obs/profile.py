"""Per-layer forward/backward profiling via ``Module.register_hook``.

:class:`LayerProfiler` installs timing hooks on every *leaf* module of
a model (Conv2D, Dense, ReLU, ...), accumulates wall-clock per layer
for both directions, and renders a table sorted by total time — which
is how the ``im2col`` Conv2D hot spots show up by name instead of as a
flat "training is slow".

The hooks only exist while the profiler is installed; ``remove()`` (or
using the profiler as a context manager) restores the unhooked forward
fast path, so profiling cost is strictly opt-in.

>>> from repro.obs.profile import LayerProfiler
>>> profiler = LayerProfiler()
>>> with profiler.attach(model):            # doctest: +SKIP
...     loss = criterion(model(x)); loss.backward()
>>> print(profiler.format_table())          # doctest: +SKIP
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..nn.layers.base import HookHandle, Module

__all__ = ["LayerStats", "LayerProfiler", "profile_model"]


class LayerStats:
    """Accumulated timing for one module."""

    __slots__ = ("name", "module_type", "forward_seconds", "backward_seconds",
                 "forward_calls", "backward_ops")

    def __init__(self, name: str, module_type: str) -> None:
        self.name = name
        self.module_type = module_type
        self.forward_seconds = 0.0
        self.backward_seconds = 0.0
        self.forward_calls = 0
        self.backward_ops = 0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.module_type,
            "forward_s": self.forward_seconds,
            "backward_s": self.backward_seconds,
            "total_s": self.total_seconds,
            "forward_calls": self.forward_calls,
            "backward_ops": self.backward_ops,
        }


def _named_leaf_modules(model: Module) -> Iterator[Tuple[str, Module]]:
    """Yield ``(dotted_name, module)`` for modules with no children."""

    def walk(module: Module, prefix: str) -> Iterator[Tuple[str, Module]]:
        children = module._modules
        if not children:
            yield (prefix or type(module).__name__, module)
            return
        for name, child in children.items():
            yield from walk(child, f"{prefix}.{name}" if prefix else name)

    yield from walk(model, "")


class LayerProfiler:
    """Installs per-layer timing hooks and aggregates the results.

    Only modules without children are hooked: hooking composite modules
    too would count their children's time twice in the totals.
    """

    def __init__(self) -> None:
        self._stats: "Dict[int, LayerStats]" = {}
        self._handles: List[HookHandle] = []
        self._order: List[int] = []

    # -- install / remove ----------------------------------------------
    def install(self, model: Module) -> "LayerProfiler":
        """Register hooks on ``model``; may be called for several models."""
        for name, module in _named_leaf_modules(model):
            key = id(module)
            if key not in self._stats:
                self._stats[key] = LayerStats(name, type(module).__name__)
                self._order.append(key)
            self._handles.append(module.register_hook(self._record))
        return self

    def remove(self) -> None:
        """Detach every hook this profiler installed."""
        for handle in self._handles:
            handle.remove()
        self._handles = []

    @contextmanager
    def attach(self, model: Module) -> Iterator["LayerProfiler"]:
        """Context manager: install on entry, remove on exit."""
        self.install(model)
        try:
            yield self
        finally:
            self.remove()

    def reset(self) -> None:
        """Clear accumulated numbers but keep hooks installed."""
        for stats in self._stats.values():
            stats.forward_seconds = 0.0
            stats.backward_seconds = 0.0
            stats.forward_calls = 0
            stats.backward_ops = 0

    # -- hook callback --------------------------------------------------
    def _record(self, module: Module, event: str, seconds: float) -> None:
        stats = self._stats.get(id(module))
        if stats is None:  # hooked module not seen at install time
            return
        if event == "forward":
            stats.forward_seconds += seconds
            stats.forward_calls += 1
        else:
            stats.backward_seconds += seconds
            stats.backward_ops += 1

    # -- reporting ------------------------------------------------------
    @property
    def layers(self) -> List[LayerStats]:
        """Stats in model order (install order of first sighting)."""
        return [self._stats[key] for key in self._order]

    def total_seconds(self) -> float:
        return sum(s.total_seconds for s in self.layers)

    def by_total_time(self) -> List[LayerStats]:
        return sorted(self.layers, key=lambda s: s.total_seconds, reverse=True)

    def as_records(self) -> List[Dict[str, object]]:
        """JSON-safe per-layer records (for ``RunLogger.log``)."""
        return [s.as_dict() for s in self.layers]

    def format_table(self, sort_by_time: bool = True, top: Optional[int] = None) -> str:
        """Render the per-layer table.

        Columns: layer name, type, forward/backward/total seconds,
        share of total profiled time, forward call count.
        """
        rows = self.by_total_time() if sort_by_time else self.layers
        if top is not None:
            rows = rows[:top]
        total = self.total_seconds() or 1.0
        header = (
            f"{'layer':<28} {'type':<12} {'fwd_s':>9} {'bwd_s':>9} "
            f"{'total_s':>9} {'share':>7} {'calls':>7}"
        )
        lines = [header, "-" * len(header)]
        for stats in rows:
            lines.append(
                f"{stats.name:<28} {stats.module_type:<12} "
                f"{stats.forward_seconds:>9.4f} {stats.backward_seconds:>9.4f} "
                f"{stats.total_seconds:>9.4f} "
                f"{stats.total_seconds / total:>6.1%} {stats.forward_calls:>7d}"
            )
        lines.append(
            f"{'TOTAL':<28} {'':<12} "
            f"{sum(s.forward_seconds for s in self.layers):>9.4f} "
            f"{sum(s.backward_seconds for s in self.layers):>9.4f} "
            f"{self.total_seconds():>9.4f} {'100.0%':>7} {'':>7}"
        )
        return "\n".join(lines)


@contextmanager
def profile_model(model: Module) -> Iterator[LayerProfiler]:
    """Shorthand: ``with profile_model(m) as prof: ...`` then read ``prof``."""
    profiler = LayerProfiler()
    with profiler.attach(model):
        yield profiler
