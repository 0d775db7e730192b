"""Module and Parameter abstractions.

A :class:`Module` is a named container of :class:`Parameter` tensors and
child modules, with train/eval mode propagation and a recursive
``state_dict`` for serialization — the minimal subset of the familiar
PyTorch ``nn.Module`` contract that the reproduction needs.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor

__all__ = ["Parameter", "Module", "HookHandle"]

#: Signature of a module hook: ``hook(module, event, seconds)`` where
#: ``event`` is ``"forward"`` (one call per forward pass) or
#: ``"backward"`` (one call per tape operation owned by the module).
ModuleHook = Callable[["Module", str, float], None]


class HookHandle:
    """Detaches a hook registered with :meth:`Module.register_hook`.

    Removing the last hook restores the module's unhooked fast path, so
    an uninstalled profiler leaves zero per-call overhead behind.
    """

    def __init__(self, module: "Module", key: int) -> None:
        self._module = module
        self._key = key

    def remove(self) -> None:
        hooks = self._module.__dict__.get("_hooks")
        if hooks is not None:
            hooks.pop(self._key, None)
            if not hooks:
                object.__setattr__(self._module, "_hooks", None)

    @property
    def active(self) -> bool:
        hooks = self._module.__dict__.get("_hooks")
        return bool(hooks) and self._key in hooks


def _timed_backward(
    fn: Callable[[np.ndarray], None], module: "Module", hooks: tuple
) -> Callable[[np.ndarray], None]:
    """Wrap one backward closure so its wall-clock reports to ``hooks``."""

    def timed(grad: np.ndarray) -> None:
        started = time.perf_counter()
        fn(grad)
        elapsed = time.perf_counter() - started
        for hook in hooks:
            hook(module, "backward", elapsed)

    return timed


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network layers and models.

    Subclasses implement :meth:`forward`; parameters assigned as
    attributes (or inside child modules) are discovered automatically.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True
        self._hooks: "Optional[OrderedDict[int, ModuleHook]]" = None
        self._hook_counter = 0

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        if self.__dict__.get("_hooks"):
            return self._forward_hooked(args, kwargs)
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Timing hooks
    # ------------------------------------------------------------------
    def register_hook(self, hook: ModuleHook) -> HookHandle:
        """Attach a forward/backward timing hook to this module.

        ``hook(module, event, seconds)`` is invoked with
        ``event="forward"`` once per forward pass (wall-clock of the
        whole :meth:`forward` call), and ``event="backward"`` once per
        tape operation created by that forward pass when gradients flow
        back through it.  Summing the backward events therefore yields
        the module's total backward time.

        Hooks are only consulted on the ``__call__`` path; with no hook
        registered the forward fast path performs no timing calls.
        Returns a :class:`HookHandle` whose ``remove()`` detaches it.
        """
        if not callable(hook):
            raise TypeError("hook must be callable")
        hooks = self.__dict__.get("_hooks")
        if hooks is None:
            hooks = OrderedDict()
            object.__setattr__(self, "_hooks", hooks)
        key = self.__dict__.get("_hook_counter", 0)
        object.__setattr__(self, "_hook_counter", key + 1)
        hooks[key] = hook
        return HookHandle(self, key)

    def remove_hooks(self) -> None:
        """Detach every hook registered on this module (not children)."""
        object.__setattr__(self, "_hooks", None)

    def _forward_hooked(self, args: tuple, kwargs: dict):
        hooks = tuple(self._hooks.values())
        started = time.perf_counter()
        output = self.forward(*args, **kwargs)
        elapsed = time.perf_counter() - started
        for hook in hooks:
            hook(self, "forward", elapsed)
        self._instrument_backward(args, kwargs, output, hooks)
        return output

    def _instrument_backward(self, args: tuple, kwargs: dict, output, hooks: tuple) -> None:
        """Wrap the backward closures of tensors this forward created.

        Walks the tape from the output(s) back to the call's input
        tensors; every operation in between belongs to this module, so
        timing its backward closure attributes backward cost here.
        Under ``no_grad`` the walk terminates immediately (no parents).
        """
        stop = {id(a) for a in args if isinstance(a, Tensor)}
        stop.update(id(v) for v in kwargs.values() if isinstance(v, Tensor))
        outputs = output if isinstance(output, (tuple, list)) else (output,)
        stack = [t for t in outputs if isinstance(t, Tensor) and id(t) not in stop]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None:
                node._backward = _timed_backward(node._backward, self, hooks)
            for parent in node._parents:
                if id(parent) not in seen and id(parent) not in stop:
                    stack.append(parent)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters, depth-first, in stable order."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (compiled inference runs only
        in eval mode)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Dtype control
    # ------------------------------------------------------------------
    def astype(self, dtype) -> "Module":
        """Cast every parameter and gradient in place to ``dtype``.

        The substrate runs float32 by default; casting to ``np.float64``
        is the opt-in verification mode (tight gradchecks and parity
        references — pair it with
        :class:`~repro.nn.tensor.default_dtype` so inputs and
        intermediate coercions match).  Returns ``self`` for chaining.
        """
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise TypeError(f"Module.astype requires a floating dtype, got {dtype}")
        for param in self.parameters():
            param.data = param.data.astype(dtype)
            if param.grad is not None:
                param.grad = param.grad.astype(dtype)
        return self

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of dotted parameter names to arrays."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters from :meth:`state_dict` output.

        Every key and shape is checked before any parameter is assigned,
        so a rejected state leaves the module exactly as it was.
        """
        params = dict(self.named_parameters())
        for key in state:
            if key not in params:
                raise KeyError(f"unexpected key in state dict: {key!r}")
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for key, param in params.items():
            if param.shape != state[key].shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: "
                    f"model has {param.shape}, state has {state[key].shape}"
                )
        for key, param in params.items():
            param.data = np.array(state[key], dtype=param.dtype, order="C")

    def __repr__(self) -> str:
        child_lines = []
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            child_lines.append(f"  ({name}): {child_repr}")
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"
