"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the :mod:`repro.nn` deep-learning
substrate.  It provides a :class:`Tensor` type that wraps a
``numpy.ndarray`` and records the operations applied to it on a dynamic
tape, so that calling :meth:`Tensor.backward` propagates gradients to
every tensor created with ``requires_grad=True``.

The design mirrors the classic define-by-run autograd found in PyTorch,
scaled down to exactly what the wafer-map classification models need:

* elementwise arithmetic with full numpy broadcasting,
* matrix multiplication,
* reductions (``sum``, ``mean``, ``max``),
* shape manipulation (``reshape``, ``transpose``, slicing, concat),
* elementwise nonlinearities (``exp``, ``log``, ``relu``, ``sigmoid``),
* numerically stable ``log_softmax`` and ``softmax``.

Convolution and pooling live in :mod:`repro.nn.functional` and plug into
the same tape via the same primitives used here.

Example
-------
>>> from repro.nn.tensor import Tensor
>>> x = Tensor([[1.0, 2.0]], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad.tolist()
[[2.0, 4.0]]
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "stack",
    "concatenate",
]

ArrayLike = Union[np.ndarray, float, int, list, tuple]


class _GradModeState(threading.local):
    """Per-thread switch that disables tape recording inside ``no_grad``.

    Per thread, so a serving lane inside ``inference_mode`` never turns
    off the tape of a training thread beside it.  Every thread starts
    with recording on (the class attribute is each thread's default).
    """

    enabled = True


_GradMode = _GradModeState()


class _DtypeState:
    """Process-wide default floating dtype for new tensors."""

    dtype = np.dtype(np.float32)


class no_grad:
    """Context manager that disables gradient tracking.

    Used during evaluation and data generation, where building the tape
    would waste time and memory.

    >>> with no_grad():
    ...     z = x * 2          # doctest: +SKIP
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GradMode.enabled = self._prev


#: The spelling every batched ``predict`` uses; eager inference is the
#: tape's forward with recording off, so this is exactly ``no_grad``.
inference_mode = no_grad


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded on the tape."""
    return _GradMode.enabled


def get_default_dtype() -> np.dtype:
    """The floating dtype new tensors are coerced to (float32 unless changed)."""
    return _DtypeState.dtype


def set_default_dtype(dtype) -> None:
    """Set the process-wide default floating dtype for new tensors.

    The substrate runs in float32 by default; float64 is the opt-in
    verification mode (tight gradchecks, parity references).  Prefer the
    scoped :class:`default_dtype` context over calling this directly.
    """
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise TypeError(f"default dtype must be floating, got {dtype}")
    _DtypeState.dtype = dtype


class default_dtype:
    """Context manager scoping :func:`set_default_dtype`.

    >>> with default_dtype(np.float64):
    ...     x = Tensor([1.0])    # doctest: +SKIP
    """

    def __init__(self, dtype) -> None:
        self._dtype = np.dtype(dtype)

    def __enter__(self) -> "default_dtype":
        self._prev = _DtypeState.dtype
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc) -> None:
        _DtypeState.dtype = self._prev


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if dtype is None:
        dtype = _DtypeState.dtype
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, reversing numpy broadcasting.

    Broadcasting can prepend axes and stretch size-1 axes; the adjoint of
    a broadcast is a sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload; converted to the default floating dtype
        (float32 unless changed via :func:`default_dtype`).
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    dtype:
        Explicit dtype for the payload, overriding the process default.

    Notes
    -----
    Tensors form a DAG: each tensor produced by an operation keeps
    references to its parents and a backward closure.  ``backward()``
    topologically sorts the DAG and applies the chain rule.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        dtype=None,
    ) -> None:
        self.data: np.ndarray = _as_array(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and _GradMode.enabled
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Return a detached copy cast to ``dtype``.

        Casting is an inference/verification operation, so the result is
        cut from the tape (gradients do not flow through ``astype``).
        """
        return Tensor(self.data.astype(dtype), requires_grad=False)

    def _recording(self) -> bool:
        """Whether an op on this tensor must build a backward closure."""
        return _GradMode.enabled and self.requires_grad

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Tape plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a tensor node wired into the tape (if grad is enabled)."""
        out = Tensor(data)
        if _GradMode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar tensors; required
            for non-scalars.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be specified for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)

        topo: List[Tensor] = []
        visited = set()

        def visit(node: Tensor) -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    topo.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free the tape as we go: interior nodes keep their grads
                # only while needed.
                node._backward = None
                node._parents = ()

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        # One pass in the input's memory order; ReLU(-inf) is 0 on both
        # paths and the tape retains only the mask.
        out_data = np.maximum(self.data, 0)
        if not self._recording():
            return Tensor(out_data)
        mask = out_data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60))),
            np.exp(np.clip(self.data, -60, 60)) / (1.0 + np.exp(np.clip(self.data, -60, 60))),
        ).astype(self.data.dtype)
        if not self._recording():
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable ``log(softmax(x))`` along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        log_sum = np.log(exp.sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        if not self._recording():
            return Tensor(out_data)
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        if not self._recording():
            shifted = self.data - self.data.max(axis=axis, keepdims=True)
            np.exp(shifted, out=shifted)
            shifted /= shifted.sum(axis=axis, keepdims=True)
            return Tensor(shifted)
        return self.log_softmax(axis=axis).exp()

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.shape)]
                g = g.reshape(shape)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.shape)]
                g = g.reshape(shape)
                o = o.reshape(shape)
            mask = (self.data == o).astype(self.data.dtype)
            # Split gradient equally among ties, matching subgradient choice.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tensors, backward)
