"""The optimizer: Adam, which the paper trains with.

:class:`Optimizer` holds the parameter list, the step count, gradient
clearing and the state round trip; :class:`Adam` holds the update rule.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .layers.base import Parameter

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer over a list of parameters.

    Subclasses implement :meth:`_update` for a single parameter given
    its gradient.
    """

    #: Names of the per-parameter slot dictionaries a subclass persists
    #: in :meth:`state_dict`; ``"m"`` maps to the ``self._m`` dict.
    _slot_names: tuple = ()

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self._step_count = 0

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        self._step_count += 1
        for index, param in enumerate(self.parameters):
            if param.grad is not None:
                self._update(index, param, param.grad)

    def _update(self, index: int, param: Parameter, grad: np.ndarray) -> None:
        raise NotImplementedError

    def _slot(self, name: str) -> Dict[int, np.ndarray]:
        return getattr(self, f"_{name}")

    def state_dict(self) -> Dict[str, object]:
        """Serializable optimizer state: learning rate, step count and
        every per-parameter slot buffer (``"<slot>.<param_index>"``)."""
        state: Dict[str, object] = {"step_count": self._step_count, "lr": self.lr}
        for name in self._slot_names:
            for index, array in self._slot(name).items():
                state[f"{name}.{index}"] = array.copy()
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Load :meth:`state_dict` output.

        Every key, slot index and slot shape is checked before anything
        is assigned, so a rejected state leaves the optimizer as it was.
        States saved while optimizers took a ``weight_decay`` carry that
        key; they load when it is 0, the only value any caller set.
        """
        # Scalars may arrive as 0-d numpy arrays from an npz round-trip.
        step_count = int(state["step_count"])
        lr = float(state["lr"])
        slots: Dict[str, Dict[int, np.ndarray]] = {name: {} for name in self._slot_names}
        for key, value in state.items():
            if key in ("step_count", "lr"):
                continue
            if key == "weight_decay":
                if float(value) != 0.0:
                    raise ValueError(
                        f"state has weight_decay {float(value)}; "
                        "this optimizer applies no weight decay"
                    )
                continue
            name, _, index = key.partition(".")
            if name not in slots or not index.isdecimal():
                raise KeyError(f"unexpected key in optimizer state: {key!r}")
            index = int(index)
            if index >= len(self.parameters):
                raise ValueError(
                    f"slot {key!r} refers to parameter {index}, but the "
                    f"optimizer holds {len(self.parameters)} parameters"
                )
            param = self.parameters[index]
            array = np.asarray(value)
            if array.shape != param.data.shape:
                raise ValueError(
                    f"slot {key!r} shape {array.shape} does not match "
                    f"parameter shape {param.data.shape}"
                )
            slots[name][index] = array.astype(param.data.dtype, copy=True)
        self._step_count = step_count
        self.lr = lr
        for name, loaded in slots.items():
            slot = self._slot(name)
            slot.clear()
            slot.update(loaded)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimizer used in the paper."""

    _slot_names = ("m", "v")

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def _update(self, index: int, param: Parameter, grad: np.ndarray) -> None:
        m = self._m.get(index, 0.0)
        v = self._v.get(index, 0.0)
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        self._m[index] = m
        self._v[index] = v
        t = self._step_count
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
