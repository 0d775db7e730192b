"""A self-contained numpy deep-learning framework.

This package is the substrate the paper's models are built on: since no
GPU deep-learning stack is available offline, the reproduction
implements reverse-mode autodiff and exactly the operations the paper's
models run directly on numpy: the Table I CNN (conv, ReLU, 2x2
max-pool, dense, softmax cross-entropy), the selection head (dense,
ReLU, sigmoid), the Fig. 3 auto-encoder (conv, transposed conv,
upsampling, sigmoid, mean squared error), and Adam.

Quick tour
----------
>>> import numpy as np
>>> from repro import nn
>>> rng = np.random.default_rng(0)
>>> model = nn.Sequential(
...     nn.Conv2D(1, 4, 3, rng=rng), nn.ReLU(), nn.MaxPool2D(2),
...     nn.Flatten(), nn.Dense(4 * 15 * 15, 3, rng=rng),
... )
>>> x = nn.Tensor(rng.normal(size=(2, 1, 32, 32)).astype("float32"))
>>> logits = model(x)
>>> loss = nn.cross_entropy(logits, np.array([0, 2]))
>>> loss.backward()
"""

from . import functional, init, losses, optim
from . import compile  # noqa: A004 - nn.compile(model) is the entry point
from .layers import (
    Conv2D,
    ConvTranspose2D,
    Dense,
    Flatten,
    HookHandle,
    MaxPool2D,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    UpSample2D,
)
from .losses import cross_entropy, mse_loss, one_hot
from .optim import Adam
from .serialization import load_model, load_optimizer, save_model, save_optimizer
from .tensor import (
    Tensor,
    concatenate,
    default_dtype,
    get_default_dtype,
    inference_mode,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    stack,
)

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "stack",
    "concatenate",
    "compile",
    "functional",
    "init",
    "losses",
    "optim",
    "Module",
    "Parameter",
    "HookHandle",
    "Sequential",
    "Conv2D",
    "ConvTranspose2D",
    "Dense",
    "Flatten",
    "MaxPool2D",
    "UpSample2D",
    "ReLU",
    "Sigmoid",
    "cross_entropy",
    "mse_loss",
    "one_hot",
    "Adam",
    "save_model",
    "save_optimizer",
    "load_optimizer",
    "load_model",
]
