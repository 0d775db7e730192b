"""A self-contained numpy deep-learning framework.

This package is the substrate the paper's models are built on: since no
GPU deep-learning stack is available offline, the reproduction
implements reverse-mode autodiff, convolutional layers, losses, and
optimizers directly on numpy.

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
    AvgPool2D,
    BatchNorm1D,
    BatchNorm2D,
    Conv2D,
    ConvTranspose2D,
    Dense,
    Dropout,
    Flatten,
    HookHandle,
    LeakyReLU,
    LogSoftmax,
    MaxPool2D,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
    UpSample2D,
)
from .losses import binary_cross_entropy, cross_entropy, mse_loss, nll_loss, one_hot
from .optim import SGD, Adam, ConstantLR, CosineLR, ExponentialLR, RMSProp, StepLR
from .functional import train_scratch
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
    "AvgPool2D",
    "UpSample2D",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "LogSoftmax",
    "Dropout",
    "BatchNorm1D",
    "BatchNorm2D",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "binary_cross_entropy",
    "one_hot",
    "SGD",
    "Adam",
    "RMSProp",
    "ConstantLR",
    "StepLR",
    "ExponentialLR",
    "CosineLR",
    "save_model",
    "save_optimizer",
    "load_optimizer",
    "train_scratch",
    "load_model",
]
