"""Neural-network layers for the numpy deep-learning substrate."""

from .activations import ReLU, Sigmoid
from .base import HookHandle, Module, Parameter
from .container import Sequential
from .conv import Conv2D, ConvTranspose2D
from .dense import Dense, Flatten
from .pooling import MaxPool2D, UpSample2D

__all__ = [
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
]
