"""Activation layers.

ReLU matters beyond accuracy here: rectified activations are exactly what
makes the crossbar bit-line distribution skewed towards zero (paper
Section III-A) — most input bits are zero, so most partial sums are small.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        arrays = self.step_arrays()
        mask = np.greater(x, 0, out=arrays.like(x, dtype=bool))
        if self.training:
            self._mask = mask
        return np.multiply(x, mask, out=arrays.like(x, mask))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("ReLU.backward called before a training forward pass")
        mask, self._mask = self._mask, None
        arrays = self.step_arrays()
        out = arrays.like(grad_out, mask)
        mask = F.laid_out(arrays, mask, F.elementwise_axes(grad_out, mask))
        return np.multiply(grad_out, mask, out=out)


class LeakyReLU(Module):
    """Leaky rectified linear unit with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        if self.training:
            self._mask = mask
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("LeakyReLU.backward called before a training forward pass")
        mask, self._mask = self._mask, None
        return np.where(mask, grad_out, self.negative_slope * grad_out)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-x))
        if self.training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("Sigmoid.backward called before a training forward pass")
        out, self._out = self._out, None
        return grad_out * out * (1.0 - out)


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        if self.training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("Tanh.backward called before a training forward pass")
        out, self._out = self._out, None
        return grad_out * (1.0 - out**2)
