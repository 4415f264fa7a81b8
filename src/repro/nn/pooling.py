"""Pooling layers (max, average, global average)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module


class MaxPool2d(Module):
    """Max pooling over non-overlapping (or strided) windows."""

    def __init__(self, kernel_size, stride=None) -> None:
        super().__init__()
        self.kernel_size = F.as_pair(kernel_size, "kernel_size")
        self.stride = F.as_pair(stride, "stride") if stride is not None else self.kernel_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, argmax, _ = F.max_pool2d_forward(
            x, self.kernel_size, self.stride, arrays=self.step_arrays()
        )
        if self.training:
            self._cache = (argmax, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("MaxPool2d.backward called before a training forward pass")
        (argmax, x_shape), self._cache = self._cache, None
        return F.max_pool2d_backward(
            grad_out, argmax, x_shape, self.kernel_size, self.stride, arrays=self.step_arrays()
        )


class AvgPool2d(Module):
    """Average pooling over windows."""

    def __init__(self, kernel_size, stride=None) -> None:
        super().__init__()
        self.kernel_size = F.as_pair(kernel_size, "kernel_size")
        self.stride = F.as_pair(stride, "stride") if stride is not None else self.kernel_size
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = F.avg_pool2d_forward(x, self.kernel_size, self.stride)
        self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("AvgPool2d.backward called before forward")
        return F.avg_pool2d_backward(grad_out, self._x_shape, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Average over the entire spatial extent, producing ``(N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("GlobalAvgPool2d.backward called before forward")
        n, c, h, w = self._x_shape
        grad = grad_out[:, :, None, None] / (h * w)
        out = self.step_arrays().empty(self._x_shape, grad.dtype)
        out[...] = grad
        return out
