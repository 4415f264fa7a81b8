"""Normalisation layers (2-D batch normalisation)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of NCHW tensors.

    Running statistics are kept as buffers so that a trained model can be
    evaluated (and mapped to crossbars) deterministically.  In the paper's
    datapath, BatchNorm is folded into the digital post-processing after the
    shift-and-add stage, so it stays a float operation in the PIM simulator.

    The input is centred once: the variance is ``np.var``'s own evaluation
    (square the centred array, sum, divide by the count) on that array, and
    x̂ and the output reuse it in place.  Every reduction and every element
    is bit-identical to ``np.var`` and the textbook expressions, on any input
    layout (``tests/harness/reference_nn.py`` keeps those as the reference).  The
    cached x̂ is dropped, and reused as scratch, by the ``backward`` that
    consumes it.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.weight = Parameter(init.ones(num_features))
        self.bias = Parameter(init.zeros(num_features))
        self._buffers = {
            "running_mean": np.zeros(num_features, dtype=np.float64),
            "running_var": np.ones(num_features, dtype=np.float64),
        }
        self.running_mean = self._buffers["running_mean"]
        self.running_var = self._buffers["running_var"]
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
        else:
            mean = self._buffers["running_mean"]
        centred = x - mean[None, :, None, None]
        # The output's buffer: x_hat itself in eval mode, else the squares
        # (np.var(x, axis) evaluated on the same centred array).
        scratch = centred
        if self.training:
            n, _, h, w = x.shape
            scratch = np.square(centred)
            var = scratch.sum(axis=(0, 2, 3)) / (n * h * w)
            self._buffers["running_mean"] = (
                (1 - self.momentum) * self._buffers["running_mean"] + self.momentum * mean
            )
            self._buffers["running_var"] = (
                (1 - self.momentum) * self._buffers["running_var"] + self.momentum * var
            )
            self.running_mean = self._buffers["running_mean"]
            self.running_var = self._buffers["running_var"]
        else:
            var = self._buffers["running_var"]

        std_inv = 1.0 / np.sqrt(var + self.eps)
        x_hat = centred
        x_hat *= std_inv[None, :, None, None]
        out = np.multiply(self.weight.data[None, :, None, None], x_hat, out=scratch)
        out += self.bias.data[None, :, None, None]
        if self.training:
            self._cache = (x_hat, std_inv, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("BatchNorm2d.backward called before a training forward")
        (x_hat, std_inv, x_shape), self._cache = self._cache, None
        n, _, h, w = x_shape
        m = n * h * w

        # ``product`` has the layout numpy gives any elementwise result of
        # grad_out (or grad_xhat, which shares its layout) with x_hat, so the
        # second product and grad_x reuse its buffer.
        product = grad_out * x_hat
        self.weight.grad += product.sum(axis=(0, 2, 3))
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))

        gamma = self.weight.data[None, :, None, None]
        grad_xhat = grad_out * gamma
        sum_grad_xhat = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
        np.multiply(grad_xhat, x_hat, out=product)
        sum_grad_xhat_xhat = product.sum(axis=(0, 2, 3), keepdims=True)
        # std_inv / m * (m * grad_xhat - sum_grad_xhat - x_hat * sum_grad_xhat_xhat),
        # one operation at a time in place.
        grad_xhat *= m
        grad_xhat -= sum_grad_xhat
        x_hat *= sum_grad_xhat_xhat
        grad_x = np.subtract(grad_xhat, x_hat, out=product)
        grad_x *= std_inv[None, :, None, None] / m
        return grad_x

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features}, eps={self.eps}, momentum={self.momentum})"
