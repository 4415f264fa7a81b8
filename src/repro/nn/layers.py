"""Core trainable layers: convolution, fully-connected, flatten, dropout.

``Conv2d`` and ``Linear`` are the two layer types that a ReRAM accelerator
maps onto crossbars.  Both expose a ``compute_backend`` attribute: when it is
``None`` the layer computes its output with NumPy matmuls; when the PIM
simulator attaches a backend (any object implementing ``conv2d``/``linear``
with the same signature) the forward pass is routed through the crossbar +
ADC models instead.  Training always uses the NumPy path.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, new_rng


class ComputeBackend(Protocol):
    """Protocol for objects that can replace the MVM datapath of a layer."""

    def conv2d(
        self,
        layer: "Conv2d",
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        ...  # pragma: no cover - protocol definition

    def linear(
        self,
        layer: "Linear",
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
    ) -> np.ndarray:
        ...  # pragma: no cover - protocol definition


class Conv2d(Module):
    """2-D convolution layer (NCHW activations, ``(F, C, KH, KW)`` weights)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = F.as_pair(kernel_size, "kernel_size")
        self.stride = F.as_pair(stride, "stride")
        self.padding = F.as_pair(padding, "padding")
        kh, kw = self.kernel_size
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kh, kw), rng=new_rng(rng))
        )
        self.bias = Parameter(init.zeros(out_channels)) if bias else None
        self.compute_backend: Optional[ComputeBackend] = None
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        if self.compute_backend is not None and not self.training:
            return self.compute_backend.conv2d(
                self, x, self.weight.data, bias, self.stride, self.padding
            )
        out, cols, _ = F.conv2d_forward(
            x, self.weight.data, bias, self.stride, self.padding, arrays=self.step_arrays()
        )
        if self.training:
            self._cache = (cols, x.shape)
        return out

    def discard_input_grad(self) -> None:
        """Skip the input gradient in the backward of the last forward.

        :class:`repro.nn.Trainer` calls this for the layer that received the
        training batch: nothing reads the batch's gradient, so that
        ``backward`` returns ``None`` without its ``grad @ W`` GEMM and
        ``col2im``.  The next forward computes it again.
        """
        if self._cache is not None:
            self._cache = (self._cache[0], None)

    def backward(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("Conv2d.backward called before a training forward pass")
        cols, x_shape = self._cache
        self._cache = None
        # The input gradient's GEMM writes over the consumed ``cols``.
        grad_x, grad_w, grad_b = F.conv2d_backward(
            grad_out, x_shape, cols, self.weight.data, self.stride, self.padding,
            with_bias=self.bias is not None, arrays=self.step_arrays(),
        )
        self.weight.grad += grad_w
        if grad_b is not None:
            self.bias.grad += grad_b
        return grad_x

    def output_shape(self, input_hw: Tuple[int, int]) -> Tuple[int, int]:
        """Spatial output size for an ``(H, W)`` input — used by the mapper."""
        h, w = input_hw
        oh = F.conv_output_size(h, self.kernel_size[0], self.stride[0], self.padding[0])
        ow = F.conv_output_size(w, self.kernel_size[1], self.stride[1], self.padding[1])
        return oh, ow

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, bias={self.bias is not None})"
        )


class Linear(Module):
    """Fully-connected layer: ``y = x @ W.T + b`` with ``W`` of shape (out, in)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), rng=new_rng(rng))
        )
        self.bias = Parameter(init.zeros(out_features)) if bias else None
        self.compute_backend: Optional[ComputeBackend] = None
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        if self.compute_backend is not None and not self.training:
            return self.compute_backend.linear(self, x, self.weight.data, bias)
        out = F.linear_forward(x, self.weight.data, bias, arrays=self.step_arrays())
        if self.training:
            self._cache = x
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("Linear.backward called before a training forward pass")
        x, self._cache = self._cache, None
        grad_x, grad_w, grad_b = F.linear_backward(
            grad_out, x, self.weight.data, arrays=self.step_arrays()
        )
        self.weight.grad += grad_w
        if self.bias is not None:
            self.bias.grad += grad_b
        return grad_x

    def __repr__(self) -> str:
        return (
            f"Linear({self.in_features}, {self.out_features}, "
            f"bias={self.bias is not None})"
        )


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("Flatten.backward called before forward")
        return grad_out.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5, rng: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = new_rng(rng)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            return grad_out
        if self._mask is None:
            raise RuntimeError("Dropout.backward called before a training forward pass")
        mask, self._mask = self._mask, None
        return grad_out * mask
