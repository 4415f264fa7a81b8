"""Plain NCHW training kernels: the reference for ``repro.nn``'s identity rule.

``repro.nn`` trains with channels-last ``im2col``/``col2im`` buffers, a batch
norm that centres its input once, and no gradient that training discards.
Its rule is that every GEMM and reduction still sees the same operands in
the same layout, and every element is the same operation on the same values,
as the straightforward formulation below.  These functions are that
formulation, kept verbatim, and :func:`install` swaps them into ``repro.nn``
so a test can train the same model both ways in one process and compare the
weights byte for byte (on whichever BLAS kernel the process uses).  The
reference also allocates every array anew, as plain numpy does, instead of
writing into the step arrays that ``repro.nn`` reuses.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.functional import IntOrPair, as_pair, conv_output_size
from repro.nn.layers import Conv2d
from repro.nn.metrics import top1_accuracy
from repro.nn.module import Module
from repro.nn.normalization import BatchNorm2d
from repro.nn.trainer import EpochStats, Trainer


def pad_nchw(x: np.ndarray, padding: Tuple[int, int], value: float = 0.0) -> np.ndarray:
    """Zero-pad (or constant-pad) the spatial dimensions of an NCHW tensor."""
    ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant", constant_values=value
    )


def im2col(
    x: np.ndarray,
    kernel_size: IntOrPair,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
    pad_value: float = 0.0,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    if x.ndim != 4:
        raise ValueError(f"im2col expects NCHW input, got shape {x.shape}")
    kh, kw = as_pair(kernel_size, "kernel_size")
    sh, sw = as_pair(stride, "stride")
    ph, pw = as_pair(padding, "padding")

    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)

    xp = pad_nchw(x, (ph, pw), pad_value)
    # Strided view: (N, C, OH, OW, KH, KW) without copying.
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, oh, ow, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    # (N, OH, OW, C, KH, KW) -> (N*OH*OW, C*KH*KW)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: IntOrPair,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> np.ndarray:
    kh, kw = as_pair(kernel_size, "kernel_size")
    sh, sw = as_pair(stride, "stride")
    ph, pw = as_pair(padding, "padding")
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)

    expected_rows = n * oh * ow
    expected_cols = c * kh * kw
    if cols.shape != (expected_rows, expected_cols):
        raise ValueError(
            f"col2im expected shape {(expected_rows, expected_cols)}, got {cols.shape}"
        )

    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    windows = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        i_max = i + sh * oh
        for j in range(kw):
            j_max = j + sw * ow
            xp[:, :, i:i_max:sh, j:j_max:sw] += windows[:, :, :, :, i, j]
    if ph == 0 and pw == 0:
        return xp
    return xp[:, :, ph : ph + h, pw : pw + w]


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
    arrays=None,
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """``conv2d_forward``; ``arrays`` is ignored (every array is new)."""
    f, c, kh, kw = weight.shape
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(f, c * kh * kw)
    out = cols @ w_mat.T
    if bias is not None:
        out = out + bias
    n = x.shape[0]
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    return out, cols, (oh, ow)


def conv2d_backward(
    grad_out: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    cols: np.ndarray,
    weight: np.ndarray,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    f, c, kh, kw = weight.shape
    n, _, oh, ow = grad_out.shape
    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
    grad_bias = grad_mat.sum(axis=0)
    grad_weight = (grad_mat.T @ cols).reshape(f, c, kh, kw)
    grad_cols = grad_mat @ weight.reshape(f, c * kh * kw)
    grad_x = col2im(grad_cols, x_shape, (kh, kw), stride, padding)
    return grad_x, grad_weight, grad_bias


def conv_backward(self: Conv2d, grad_out: np.ndarray) -> np.ndarray:
    """``Conv2d.backward``: every gradient, cache kept."""
    if self._cache is None:
        raise RuntimeError("Conv2d.backward called before a training forward pass")
    cols, x_shape = self._cache
    grad_x, grad_w, grad_b = conv2d_backward(
        grad_out, x_shape, cols, self.weight.data, self.stride, self.padding
    )
    self.weight.grad += grad_w
    if self.bias is not None:
        self.bias.grad += grad_b
    return grad_x


def batchnorm_forward(self: BatchNorm2d, x: np.ndarray) -> np.ndarray:
    """``BatchNorm2d.forward`` with ``np.var`` and two centrings."""
    if x.ndim != 4 or x.shape[1] != self.num_features:
        raise ValueError(
            f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}"
        )
    if self.training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        self._buffers["running_mean"] = (
            (1 - self.momentum) * self._buffers["running_mean"] + self.momentum * mean
        )
        self._buffers["running_var"] = (
            (1 - self.momentum) * self._buffers["running_var"] + self.momentum * var
        )
        self.running_mean = self._buffers["running_mean"]
        self.running_var = self._buffers["running_var"]
    else:
        mean = self._buffers["running_mean"]
        var = self._buffers["running_var"]

    std_inv = 1.0 / np.sqrt(var + self.eps)
    x_hat = (x - mean[None, :, None, None]) * std_inv[None, :, None, None]
    out = (
        self.weight.data[None, :, None, None] * x_hat
        + self.bias.data[None, :, None, None]
    )
    if self.training:
        self._cache = (x_hat, std_inv, x.shape)
    return out


def batchnorm_backward(self: BatchNorm2d, grad_out: np.ndarray) -> np.ndarray:
    """``BatchNorm2d.backward`` with a temporary per operation."""
    if self._cache is None:
        raise RuntimeError("BatchNorm2d.backward called before a training forward")
    x_hat, std_inv, x_shape = self._cache
    n, _, h, w = x_shape
    m = n * h * w

    self.weight.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
    self.bias.grad += grad_out.sum(axis=(0, 2, 3))

    gamma = self.weight.data[None, :, None, None]
    grad_xhat = grad_out * gamma
    sum_grad_xhat = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_grad_xhat_xhat = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
    grad_x = (
        std_inv[None, :, None, None]
        / m
        * (m * grad_xhat - sum_grad_xhat - x_hat * sum_grad_xhat_xhat)
    )
    return grad_x


def train_epoch(self: Trainer, loader) -> EpochStats:
    """``Trainer.train_epoch`` computing the batch's input gradient too."""
    self.model.train()
    losses: List[float] = []
    accuracies: List[float] = []
    start = time.perf_counter()
    for images, labels in loader:
        self.optimizer.zero_grad()
        logits = self.model(images)
        loss = self.loss_fn(logits, labels)
        grad = self.loss_fn.backward()
        self.model.backward(grad)
        self.optimizer.step()
        losses.append(loss)
        accuracies.append(top1_accuracy(logits, labels))
    return EpochStats(
        epoch=0,
        train_loss=float(np.mean(losses)) if losses else float("nan"),
        train_accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
        seconds=time.perf_counter() - start,
    )


def install(monkeypatch) -> None:
    """Train through the reference kernels until ``monkeypatch`` is undone."""
    monkeypatch.setattr(F, "im2col", im2col)
    monkeypatch.setattr(F, "col2im", col2im)
    monkeypatch.setattr(F, "conv2d_forward", conv2d_forward)
    monkeypatch.setattr(F, "conv2d_backward", conv2d_backward)
    monkeypatch.setattr(Conv2d, "backward", conv_backward)
    monkeypatch.setattr(BatchNorm2d, "forward", batchnorm_forward)
    monkeypatch.setattr(BatchNorm2d, "backward", batchnorm_backward)
    monkeypatch.setattr(Trainer, "train_epoch", train_epoch)
    monkeypatch.setattr(Module, "step_arrays", lambda self: F.FRESH)


def held_arrays(module) -> List[str]:
    """Names of the attributes through which ``module`` itself (not its
    parameters, buffers or children) still holds an array, with
    ``name[i]`` for each block of a :class:`~repro.nn.functional.StepArrays`."""
    skip = {"_parameters", "_modules", "_buffers", "_forward_hooks"}
    skip.update(getattr(module, "_buffers", {}))
    names = []
    for name, value in vars(module).items():
        if isinstance(value, F.StepArrays):
            names.extend(f"{name}[{i}]" for i in range(len(value.blocks)))
            continue
        values = value if isinstance(value, tuple) else (value,)
        if name not in skip and any(isinstance(v, np.ndarray) for v in values):
            names.append(name)
    return names
