"""Low-level tensor operations backing the NumPy DNN framework.

All convolution/pooling layers are implemented on top of an ``im2col``
transformation so that the inner loop is a single BLAS ``matmul``.  This is
the same lowering a ReRAM-crossbar mapping performs (a sliding window becomes
one matrix-vector multiplication per output position, paper Fig. 1), which is
why the PIM simulator in :mod:`repro.sim` can reuse these helpers verbatim.

Shapes follow the PyTorch convention ``(N, C, H, W)`` for activations and
``(F, C, KH, KW)`` for convolution weights.  :func:`conv2d_forward` returns
its output as a channels-last array viewed as NCHW, so ``im2col`` and
``col2im`` keep their working buffers channels-last too.

Trained weights depend on these kernels bit for bit, so they keep one
identity rule against the plain NCHW formulation (``np.pad``, a channel-major
window view and ``col2im`` accumulator) that ``tests/harness/reference_nn.py``
keeps as the reference: every GEMM and every reduction receives the same
operands in the same memory layout, and every elementwise result is the same
operation on the same values in the same order per element.  Only copies,
temporaries and gradients that training discards differ, so both train the
same weights on whichever BLAS kernel they share.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

IntOrPair = Union[int, Tuple[int, int]]

#: Images per block of :func:`col2im`'s accumulation loop.
_COL2IM_IMAGES = 4


def as_pair(value: IntOrPair, name: str = "value") -> Tuple[int, int]:
    """Normalise an int-or-pair argument (kernel size, stride, padding)."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"{name} must be an int or a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size {out} for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel_size: IntOrPair,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
    pad_value: float = 0.0,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold sliding windows of ``x`` into a 2-D matrix.

    Parameters
    ----------
    x:
        Input activations of shape ``(N, C, H, W)``, of any dtype (the PIM
        backend unfolds integer activation codes).
    kernel_size, stride, padding:
        Convolution geometry.
    pad_value:
        The value of the padding (the code of 0.0 for quantized inputs).

    Returns
    -------
    cols:
        Contiguous array of shape ``(N * OH * OW, C * KH * KW)`` and the
        dtype of ``x``.  Row ``i`` holds the flattened receptive field of
        output pixel ``i`` (N-major, then OH, then OW; columns C-major, then
        KH, then KW), which is exactly the input vector fed to the crossbar
        word lines for that sliding window.  It is built from element copies
        alone, so its bytes do not depend on the memory layout of ``x``.
    out_hw:
        The spatial output size ``(OH, OW)``.
    """
    if x.ndim != 4:
        raise ValueError(f"im2col expects NCHW input, got shape {x.shape}")
    kh, kw = as_pair(kernel_size, "kernel_size")
    sh, sw = as_pair(stride, "stride")
    ph, pw = as_pair(padding, "padding")

    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)

    # Work channels-last, the memory layout conv2d_forward's outputs already
    # have, so padding copies them without a transpose.
    xt = x.transpose(0, 2, 3, 1)
    if ph or pw:
        padded = np.full((n, h + 2 * ph, w + 2 * pw, c), pad_value, dtype=x.dtype)
        padded[:, ph : ph + h, pw : pw + w] = xt
        xt = padded
    s0, s1, s2, s3 = xt.strides
    # Strided view (N, OH, OW, C, KH, KW) without copying; the reshape
    # copies it into the (C, KH, KW) column order.
    windows = np.lib.stride_tricks.as_strided(
        xt,
        shape=(n, oh, ow, c, kh, kw),
        strides=(s0, s1 * sh, s2 * sw, s3, s1, s2),
        writeable=False,
    )
    return windows.reshape(n * oh * ow, c * kh * kw), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: IntOrPair,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> np.ndarray:
    """Fold an ``im2col`` matrix back into an NCHW tensor (adjoint of im2col).

    Overlapping windows are *summed*, which is what the convolution backward
    pass requires.  Each element is ``+0.0`` plus its windows' entries in
    ``(i, j)`` kernel order, accumulated in a channels-last buffer so that
    ``cols`` is read along its rows; the sums are then copied once into an
    NCHW padded array, whose interior view is returned.
    """
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

    windows = cols.reshape(n, oh, ow, c, kh, kw)
    acc = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=cols.dtype)
    # A block of images' rows stays in cache across the kh * kw passes.
    for start in range(0, n, _COL2IM_IMAGES):
        block = slice(start, start + _COL2IM_IMAGES)
        for i in range(kh):
            i_max = i + sh * oh
            for j in range(kw):
                j_max = j + sw * ow
                acc[block, i:i_max:sh, j:j_max:sw] += windows[block, :, :, :, i, j]
    xp = np.empty((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    grad_x = xp[:, :, ph : ph + h, pw : pw + w]
    grad_x[...] = acc[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2)
    return grad_x


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """2-D convolution via im2col.

    Returns ``(output, cols, (oh, ow))``; ``cols`` is cached by layers for the
    backward pass and reused by the PIM simulator as the per-window input
    vectors.
    """
    f, c, kh, kw = weight.shape
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(f, c * kh * kw)
    out = cols @ w_mat.T
    if bias is not None:
        out += bias
    n = x.shape[0]
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    return out, cols, (oh, ow)


def conv2d_backward(
    grad_out: np.ndarray,
    x_shape: Optional[Tuple[int, int, int, int]],
    cols: np.ndarray,
    weight: np.ndarray,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
    with_bias: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray, Optional[np.ndarray]]:
    """Gradients of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``.  A gradient nobody reads is
    not computed: ``grad_x`` is ``None`` when ``x_shape`` is ``None`` (the
    layer fed the training batch skips its ``grad_mat @ W`` GEMM and its
    ``col2im``), and ``grad_bias`` is ``None`` without ``with_bias`` (a
    convolution without bias skips that reduction).  The gradients that are
    computed are unchanged.
    """
    f, c, kh, kw = weight.shape
    n, _, oh, ow = grad_out.shape
    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
    grad_bias = grad_mat.sum(axis=0) if with_bias else None
    grad_weight = (grad_mat.T @ cols).reshape(f, c, kh, kw)
    if x_shape is None:
        return None, grad_weight, grad_bias
    grad_cols = grad_mat @ weight.reshape(f, c * kh * kw)
    grad_x = col2im(grad_cols, x_shape, (kh, kw), stride, padding)
    return grad_x, grad_weight, grad_bias


def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Fully-connected forward: ``y = x @ W.T + b`` with ``W`` of shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def linear_backward(
    grad_out: np.ndarray, x: np.ndarray, weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`linear_forward` -> ``(grad_x, grad_w, grad_b)``."""
    grad_x = grad_out @ weight
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def max_pool2d_forward(
    x: np.ndarray, kernel_size: IntOrPair, stride: IntOrPair | None = None
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """Max pooling; returns ``(out, argmax, (oh, ow))`` for the backward pass."""
    kh, kw = as_pair(kernel_size, "kernel_size")
    if stride is None:
        stride = (kh, kw)
    sh, sw = as_pair(stride, "stride")
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, sh, 0)
    ow = conv_output_size(w, kw, sw, 0)

    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    flat = windows.reshape(n, c, oh, ow, kh * kw)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    return out, argmax, (oh, ow)


def max_pool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: IntOrPair,
    stride: IntOrPair | None = None,
) -> np.ndarray:
    """Backward pass of max pooling: route gradients to the argmax positions."""
    kh, kw = as_pair(kernel_size, "kernel_size")
    if stride is None:
        stride = (kh, kw)
    sh, sw = as_pair(stride, "stride")
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape

    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    # argmax indexes within the kh*kw window.
    ki = argmax // kw
    kj = argmax % kw
    oh_idx, ow_idx = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    rows = oh_idx[None, None] * sh + ki
    cols_ = ow_idx[None, None] * sw + kj
    n_idx = np.arange(n)[:, None, None, None]
    c_idx = np.arange(c)[None, :, None, None]
    np.add.at(grad_x, (n_idx, c_idx, rows, cols_), grad_out)
    return grad_x


def avg_pool2d_forward(
    x: np.ndarray, kernel_size: IntOrPair, stride: IntOrPair | None = None
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Average pooling forward; returns ``(out, (oh, ow))``."""
    kh, kw = as_pair(kernel_size, "kernel_size")
    if stride is None:
        stride = (kh, kw)
    sh, sw = as_pair(stride, "stride")
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, sh, 0)
    ow = conv_output_size(w, kw, sw, 0)
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    out = windows.mean(axis=(-1, -2))
    return out, (oh, ow)


def avg_pool2d_backward(
    grad_out: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: IntOrPair,
    stride: IntOrPair | None = None,
) -> np.ndarray:
    """Backward pass of average pooling (uniform gradient spread)."""
    kh, kw = as_pair(kernel_size, "kernel_size")
    if stride is None:
        stride = (kh, kw)
    sh, sw = as_pair(stride, "stride")
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    scale = 1.0 / (kh * kw)
    for i in range(kh):
        for j in range(kw):
            grad_x[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += grad_out * scale
    return grad_x


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` -> one-hot matrix ``(N, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
