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

Where an array is written matters as little as that: a training step writes
its activation-sized arrays into memory it reuses (:class:`StepArrays`),
through ``out=`` arguments.  A GEMM into ``out`` computes what ``a @ b``
does, and every ``out`` gets the layout numpy would have given the array it
replaces (:func:`elementwise_axes`), so reductions and GEMMs downstream see
the same operands as before.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

IntOrPair = Union[int, Tuple[int, int]]

#: Images per block of :func:`col2im`'s accumulation loop.
_COL2IM_IMAGES = 4


def elementwise_axes(*operands: np.ndarray) -> Optional[Tuple[int, ...]]:
    """The axes, slowest first, of the array numpy allocates for an
    elementwise operation on ``operands``.

    This is the order numpy's iterator chooses (``order="K"``): starting
    from C order, an axis moves inside another only if every operand that
    strides along both agrees, so a conflict between operands keeps C order.
    Broadcast axes hold no opinion.  ``None`` when the result has an axis of
    length 1, whose stride numpy places by rules not reproduced here (the
    caller then lets numpy allocate).
    """
    return _elementwise_layout(tuple((op.shape, op.strides) for op in operands))[1]


@functools.lru_cache(maxsize=None)
def _elementwise_layout(layouts) -> Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]:
    """``(shape, axes)`` of an elementwise result on operands of
    ``layouts`` (``(shape, strides)`` pairs); see :func:`elementwise_axes`."""
    shape = np.broadcast_shapes(*(shape for shape, _ in layouts))
    ndim = len(shape)
    if 1 in shape:
        return shape, None
    # Per operand and result axis, the stride's size, 0 where broadcast.
    strides = [
        [0] * (ndim - len(op_shape))
        + [0 if size == 1 else abs(step) for size, step in zip(op_shape, op_strides)]
        for op_shape, op_strides in layouts
    ]
    # The iterator's axis list runs fastest first, from reversed C order; a
    # stable insertion sort moves smaller strides towards its front.
    perm = list(range(ndim - 1, -1, -1))
    for i0 in range(1, ndim):
        axis = perm[i0]
        insert = i0
        for i1 in range(i0 - 1, -1, -1):
            votes = [op[perm[i1]] > op[axis] for op in strides if op[axis] and op[perm[i1]]]
            if not votes:
                continue
            if not all(votes):
                break
            insert = i1
        perm.insert(insert, perm.pop(i0))
    return shape, tuple(reversed(perm))


def laid_out(arrays, a: np.ndarray, axes: Optional[Tuple[int, ...]]) -> np.ndarray:
    """``a``, or a copy of it from ``arrays`` whose axes lie slowest-first in
    ``axes`` when ``a``'s own order differs.

    numpy runs an elementwise operation on operands of different layouts
    several times slower than on one layout (0.76 vs 0.14 ms for a
    ``(32, 4, 32, 32)`` NCHW gradient times a channels-last mask), and a
    copy costs less than the difference.  The values are the same, so every
    element of the result is too.
    """
    if axes is None or elementwise_axes(a) == axes:
        return a
    copy = arrays.empty(a.shape, a.dtype, axes)
    copy[...] = a
    return copy


def _empty(shape: Sequence[int], dtype, axes: Optional[Sequence[int]], block=None) -> np.ndarray:
    """An uninitialised array whose axes lie in memory slowest-first in
    ``axes`` (C order when ``None``), viewing a fresh allocation or a
    prefix of ``block`` (a 1-D byte array)."""
    dtype = np.dtype(dtype)
    dims = list(shape) if axes is None else [shape[a] for a in axes]
    if block is None:
        flat = np.empty(dims, dtype=dtype)
    else:
        flat = block[: dtype.itemsize * math.prod(shape)].view(dtype).reshape(dims)
    return flat if axes is None else flat.transpose(_inverse(tuple(axes)))


@functools.lru_cache(maxsize=None)
def _inverse(axes: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sorted(range(len(axes)), key=axes.__getitem__))


def _references(blocks: List[np.ndarray], index: int) -> int:
    return sys.getrefcount(blocks[index])


#: What :func:`_references` reads for a block that only its list holds.
_UNVIEWED = _references([np.empty(0, dtype=np.uint8)], 0)

#: The largest block a request may take, as a multiple of its size: a small
#: cache in a large block would keep the rest of it idle for the whole step.
#: (From its second step on, resnet20 holds 47.5 MiB at 2, 45.9 at 4 and 48.2 at 8.)
_REUSE_RATIO = 4


class StepArrays:
    """Memory that training steps write their activation-sized arrays into.

    A training step allocates and frees tens of megabytes of caches and
    temporaries.  Freed to the C allocator, that memory can go back to the
    operating system between steps and be faulted in again by the next one,
    depending on the allocator's history.  A module tree in training mode
    takes those arrays from one ``StepArrays`` instead: each is a view of a
    byte block the pool keeps, and a block serves again once nothing views
    it.  numpy holds a reference to the block from every view (``base``), so
    its reference count says when that is, exactly when numpy would have
    freed the array.  A request takes the smallest free block that is large
    enough (but not :data:`_REUSE_RATIO` times larger), and allocates a new
    one only when none is, so after a step's first pass the same steps
    allocate nothing.  The blocks are freed together when the tree leaves
    training mode (:meth:`repro.nn.Module.train`).
    """

    def __init__(self) -> None:
        self._blocks: List[np.ndarray] = []  # byte blocks, smallest first
        self._sizes: List[int] = []

    @property
    def blocks(self) -> Tuple[np.ndarray, ...]:
        """The byte blocks held, smallest first."""
        return tuple(self._blocks)

    def empty(
        self, shape: Sequence[int], dtype=np.float64, axes: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """An uninitialised ``shape`` array laid out slowest-first in ``axes``
        (C order when ``None``)."""
        nbytes = np.dtype(dtype).itemsize * math.prod(shape)
        start = bisect.bisect_left(self._sizes, nbytes)
        for index in range(start, bisect.bisect_right(self._sizes, _REUSE_RATIO * nbytes)):
            if _references(self._blocks, index) <= _UNVIEWED:
                return _empty(shape, dtype, axes, self._blocks[index])
        self._blocks.insert(start, np.empty(nbytes, dtype=np.uint8))
        self._sizes.insert(start, nbytes)
        return _empty(shape, dtype, axes, self._blocks[start])

    def like(self, *operands: np.ndarray, dtype=None) -> Optional[np.ndarray]:
        """An ``out`` for an elementwise operation on ``operands``: the shape,
        layout and (unless given) dtype of the array numpy would allocate,
        or ``None`` to let numpy allocate it (see :func:`elementwise_axes`)."""
        shape, axes = _elementwise_layout(tuple((op.shape, op.strides) for op in operands))
        if axes is None:
            return None
        return self.empty(shape, np.result_type(*operands) if dtype is None else dtype, axes)


class _FreshArrays:
    """The array source outside training: every array is a new allocation."""

    @staticmethod
    def empty(shape, dtype=np.float64, axes=None) -> np.ndarray:
        return _empty(shape, dtype, axes)

    @staticmethod
    def like(*operands: np.ndarray, dtype=None) -> None:
        return None


#: Array source of eval mode and of direct kernel calls.
FRESH = _FreshArrays()


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


def _merges(shape: Sequence[int], strides: Sequence[int]) -> bool:
    """Whether axes of ``shape`` and ``strides`` flatten into one axis
    without a copy (numpy's rule: axes of length 1 never block it)."""
    step = None
    for size, stride in zip(reversed(shape), reversed(strides)):
        if size == 1:
            continue
        if step is not None and stride != step:
            return False
        step = size * stride
    return True


def _fill_border(padded: np.ndarray, ph: int, pw: int, value) -> None:
    """Write ``value`` into the ``ph``/``pw`` border of a channels-last
    ``(N, H + 2·ph, W + 2·pw, C)`` buffer."""
    rows, cols = padded.shape[1:3]
    padded[:, :ph] = value
    padded[:, rows - ph :] = value
    padded[:, :, :pw] = value
    padded[:, :, cols - pw :] = value


def im2col(
    x: np.ndarray,
    kernel_size: IntOrPair,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
    pad_value: float = 0.0,
    arrays=FRESH,
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
    arrays:
        Source of the padded copy and of ``cols``: :data:`FRESH` allocates
        them, a training layer passes its :class:`StepArrays`.

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
        padded = arrays.empty((n, h + 2 * ph, w + 2 * pw, c), x.dtype)
        _fill_border(padded, ph, pw, pad_value)
        padded[:, ph : ph + h, pw : pw + w] = xt
        xt = padded
    s0, s1, s2, s3 = xt.strides
    # Strided view (N, OH, OW, C, KH, KW) without copying, copied into the
    # (C, KH, KW) column order.
    windows = np.lib.stride_tricks.as_strided(
        xt,
        shape=(n, oh, ow, c, kh, kw),
        strides=(s0, s1 * sh, s2 * sw, s3, s1, s2),
        writeable=False,
    )
    cols = arrays.empty((n * oh * ow, c * kh * kw), x.dtype)
    cols.reshape(windows.shape)[...] = windows
    return cols, (oh, ow)


def _phase_span(phase: int, stride: int, pad: int, size: int) -> Tuple[int, int, int]:
    """Where phase ``phase`` of a padded axis meets its interior
    ``[pad, pad + size)``: its first and stop index within the phase, and
    the interior coordinate of the first."""
    first = max(0, -((phase - pad) // stride))
    stop = -((phase - pad - size) // stride)
    return first, stop, phase + stride * first - pad


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: IntOrPair,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
    arrays=FRESH,
) -> np.ndarray:
    """Fold an ``im2col`` matrix back into an NCHW tensor (adjoint of im2col).

    Overlapping windows are *summed*, which is what the convolution backward
    pass requires.  Each element is ``+0.0`` plus its windows' entries in
    ``(i, j)`` kernel order.  The sums accumulate channels-last, so that
    ``cols`` is read along its rows, in a buffer split by stride phase,
    ``(N, SH, SW, H'/SH, W'/SW, C)`` for the padded size ``H' × W'``: every
    kernel tap then adds contiguous ``(OW, C)`` runs, at any stride.  The
    sums are copied once into an NCHW padded array (from ``arrays``, like
    the accumulator), whose interior view is returned.
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

    hp, wp = h + 2 * ph, w + 2 * pw
    windows = cols.reshape(n, oh, ow, c, kh, kw)
    # phases[:, a, b, y, x] accumulates padded position (a + SH·y, b + SW·x).
    phases = arrays.empty((n, sh, sw, -(-hp // sh), -(-wp // sw), c), cols.dtype)
    phases.fill(0.0)
    # A block of images' rows stays in cache across the kh * kw passes.
    for start in range(0, n, _COL2IM_IMAGES):
        block = slice(start, start + _COL2IM_IMAGES)
        for i in range(kh):
            rows = slice(i // sh, i // sh + oh)
            for j in range(kw):
                phases[block, i % sh, j % sw, rows, j // sw : j // sw + ow] += (
                    windows[block, :, :, :, i, j]
                )
    xp = arrays.empty((n, c, hp, wp), cols.dtype)
    grad_x = xp[:, :, ph : ph + h, pw : pw + w]
    for a in range(sh):
        y0, y1, y = _phase_span(a, sh, ph, h)
        for b in range(sw):
            x0, x1, x = _phase_span(b, sw, pw, w)
            grad_x[:, :, y::sh, x::sw] = phases[:, a, b, y0:y1, x0:x1].transpose(0, 3, 1, 2)
    return grad_x


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
    arrays=FRESH,
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """2-D convolution via im2col.

    Returns ``(output, cols, (oh, ow))``; ``cols`` is cached by layers for the
    backward pass and reused by the PIM simulator as the per-window input
    vectors.  ``cols`` and the output come from ``arrays``.
    """
    f, c, kh, kw = weight.shape
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding, arrays=arrays)
    w_mat = weight.reshape(f, c * kh * kw)
    out = arrays.empty((cols.shape[0], f), np.result_type(cols, w_mat))
    np.matmul(cols, w_mat.T, out=out)
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
    arrays=FRESH,
) -> Tuple[Optional[np.ndarray], np.ndarray, Optional[np.ndarray]]:
    """Gradients of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``.  A gradient nobody reads is
    not computed: ``grad_x`` is ``None`` when ``x_shape`` is ``None`` (the
    layer fed the training batch skips its ``grad_mat @ W`` GEMM and its
    ``col2im``), and ``grad_bias`` is ``None`` without ``with_bias`` (a
    convolution without bias skips that reduction).  The gradients that are
    computed are unchanged.  With :class:`StepArrays` as ``arrays``, ``cols``
    is the caller's consumed cache: the input gradient's GEMM writes over it
    once ``grad_weight`` is computed.
    """
    f, c, kh, kw = weight.shape
    n, _, oh, ow = grad_out.shape
    rows = grad_out.transpose(0, 2, 3, 1)
    if _merges(rows.shape[:3], rows.strides[:3]):
        grad_mat = rows.reshape(n * oh * ow, f)
    else:  # what reshape would copy, copied into ``arrays``
        grad_mat = arrays.empty((n * oh * ow, f), rows.dtype)
        grad_mat.reshape(rows.shape)[...] = rows
    grad_bias = grad_mat.sum(axis=0) if with_bias else None
    grad_weight = (grad_mat.T @ cols).reshape(f, c, kh, kw)
    if x_shape is None:
        return None, grad_weight, grad_bias
    grad_cols = np.matmul(
        grad_mat, weight.reshape(f, c * kh * kw), out=None if arrays is FRESH else cols
    )
    grad_x = col2im(grad_cols, x_shape, (kh, kw), stride, padding, arrays=arrays)
    return grad_x, grad_weight, grad_bias


def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None, arrays=FRESH
) -> np.ndarray:
    """Fully-connected forward: ``y = x @ W.T + b`` with ``W`` of shape (out, in)."""
    out = np.matmul(
        x, weight.T, out=arrays.empty(x.shape[:-1] + weight.shape[:1], np.result_type(x, weight))
    )
    if bias is not None:
        out += bias
    return out


def linear_backward(
    grad_out: np.ndarray, x: np.ndarray, weight: np.ndarray, arrays=FRESH
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`linear_forward` -> ``(grad_x, grad_w, grad_b)``."""
    grad_x = np.matmul(
        grad_out, weight,
        out=arrays.empty(grad_out.shape[:-1] + weight.shape[1:], np.result_type(grad_out, weight)),
    )
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def max_pool2d_forward(
    x: np.ndarray, kernel_size: IntOrPair, stride: IntOrPair | None = None, arrays=FRESH
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
    # A contiguous copy, which argmax would otherwise make itself.
    flat = arrays.empty((n, c, oh, ow, kh * kw), x.dtype)
    flat.reshape(windows.shape)[...] = windows
    argmax = np.argmax(flat, axis=-1, out=arrays.empty((n, c, oh, ow), np.intp))
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    return out, argmax, (oh, ow)


def max_pool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_size: IntOrPair,
    stride: IntOrPair | None = None,
    arrays=FRESH,
) -> np.ndarray:
    """Backward pass of max pooling: route gradients to the argmax positions."""
    kh, kw = as_pair(kernel_size, "kernel_size")
    if stride is None:
        stride = (kh, kw)
    sh, sw = as_pair(stride, "stride")
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape

    grad_x = arrays.empty(x_shape, grad_out.dtype)
    grad_x.fill(0.0)
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
