"""Tests for the low-level tensor ops of the NumPy DNN framework."""

from __future__ import annotations

import numpy as np
import pytest

from harness import reference_nn
from repro.nn import functional as F


def naive_conv2d(x, w, b=None, stride=1, padding=0):
    """Straightforward (slow) convolution used as the golden reference."""
    sh, sw = F.as_pair(stride)
    ph, pw = F.as_pair(padding)
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            for oi in range(oh):
                for oj in range(ow):
                    patch = xp[ni, :, oi * sh : oi * sh + kh, oj * sw : oj * sw + kw]
                    out[ni, fi, oi, oj] = np.sum(patch * w[fi])
    if b is not None:
        out += b[None, :, None, None]
    return out


class TestGeometryHelpers:
    def test_as_pair(self):
        assert F.as_pair(3) == (3, 3)
        assert F.as_pair((2, 5)) == (2, 5)
        with pytest.raises(ValueError):
            F.as_pair((1, 2, 3))

    def test_conv_output_size(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), ((2, 1), (0, 1))])
    def test_conv_matches_naive(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 8, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _, _ = F.conv2d_forward(x, w, b, stride, padding)
        expected = naive_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_im2col_shape_and_error(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols, (oh, ow) = F.im2col(x, 3, 1, 1)
        assert cols.shape == (2 * 6 * 6, 3 * 3 * 3)
        assert (oh, ow) == (6, 6)
        with pytest.raises(ValueError):
            F.im2col(x[0], 3)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> -- the defining adjoint property."""
        x = rng.normal(size=(1, 2, 6, 6))
        cols, _ = F.im2col(x, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        xt = F.col2im(y, x.shape, 3, 2, 1)
        rhs = float(np.sum(x * xt))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            F.col2im(np.zeros((4, 4)), (1, 1, 6, 6), 3)


def channels_last(x):
    """``x`` with channels-last memory, viewed as NCHW (like a conv output)."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def assert_same_array(actual, expected):
    """Same dtype, shape, strides and bytes (so also the sign of every zero)."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


GEOMETRIES = [(k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in (0, 1, 2)]


class TestReferenceKernels:
    """im2col/col2im/conv2d_backward equal the plain NCHW kernels bit for bit."""

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_im2col_float_matches_reference(self, rng, layout, kernel, stride, padding):
        x = rng.normal(size=(2, 3, 7, 6))
        x[0, 1, 2] = -0.0
        if layout == "channels_last":
            x = channels_last(x)
        cols, out_hw = F.im2col(x, kernel, stride, padding)
        expected, expected_hw = reference_nn.im2col(x, kernel, stride, padding)
        assert out_hw == expected_hw
        assert cols.flags.c_contiguous
        assert_same_array(cols, expected)

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_im2col_codes_match_reference(self, rng, layout, kernel, stride, padding):
        codes = rng.integers(0, 256, size=(2, 4, 7, 6), dtype=np.uint8)
        if layout == "channels_last":
            codes = channels_last(codes)
        cols, _ = F.im2col(codes, kernel, stride, padding, pad_value=7)
        expected, _ = reference_nn.im2col(codes, kernel, stride, padding, 7)
        assert_same_array(cols, expected)
        if padding:
            assert cols[0, 0] == 7  # the first window's top-left tap is padding

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_col2im_matches_reference(self, rng, kernel, stride, padding):
        x_shape = (5, 3, 7, 6)  # 5 images: one full block of 4 and a partial one
        _, (oh, ow) = F.im2col(np.zeros(x_shape), kernel, stride, padding)
        cols = rng.normal(size=(5 * oh * ow, 3 * kernel * kernel))
        cols[: oh * ow] = -0.0  # image 0: sums of negative zeros are +0.0
        folded = F.col2im(cols, x_shape, kernel, stride, padding)
        expected = reference_nn.col2im(cols, x_shape, kernel, stride, padding)
        assert_same_array(folded, expected)
        assert not np.signbit(folded[0]).any()

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (1, 2, 0), (5, 1, 2)])
    def test_conv2d_backward_matches_reference(self, rng, kernel, stride, padding):
        x = channels_last(rng.normal(size=(3, 4, 8, 7)))
        w = rng.normal(size=(5, 4, kernel, kernel))
        out, cols, _ = F.conv2d_forward(x, w, rng.normal(size=5), stride, padding)
        grad_out = rng.normal(size=out.shape)
        expected = reference_nn.conv2d_backward(grad_out, x.shape, cols, w, stride, padding)
        for actual, want in zip(
            F.conv2d_backward(grad_out, x.shape, cols, w, stride, padding), expected
        ):
            assert_same_array(actual, want)

        grad_x, grad_w, grad_b = F.conv2d_backward(
            grad_out, None, cols, w, stride, padding, with_bias=False
        )
        assert grad_x is None and grad_b is None
        assert_same_array(grad_w, expected[1])


class TestConvBackward:
    def test_gradients_match_numerical(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, cols, _ = F.conv2d_forward(x, w, b, 1, 1)
        upstream = rng.normal(size=out.shape)
        grad_x, grad_w, grad_b = F.conv2d_backward(upstream, x.shape, cols, w, 1, 1)

        def loss(x_, w_, b_):
            o, _, _ = F.conv2d_forward(x_, w_, b_, 1, 1)
            return float(np.sum(o * upstream))

        eps = 1e-6
        # Spot-check a handful of coordinates for each gradient tensor.
        for idx in [(0, 0, 0, 0), (1, 1, 2, 3), (0, 1, 4, 4)]:
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            numeric = (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps)
            assert grad_x[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
        for idx in [(0, 0, 0, 0), (2, 1, 1, 2)]:
            wp = w.copy(); wp[idx] += eps
            wm = w.copy(); wm[idx] -= eps
            numeric = (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps)
            assert grad_w[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
        numeric_b = (loss(x, w, b + np.array([eps, 0, 0])) - loss(x, w, b - np.array([eps, 0, 0]))) / (2 * eps)
        assert grad_b[0] == pytest.approx(numeric_b, rel=1e-4)


class TestLinear:
    def test_forward_and_backward(self, rng):
        x = rng.normal(size=(5, 7))
        w = rng.normal(size=(3, 7))
        b = rng.normal(size=3)
        out = F.linear_forward(x, w, b)
        np.testing.assert_allclose(out, x @ w.T + b)
        upstream = rng.normal(size=out.shape)
        gx, gw, gb = F.linear_backward(upstream, x, w)
        np.testing.assert_allclose(gx, upstream @ w)
        np.testing.assert_allclose(gw, upstream.T @ x)
        np.testing.assert_allclose(gb, upstream.sum(axis=0))


class TestPooling:
    def test_max_pool_forward_matches_naive(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        out, argmax, (oh, ow) = F.max_pool2d_forward(x, 2)
        assert out.shape == (2, 3, 3, 3)
        for n in range(2):
            for c in range(3):
                for i in range(3):
                    for j in range(3):
                        window = x[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        assert out[n, c, i, j] == window.max()

    def test_max_pool_backward_routes_to_argmax(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        out, argmax, _ = F.max_pool2d_forward(x, 2)
        grad = np.ones_like(out)
        gx = F.max_pool2d_backward(grad, argmax, x.shape, 2)
        # Each window contributes gradient only at its max position.
        assert gx.sum() == pytest.approx(out.size)
        assert np.count_nonzero(gx) == out.size

    def test_avg_pool_forward_backward(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        out, _ = F.avg_pool2d_forward(x, 2)
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, :2, :2].mean())
        gx = F.avg_pool2d_backward(np.ones_like(out), x.shape, 2)
        np.testing.assert_allclose(gx, np.full(x.shape, 0.25))


class TestSoftmaxAndOneHot:
    def test_softmax_rows_sum_to_one_and_stable(self):
        x = np.array([[1000.0, 1000.0, 999.0], [-5.0, 0.0, 5.0]])
        probs = F.softmax(x, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0])
        assert np.all(np.isfinite(probs))

    def test_log_softmax_consistency(self, rng):
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(np.exp(F.log_softmax(x)), F.softmax(x), atol=1e-12)

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([[1]]), 3)


def _layouts(shape):
    """``shape`` arrays laid out NCHW, channels-last and as a padded interior."""
    nchw = np.zeros(shape)
    padded = np.zeros(shape[:2] + (shape[2] + 2, shape[3] + 2))[:, :, 1:-1, 1:-1]
    return {"nchw": nchw, "channels_last": channels_last(nchw), "padded": padded}


class TestStepArrays:
    """Kernels writing into reused step arrays equal fresh allocations."""

    @pytest.mark.parametrize("first", ["nchw", "channels_last", "padded"])
    @pytest.mark.parametrize("second", ["nchw", "channels_last", "padded", "channel", "scalar"])
    def test_elementwise_axes_give_numpys_layout(self, first, second):
        layouts = _layouts((3, 4, 5, 6))
        a = layouts[first]
        b = {"channel": np.zeros(4)[None, :, None, None], "scalar": np.float64(2.0)}.get(second)
        b = layouts[second] if b is None else b
        out = F.StepArrays().like(a, b)
        assert out.strides == (a * b).strides
        assert out.shape == (a * b).shape and out.dtype == np.float64
        assert F.StepArrays().like(a[:1]) is None  # a length-1 axis: numpy allocates

    def test_a_block_serves_again_only_once_nothing_views_it(self):
        arrays = F.StepArrays()
        first = arrays.empty((4, 8))
        view = first.T[1:]
        del first
        second = arrays.empty((4, 8))
        assert not np.shares_memory(view, second)  # the view keeps its block in use
        assert len(arrays.blocks) == 2
        del view, second
        arrays.empty((2, 8))  # fits a free block, up to four times its size
        assert len(arrays.blocks) == 2
        arrays.empty((4, 8), np.int8)  # a quarter of a block: too small to take one
        assert [block.nbytes for block in arrays.blocks] == [32, 256, 256]

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (1, 2, 0), (5, 1, 2)])
    def test_conv_kernels_into_reused_arrays_equal_fresh_allocations(self, kernel, stride, padding):
        gen = np.random.default_rng(kernel * 10 + stride + padding)
        w = gen.normal(size=(5, 4, kernel, kernel))
        arrays = F.StepArrays()
        arrays.empty((1 << 16,))[...] = np.nan  # every block starts dirty
        blocks = []
        for step in range(3):  # later passes reuse the blocks of earlier ones
            x = channels_last(gen.normal(size=(3, 4, 8, 7)))
            out, cols, _ = F.conv2d_forward(x, w, None, stride, padding, arrays=arrays)
            want_out, want_cols, _ = F.conv2d_forward(x, w, None, stride, padding)
            assert_same_array(out, want_out)
            assert_same_array(cols, want_cols)
            for grad_out in (gen.normal(size=out.shape), channels_last(gen.normal(size=out.shape))):
                expected = reference_nn.conv2d_backward(
                    grad_out, x.shape, want_cols, w, stride, padding
                )
                got = F.conv2d_backward(
                    grad_out, x.shape, cols.copy(), w, stride, padding, arrays=arrays
                )
                for actual, want in zip(got, expected):
                    assert_same_array(actual, want)
            blocks.append(len(arrays.blocks))
        assert blocks[2] == blocks[1]  # each pass still holds its predecessor's results

    def test_reused_padding_keeps_its_value(self):
        arrays = F.StepArrays()
        gen = np.random.default_rng(7)
        for step in range(3):
            codes = gen.integers(0, 256, size=(2, 3, 5, 5), dtype=np.uint8)
            cols, _ = F.im2col(codes, 3, 1, 1, pad_value=7, arrays=arrays)
            assert_same_array(cols, reference_nn.im2col(codes, 3, 1, 1, 7)[0])
            cols[...] = 200  # scribble over the blocks the next pass reuses
