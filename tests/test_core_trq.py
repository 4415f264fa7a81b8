"""Tests for the TRQ transfer function, coding scheme and distribution analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DistributionType,
    TRQParams,
    classify_regions,
    decode,
    encode,
    mean_ad_operations,
    quantization_mse,
    required_resolution,
    summarize_distribution,
    twin_range_quantize,
    uniform_reference_quantize,
)


# --------------------------------------------------------------------- #
# TRQParams derived quantities (Eq. 7-8, 11)
# --------------------------------------------------------------------- #
class TestTRQParams:
    def test_derived_properties(self):
        params = TRQParams(n_r1=3, n_r2=5, m=4, delta_r1=0.5, bias=2)
        assert params.delta_r2 == pytest.approx(0.5 * 16)  # Eq. 8
        assert params.r1_width == pytest.approx(8 * 0.5)
        assert params.r1_low == pytest.approx(2 * 4.0)
        assert params.r1_high == pytest.approx(12.0)
        assert params.r2_max == pytest.approx(31 * 8.0)
        assert params.detection_ops == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TRQParams(n_r1=0, n_r2=4, m=1)
        with pytest.raises(ValueError):
            TRQParams(n_r1=2, n_r2=4, m=-1)
        with pytest.raises(ValueError):
            TRQParams(n_r1=2, n_r2=4, m=1, delta_r1=0.0)
        with pytest.raises(ValueError):
            TRQParams(n_r1=2, n_r2=4, m=1, bias=-1)

    def test_ops_for_region(self):
        params = TRQParams(n_r1=2, n_r2=6, m=2)
        np.testing.assert_array_equal(
            params.ops_for_region(np.array([True, False])), [2, 6]
        )


# --------------------------------------------------------------------- #
# Transfer function
# --------------------------------------------------------------------- #
class TestTwinRangeQuantize:
    def test_dense_range_is_lossless_on_grid_points(self):
        """Eq. 11 ideal case: ΔR1 = 1 makes R1 conversions exact on integers."""
        params = TRQParams(n_r1=4, n_r2=4, m=4, delta_r1=1.0, bias=0)
        values = np.arange(0, 16, dtype=np.float64)  # all inside R1 = [0, 16)
        quantized, in_r1 = twin_range_quantize(values, params)
        np.testing.assert_array_equal(quantized, values)
        assert in_r1.all()

    def test_coarse_range_error_bounded_by_half_delta_r2(self):
        params = TRQParams(n_r1=3, n_r2=4, m=4, delta_r1=1.0)
        values = np.linspace(params.r1_high, params.r2_max, 100)
        quantized, in_r1 = twin_range_quantize(values, params)
        assert not in_r1.any()
        assert np.all(np.abs(quantized - values) <= params.delta_r2 / 2 + 1e-9)

    def test_region_boundaries(self):
        params = TRQParams(n_r1=2, n_r2=4, m=2, delta_r1=1.0, bias=1)
        # R1 = [4, 8): the lower edge is inside, the upper edge is not.
        mask = classify_regions(np.array([3.9, 4.0, 7.99, 8.0]), params)
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_values_above_r2_max_clip(self):
        params = TRQParams(n_r1=2, n_r2=3, m=2, delta_r1=1.0)
        quantized, _ = twin_range_quantize(np.array([1e6]), params)
        assert quantized[0] == pytest.approx(params.r2_max)

    def test_grid_alignment_with_full_precision_grid(self):
        """R2 reconstruction points land on the full-precision (ΔR1) grid."""
        params = TRQParams(n_r1=3, n_r2=4, m=3, delta_r1=1.0)
        values = np.random.default_rng(0).uniform(0, params.r2_max, 500)
        quantized, _ = twin_range_quantize(values, params)
        np.testing.assert_allclose(quantized / params.delta_r1,
                                   np.round(quantized / params.delta_r1), atol=1e-9)

    @given(
        n_r1=st.integers(1, 6), n_r2=st.integers(1, 7), m=st.integers(0, 6),
        bias=st.integers(0, 2), seed=st.integers(0, 999),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_idempotent_and_monotone(self, n_r1, n_r2, m, bias, seed):
        params = TRQParams(n_r1=n_r1, n_r2=n_r2, m=m, delta_r1=1.0, bias=bias)
        rng = np.random.default_rng(seed)
        values = np.sort(rng.uniform(0, params.r2_max * 1.1, size=60))
        quantized, _ = twin_range_quantize(values, params)
        # Idempotence: re-quantizing reproduced values is a fixed point.
        again, _ = twin_range_quantize(quantized, params)
        np.testing.assert_allclose(again, quantized, atol=1e-9)
        # Error bound inside the representable range: ΔR2/2 in the coarse
        # range, and at most ΔR1 in the dense range (its topmost half-LSB
        # clamps to the last R1 code — that is what the hardware search does).
        inside = values <= params.r2_max
        bound = max(params.delta_r1, params.delta_r2 / 2)
        assert np.all(np.abs(quantized[inside] - values[inside]) <= bound + 1e-9)

    def test_mse_and_mean_ops_helpers(self, skewed_samples):
        params = TRQParams(n_r1=3, n_r2=5, m=3, delta_r1=1.0)
        mse = quantization_mse(skewed_samples, params)
        assert mse >= 0.0
        mean_ops = mean_ad_operations(skewed_samples, params)
        assert 1 + params.n_r1 <= mean_ops <= 1 + params.n_r2
        assert quantization_mse(np.array([]), params) == 0.0
        assert mean_ad_operations(np.array([]), params) == 1.0

    def test_uniform_reference_quantize(self):
        out = uniform_reference_quantize(np.array([0.4, 3.6, 100.0]), num_bits=2, delta=1.0)
        np.testing.assert_array_equal(out, [0.0, 3.0, 3.0])
        with pytest.raises(ValueError):
            uniform_reference_quantize(np.zeros(2), num_bits=0, delta=1.0)


# --------------------------------------------------------------------- #
# Coding scheme (Fig. 4b)
# --------------------------------------------------------------------- #
class TestCoding:
    @given(
        n_r1=st.integers(1, 5), n_r2=st.integers(1, 6), m=st.integers(0, 5),
        bias=st.integers(0, 2), seed=st.integers(0, 999),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_encode_decode_equals_transfer_function(self, n_r1, n_r2, m, bias, seed):
        """decode(encode(x)) must equal the TRQ reconstruction of x."""
        params = TRQParams(n_r1=n_r1, n_r2=n_r2, m=m, delta_r1=1.0, bias=bias)
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, params.r2_max * 1.2, size=80)
        codes = encode(values, params)
        reconstructed = decode(codes, params)
        expected, _ = twin_range_quantize(values, params)
        np.testing.assert_allclose(reconstructed, expected, atol=1e-9)

    def test_code_width_is_one_plus_payload(self):
        params = TRQParams(n_r1=3, n_r2=5, m=2, delta_r1=1.0)
        values = np.random.default_rng(1).uniform(0, params.r2_max, 200)
        codes = encode(values, params)
        assert codes.max() < (1 << (1 + max(params.n_r1, params.n_r2)))
        assert codes.min() >= 0

    def test_msb_indicates_range(self):
        params = TRQParams(n_r1=2, n_r2=4, m=2, delta_r1=1.0)
        codes = encode(np.array([1.0, 100.0]), params)
        payload_bits = max(params.n_r1, params.n_r2)
        assert (codes[0] >> payload_bits) == 0  # R1
        assert (codes[1] >> payload_bits) == 1  # R2


# --------------------------------------------------------------------- #
# Distribution analysis (Section III-A / IV-B)
# --------------------------------------------------------------------- #
class TestDistributionAnalysis:
    def test_skewed_is_ideal(self, skewed_samples):
        summary = summarize_distribution(skewed_samples, np.ones_like(skewed_samples))
        assert summary.kind is DistributionType.IDEAL
        assert summary.mass_in_low_eighth > 0.5
        assert summary.skewness > 1.0

    def test_gaussian_is_normal(self, normal_samples):
        summary = summarize_distribution(normal_samples, np.ones_like(normal_samples))
        assert summary.kind is DistributionType.NORMAL
        assert summary.num_modes == 1

    def test_bimodal_is_other(self, multimodal_samples):
        summary = summarize_distribution(multimodal_samples, np.ones_like(multimodal_samples))
        assert summary.kind is DistributionType.OTHER
        assert summary.num_modes >= 2

    def test_flat_is_other(self, rng):
        flat = rng.uniform(0, 128, size=4000)
        assert summarize_distribution(flat, np.ones_like(flat)).kind is DistributionType.OTHER

    def test_constant_sample(self):
        summary = summarize_distribution(np.full(100, 7.0), np.ones(100))
        assert summary.value_range == 0.0
        assert summary.num_modes == 1

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            summarize_distribution(np.array([]), np.array([]))

    def test_required_resolution(self):
        assert required_resolution(np.array([0.0, 127.0])) == 7
        assert required_resolution(np.array([0.0, 128.0])) == 8
        assert required_resolution(np.array([0.0, 128.0]), v_grid=2.0) == 7
        assert required_resolution(np.array([5.0])) == 1
        with pytest.raises(ValueError):
            required_resolution(np.array([]))
        with pytest.raises(ValueError):
            required_resolution(np.array([1.0]), v_grid=0.0)
