"""Property-style fuzz: vectorised ADCs vs the cycle-accurate SAR searches.

Ports the ad-hoc fuzz used while validating the fast-engine work into the
suite.  The vectorised :class:`~repro.adc.uniform.UniformAdc` and
:class:`~repro.adc.trq.TwinRangeAdc` must agree with the step-by-step SAR
models on randomized parameters — including the exact region-boundary values
``r1_low``, ``r1_high`` and ``r2_max``, negative inputs (physically
impossible at a bit line, but the models must still agree on them: with
``bias == 0`` the single detection comparison sends everything below ``θ``
through the dense range) and overflow inputs beyond full scale.

Deltas are drawn from a grid of exactly-representable steps and inputs are
integers or exact threshold multiples, so value agreement is required to be
*exact*, not just close.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harness.adc_lut import lut_convert
from repro.adc import SarAdc, TwinRangeAdc, TwinRangeSarAdc, UniformAdc
from repro.core import TRQParams

#: Step sizes with exact binary representations (including a non-power-of-two)
#: so float comparisons against SAR thresholds cannot straddle a rounding edge.
DELTAS = (0.25, 0.5, 1.0, 2.0, 3.0)


def _uniform_inputs(rng: np.random.Generator, bits: int, delta: float) -> np.ndarray:
    full_scale = ((1 << bits) - 1) * delta
    integers = rng.integers(-8, int(full_scale) + 16, size=40).astype(np.float64)
    midpoints = (rng.integers(0, 1 << bits, size=8).astype(np.float64) + 0.5) * delta
    edges = np.array([-delta, 0.0, full_scale, full_scale + delta])
    return np.concatenate([integers, midpoints, edges])


class TestUniformFuzz:
    @given(
        bits=st.integers(min_value=1, max_value=8),
        delta=st.sampled_from(DELTAS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_cycle_accurate_exactly(self, bits, delta, seed):
        rng = np.random.default_rng(seed)
        values = _uniform_inputs(rng, bits, delta)
        vectorised = UniformAdc(bits, delta)
        quantized, total_ops = vectorised.convert(values)
        traces = [SarAdc(bits, delta).convert(v) for v in values]
        np.testing.assert_array_equal(quantized, [t.output_value for t in traces])
        assert total_ops == sum(t.operations for t in traces)

    @given(
        bits=st.integers(min_value=1, max_value=8),
        delta=st.sampled_from(DELTAS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_lut_gather_matches_cycle_accurate(self, bits, delta, seed):
        """Integer-domain LUT conversion == per-element SAR search."""
        rng = np.random.default_rng(seed)
        max_value = int(((1 << bits) - 1) * delta) + 3
        codes = rng.integers(0, max_value + 1, size=50)
        quantized, total_ops = lut_convert(UniformAdc(bits, delta), codes, max_value)
        traces = [SarAdc(bits, delta).convert(float(v)) for v in codes]
        np.testing.assert_array_equal(quantized, [t.output_value for t in traces])
        assert total_ops == sum(t.operations for t in traces)


def _trq_inputs(rng: np.random.Generator, params: TRQParams) -> np.ndarray:
    top = max(params.r2_max, params.r1_high)
    integers = rng.integers(-4, int(top) + 8, size=40).astype(np.float64)
    boundaries = np.array([
        params.r1_low, params.r1_high, params.r2_max,
        params.r1_low - params.delta_r1, params.r1_high + params.delta_r1,
        params.r2_max + params.delta_r2,
        -params.delta_r1, 0.0,
    ])
    return np.concatenate([integers, boundaries])


class TestTwinRangeFuzz:
    @given(
        n_r1=st.integers(min_value=1, max_value=6),
        n_r2=st.integers(min_value=1, max_value=7),
        m=st.integers(min_value=0, max_value=5),
        bias=st.integers(min_value=0, max_value=3),
        delta=st.sampled_from(DELTAS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_cycle_accurate_exactly(self, n_r1, n_r2, m, bias, delta, seed):
        params = TRQParams(n_r1=n_r1, n_r2=n_r2, m=m, delta_r1=delta, bias=bias)
        rng = np.random.default_rng(seed)
        values = _trq_inputs(rng, params)

        vectorised = TwinRangeAdc(params)
        quantized, total_ops = vectorised.convert(values)
        traces = [TwinRangeSarAdc(params).convert(v) for v in values]

        np.testing.assert_array_equal(quantized, [t.output_value for t in traces])
        assert total_ops == sum(t.operations for t in traces)
        # Region decisions must agree sample by sample, not just in aggregate.
        np.testing.assert_array_equal(
            vectorised.region_mask(values), [t.in_r1 for t in traces]
        )
        assert vectorised.stats.in_r1 == sum(t.in_r1 for t in traces)
        assert vectorised.stats.detection_operations == sum(
            t.detection_operations for t in traces
        )

    def test_negative_inputs_follow_hardware_detection(self):
        """With ``bias == 0`` the detection phase is a single comparison
        against ``θ``, so negative inputs resolve in R1; a biased window
        checks the lower edge too and sends them to R2."""
        unbiased = TRQParams(n_r1=2, n_r2=5, m=2, delta_r1=1.0, bias=0)
        biased = TRQParams(n_r1=2, n_r2=5, m=2, delta_r1=1.0, bias=1)
        values = np.array([-3.0, -0.5])
        for params, expect_r1 in ((unbiased, True), (biased, False)):
            adc = TwinRangeAdc(params)
            quantized, _ = adc.convert(values)
            traces = [TwinRangeSarAdc(params).convert(v) for v in values]
            np.testing.assert_array_equal(quantized, [t.output_value for t in traces])
            assert all(t.in_r1 == expect_r1 for t in traces)
            np.testing.assert_array_equal(adc.region_mask(values),
                                          [expect_r1, expect_r1])

    def test_overflow_clamps_to_r2_full_scale(self):
        params = TRQParams(n_r1=2, n_r2=4, m=2, delta_r1=1.0, bias=0)
        value = params.r2_max + 100.0
        quantized, _ = TwinRangeAdc(params).convert(np.array([value]))
        trace = TwinRangeSarAdc(params).convert(value)
        assert quantized[0] == trace.output_value == params.r2_max

    @given(
        n_r1=st.integers(min_value=1, max_value=5),
        n_r2=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=0, max_value=4),
        bias=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_lut_gather_matches_cycle_accurate(self, n_r1, n_r2, m, bias, seed):
        """Integer-domain LUT conversion == per-element twin-range search."""
        params = TRQParams(n_r1=n_r1, n_r2=n_r2, m=m, delta_r1=1.0, bias=bias)
        rng = np.random.default_rng(seed)
        max_value = int(max(params.r2_max, params.r1_high)) + 4
        codes = rng.integers(0, max_value + 1, size=50)
        adc = TwinRangeAdc(params)
        quantized, total_ops = lut_convert(adc, codes, max_value)
        traces = [TwinRangeSarAdc(params).convert(float(v)) for v in codes]
        np.testing.assert_array_equal(quantized, [t.output_value for t in traces])
        assert total_ops == sum(t.operations for t in traces)
        assert adc.stats.in_r1 == sum(t.in_r1 for t in traces)
