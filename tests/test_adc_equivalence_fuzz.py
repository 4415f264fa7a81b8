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

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harness.adc_lut import lut_convert
from repro.adc import ConversionStats, SarAdc, TwinRangeAdc, TwinRangeSarAdc, UniformAdc
from repro.core import TRQParams, twin_range_levels
from repro.utils.numeric import round_half_up

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


def _level_buffers(values: np.ndarray):
    """Fresh ``(out, work, mask)`` buffers of a level function."""
    shape = (2,) + values.shape
    return np.empty_like(values), np.empty(shape), np.empty(shape, dtype=bool)


class TestUniformLevelsFuzz:
    @given(
        bits=st.integers(min_value=1, max_value=8),
        delta=st.sampled_from(DELTAS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_levels_into_matches_cycle_accurate(self, bits, delta, seed):
        """The allocation-free level function == per-element SAR search,
        and it returns its statistics without recording them."""
        values = _uniform_inputs(np.random.default_rng(seed), bits, delta)
        adc = UniformAdc(bits, delta)
        levels, work, mask = _level_buffers(values)
        stats = adc.levels_into(values, levels, work, mask)
        traces = [SarAdc(bits, delta).convert(v) for v in values]
        np.testing.assert_array_equal(levels * adc.level_scale, [t.output_value for t in traces])
        assert stats == ConversionStats(
            conversions=values.size, operations=sum(t.operations for t in traces)
        )
        assert adc.stats == ConversionStats()


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

    @given(
        n_r1=st.integers(min_value=1, max_value=6),
        n_r2=st.integers(min_value=1, max_value=7),
        m=st.integers(min_value=0, max_value=5),
        bias=st.integers(min_value=0, max_value=3),
        delta=st.sampled_from(DELTAS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_levels_into_matches_cycle_accurate(self, n_r1, n_r2, m, bias, delta, seed):
        """The allocation-free level function == per-element twin-range
        search, value, region and operation counts alike, and it returns
        its statistics without recording them."""
        params = TRQParams(n_r1=n_r1, n_r2=n_r2, m=m, delta_r1=delta, bias=bias)
        values = _trq_inputs(np.random.default_rng(seed), params)
        adc = TwinRangeAdc(params)
        levels, work, mask = _level_buffers(values)
        stats = adc.levels_into(values, levels, work, mask)
        traces = [TwinRangeSarAdc(params).convert(v) for v in values]
        np.testing.assert_array_equal(levels * adc.level_scale, [t.output_value for t in traces])
        in_r1 = sum(t.in_r1 for t in traces)
        assert stats == ConversionStats(
            conversions=values.size,
            operations=sum(t.operations for t in traces),
            detection_operations=sum(t.detection_operations for t in traces),
            in_r1=in_r1,
            in_r2=values.size - in_r1,
        )
        assert adc.stats == ConversionStats()

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


#: Steps of the level-function equality checks: the exact grid plus steps
#: whose quotients round.
STEPS = DELTAS + (0.1, 0.9, 3.7)


def _wide_inputs(rng: np.random.Generator, step: float, top: float) -> np.ndarray:
    """Integers, exact halves of the step, noisy floats of both signs, both
    zeros, values below 0 and above ``top``, infinities and NaN."""
    integers = rng.integers(-8, int(top) + 16, size=40).astype(np.float64)
    halves = (rng.integers(-4, int(top / step) + 8, size=16) + 0.5) * step
    noisy = rng.normal(top / 2, top, size=24)
    specials = np.array([0.0, -0.0, -step, -0.5 * step, top, top + step, 2 * top + 1,
                         np.inf, -np.inf, np.nan])
    return np.concatenate([integers, halves, noisy, specials])


def _reference_twin_range_levels(values, params):
    """The TRQ level formula in its plain allocating form, verbatim: the
    bit-identity reference of every TRQ level path (``twin_range_levels``,
    ``levels_into``, ``convert_levels`` and the transfer LUT)."""
    values = np.asarray(values, dtype=np.float64)
    in_r1 = values < params.r1_high
    if params.bias != 0:
        in_r1 = in_r1 & (values >= params.r1_low)

    max_code_r1 = (1 << params.n_r1) - 1
    codes_r1 = np.clip(round_half_up((values - params.r1_low) / params.delta_r1), 0, max_code_r1)
    max_code_r2 = (1 << params.n_r2) - 1
    codes_r2 = np.clip(round_half_up(values / params.delta_r2), 0, max_code_r2)

    offset = float(params.bias << params.n_r1)
    levels = np.where(in_r1, offset + codes_r1, codes_r2 * float(1 << params.m))
    return levels, in_r1


def _reference_uniform_codes(values, adc):
    """The uniform code formula in its plain allocating form, verbatim: the
    reference of ``levels_into``, ``convert_levels``, ``convert`` and the
    transfer LUT."""
    return np.clip(round_half_up(values / adc.delta), 0, adc.max_code)


class TestLevelFunctions:
    """Every level path of both converters goes through one allocation-free
    level function and equals the plain formula bit for bit, in place too,
    signs of zero included."""

    @staticmethod
    def _assert_same_bits(actual, expected):
        np.testing.assert_array_equal(actual, expected)
        np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))

    @given(
        n_r1=st.integers(min_value=1, max_value=6),
        n_r2=st.integers(min_value=1, max_value=7),
        m=st.integers(min_value=0, max_value=5),
        bias=st.integers(min_value=0, max_value=3),
        step=st.sampled_from(STEPS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_twin_range_level_path_equals_the_formula(
        self, n_r1, n_r2, m, bias, step, seed
    ):
        params = TRQParams(n_r1=n_r1, n_r2=n_r2, m=m, delta_r1=step, bias=bias)
        top = max(params.r2_max, params.r1_high)
        values = _wide_inputs(np.random.default_rng(seed), step, top).reshape(9, 10)
        expected, expected_r1 = _reference_twin_range_levels(values, params)
        levels, in_r1 = twin_range_levels(values, params)
        self._assert_same_bits(levels, expected)
        np.testing.assert_array_equal(in_r1, expected_r1)
        adc = TwinRangeAdc(params)
        levels, work, mask = _level_buffers(values)
        stats = adc.levels_into(values, levels, work, mask)
        self._assert_same_bits(levels, expected)
        assert stats.in_r1 == int(expected_r1.sum())
        in_place = values.copy()
        assert adc.levels_into(in_place, in_place, work, mask) == stats
        self._assert_same_bits(in_place, expected)
        converted, ops = adc.convert_levels(values)
        self._assert_same_bits(converted, expected)
        assert ops == stats.operations and adc.stats == stats
        inputs = np.arange(int(top) + 3, dtype=np.float64)
        np.testing.assert_array_equal(
            adc.transfer_lut(int(top) + 2).levels,
            _reference_twin_range_levels(inputs, params)[0],
        )

    @given(
        bits=st.integers(min_value=1, max_value=8),
        step=st.sampled_from(STEPS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_uniform_level_path_equals_the_formula(self, bits, step, seed):
        adc = UniformAdc(bits, step)
        values = _wide_inputs(np.random.default_rng(seed), step, adc.full_scale)
        expected = _reference_uniform_codes(values, adc)
        levels, work, mask = _level_buffers(values)
        stats = adc.levels_into(values, levels, work, mask)
        self._assert_same_bits(levels, expected)
        in_place = values.copy()
        adc.levels_into(in_place, in_place, work, mask)
        self._assert_same_bits(in_place, expected)
        converted, ops = adc.convert_levels(values)
        self._assert_same_bits(converted, expected)
        quantized, convert_ops = adc.convert(values)
        self._assert_same_bits(quantized, expected * step)
        assert ops == convert_ops == stats.operations
        inputs = np.arange(int(adc.full_scale) + 3, dtype=np.float64)
        lut = adc.transfer_lut(inputs.size - 1)
        reference = _reference_uniform_codes(inputs, adc)
        np.testing.assert_array_equal(lut.levels, reference)
        self._assert_same_bits(lut.values, reference * step)

    def test_convert_levels_wraps_the_level_function(self):
        """``convert_levels`` records what ``levels_into`` returns."""
        values = _wide_inputs(np.random.default_rng(3), 1.0, 40.0)[:-3]
        for adc in (TwinRangeAdc(TRQParams(n_r1=3, n_r2=4, m=2, bias=1)), UniformAdc(5, 1.0)):
            levels, work, mask = _level_buffers(values)
            stats = adc.levels_into(values, levels, work, mask)
            converted, ops = adc.convert_levels(values)
            np.testing.assert_array_equal(converted, levels)
            assert ops == stats.operations and adc.stats == stats

    def test_level_functions_allocate_no_array(self):
        """A 64 Ki-value tile converts without one array-sized allocation:
        what is traced is the returned statistics object, not data."""
        values = np.random.default_rng(5).normal(20.0, 30.0, size=(1024, 64))
        levels, work, mask = _level_buffers(values)
        for adc in (TwinRangeAdc(TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=0.7, bias=1)),
                    TwinRangeAdc(TRQParams(n_r1=2, n_r2=5, m=3)), UniformAdc(6, 3.7)):
            adc.levels_into(values, levels, work, mask)  # warm up
            tracemalloc.start()
            try:
                adc.levels_into(values, levels, work, mask)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4096, (type(adc).__name__, peak)
