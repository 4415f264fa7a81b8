"""Tests for the SAR ADC substrate: uniform and twin-range models.

The central property, checked exhaustively and with hypothesis, is that the
vectorised converters used by the simulator agree step-for-step with the
cycle-accurate SAR searches that define the hardware behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import (
    AdcConfig,
    AdcEnergyParams,
    AdcMode,
    ConversionStats,
    SarAdc,
    TwinRangeAdc,
    TwinRangeSarAdc,
    UniformAdc,
    build_adc,
    build_cycle_accurate_adc,
    conversions_per_mvm,
    ideal_adc_for_resolution,
    ideal_adc_resolution,
    twin_range_config,
    uniform_config,
)
from repro.core.trq import TRQParams


# --------------------------------------------------------------------- #
# configuration registers
# --------------------------------------------------------------------- #
class TestAdcConfig:
    def test_uniform_defaults(self):
        config = uniform_config(resolution=8)
        assert config.effective_uniform_bits == 8
        assert config.full_scale == pytest.approx(255.0)
        narrower = uniform_config(resolution=8, bits=5, v_grid=0.5)
        assert narrower.effective_uniform_bits == 5

    def test_uniform_bits_cannot_exceed_resolution(self):
        with pytest.raises(ValueError):
            uniform_config(resolution=8, bits=9)

    def test_twin_range_validation(self):
        params = TRQParams(n_r1=2, n_r2=4, m=3)
        config = twin_range_config(params, resolution=8)
        assert config.mode is AdcMode.TWIN_RANGE
        with pytest.raises(ValueError):
            AdcConfig(resolution=8, mode=AdcMode.TWIN_RANGE, trq=None)
        with pytest.raises(ValueError):
            twin_range_config(TRQParams(n_r1=2, n_r2=9, m=0), resolution=8)
        with pytest.raises(ValueError):
            twin_range_config(TRQParams(n_r1=2, n_r2=4, m=5), resolution=8)

    def test_with_v_grid_copy(self):
        config = uniform_config(resolution=8, v_grid=1.0)
        copy = config.with_v_grid(2.0)
        assert copy.v_grid == 2.0 and config.v_grid == 1.0


# --------------------------------------------------------------------- #
# cycle-accurate vs vectorised: uniform
# --------------------------------------------------------------------- #
class TestUniformAdc:
    def test_full_resolution_is_lossless_on_integers(self):
        adc = UniformAdc(bits=8, delta=1.0)
        values = np.arange(0, 129, dtype=np.float64)
        quantized, ops = adc.convert(values)
        np.testing.assert_array_equal(quantized, values)
        assert ops == values.size * 8
        assert adc.stats.mean_ops_per_conversion == 8.0

    def test_reduced_precision_enlarges_step(self):
        config = uniform_config(resolution=8, bits=4, v_grid=1.0)
        adc = UniformAdc.from_config(config)
        assert adc.delta == 16.0
        quantized, _ = adc.convert(np.array([3.0, 120.0]))
        assert quantized[0] == 0.0
        assert quantized[1] % 16 == 0

    def test_from_config_rejects_trq_mode(self):
        config = twin_range_config(TRQParams(2, 4, 3), resolution=8)
        with pytest.raises(ValueError):
            UniformAdc.from_config(config)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformAdc(bits=0, delta=1.0)
        with pytest.raises(ValueError):
            UniformAdc(bits=4, delta=0.0)

    @given(
        bits=st.integers(min_value=1, max_value=9),
        delta=st.floats(min_value=0.05, max_value=8.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_vectorised_matches_cycle_accurate(self, bits, delta, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-delta, (1 << bits) * delta * 1.1, size=64)
        vectorised = UniformAdc(bits, delta)
        cycle = SarAdc(bits, delta)
        quantized, total_ops = vectorised.convert(values)
        traces = [cycle.convert(v) for v in values]
        np.testing.assert_allclose(quantized, [t.output_value for t in traces], atol=1e-9)
        assert total_ops == sum(t.operations for t in traces)

    def test_cycle_accurate_trace_contents(self):
        trace = SarAdc(bits=3, delta=1.0).convert(5.2)
        assert trace.output_code == 5
        assert len(trace.thresholds) == 3 and len(trace.decisions) == 3
        assert trace.operations == 3

    def test_ideal_adc_builder(self):
        adc = ideal_adc_for_resolution(8)
        assert adc.bits == 8 and adc.delta == 1.0


# --------------------------------------------------------------------- #
# cycle-accurate vs vectorised: twin range
# --------------------------------------------------------------------- #
class TestTwinRangeAdc:
    @pytest.mark.parametrize("params", [
        TRQParams(n_r1=3, n_r2=4, m=3, delta_r1=1.0, bias=0),
        TRQParams(n_r1=2, n_r2=5, m=2, delta_r1=0.5, bias=1),
        TRQParams(n_r1=4, n_r2=4, m=4, delta_r1=1.0, bias=2),
        TRQParams(n_r1=1, n_r2=6, m=1, delta_r1=2.0, bias=0),
    ])
    def test_matches_cycle_accurate(self, params, rng):
        vectorised = TwinRangeAdc(params)
        cycle = TwinRangeSarAdc(params)
        values = rng.uniform(0, params.r2_max * 1.1, size=200)
        quantized, total_ops = vectorised.convert(values)
        traces = [cycle.convert(v) for v in values]
        np.testing.assert_allclose(quantized, [t.output_value for t in traces], atol=1e-9)
        assert total_ops == sum(t.operations for t in traces)
        assert vectorised.stats.in_r1 == sum(t.in_r1 for t in traces)

    @given(
        n_r1=st.integers(min_value=1, max_value=6),
        n_r2=st.integers(min_value=1, max_value=7),
        m=st.integers(min_value=0, max_value=5),
        bias=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_cycle_accurate(self, n_r1, n_r2, m, bias, seed):
        params = TRQParams(n_r1=n_r1, n_r2=n_r2, m=m, delta_r1=1.0, bias=bias)
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, max(params.r2_max, params.r1_high) * 1.2, size=50)
        quantized, ops = TwinRangeAdc(params).convert(values)
        cycle = TwinRangeSarAdc(params)
        traces = [cycle.convert(v) for v in values]
        np.testing.assert_allclose(quantized, [t.output_value for t in traces], atol=1e-9)
        assert ops == sum(t.operations for t in traces)

    def test_ops_accounting_follows_eq9(self):
        params = TRQParams(n_r1=2, n_r2=6, m=2, delta_r1=1.0, bias=0)
        adc = TwinRangeAdc(params)
        values = np.array([0.0, 1.0, 3.0, 100.0])  # three in R1 ([0,4)), one in R2
        _, ops = adc.convert(values)
        assert ops == 4 * 1 + 3 * 2 + 1 * 6
        assert adc.stats.in_r1 == 3 and adc.stats.in_r2 == 1
        assert adc.stats.r1_fraction == pytest.approx(0.75)
        assert adc.stats.remaining_fraction(8) == pytest.approx(ops / (4 * 8))

    def test_detection_cost_doubles_with_bias(self):
        no_bias = TRQParams(n_r1=2, n_r2=4, m=2, bias=0)
        with_bias = TRQParams(n_r1=2, n_r2=4, m=2, bias=1)
        assert no_bias.detection_ops == 1 and with_bias.detection_ops == 2

    def test_region_mask_and_reset(self):
        params = TRQParams(n_r1=2, n_r2=4, m=2, delta_r1=1.0)
        adc = TwinRangeAdc(params)
        mask = adc.region_mask(np.array([0.0, 3.9, 4.0, 50.0]))
        np.testing.assert_array_equal(mask, [True, True, False, False])
        adc.convert(np.zeros(5))
        adc.reset_stats()
        assert adc.stats.conversions == 0

    def test_build_adc_dispatch(self):
        assert isinstance(build_adc(uniform_config()), UniformAdc)
        assert isinstance(build_adc(twin_range_config(TRQParams(2, 4, 3))), TwinRangeAdc)
        assert isinstance(build_cycle_accurate_adc(uniform_config()), SarAdc)
        assert isinstance(
            build_cycle_accurate_adc(twin_range_config(TRQParams(2, 4, 3))), TwinRangeSarAdc
        )
        with pytest.raises(ValueError):
            TwinRangeAdc.from_config(uniform_config())


# --------------------------------------------------------------------- #
# a zero-skewed bit-line distribution
# --------------------------------------------------------------------- #
class TestSkewedDistribution:
    def test_trq_resolves_the_dense_values_in_r1(self, skewed_samples):
        """On the zero-skewed bit-line distribution of paper Fig. 3a, the
        values below ``θ`` — most of them — take the ``NR1``-step search,
        so a conversion costs far fewer operations than the 8-op baseline.

        (This test also draws ``skewed_samples`` from the session ``rng``
        where the deleted non-uniform ADC tests did, so every later test
        sees the same samples as before.)
        """
        params = TRQParams(n_r1=3, n_r2=5, m=2)
        adc = TwinRangeAdc(params)
        _, ops = adc.convert(skewed_samples)
        in_r1 = int(np.count_nonzero(skewed_samples < params.r1_high))
        in_r2 = skewed_samples.size - in_r1
        assert adc.stats == ConversionStats(
            conversions=skewed_samples.size,
            operations=ops,
            detection_operations=skewed_samples.size,
            in_r1=in_r1,
            in_r2=in_r2,
        )
        assert ops == skewed_samples.size + 3 * in_r1 + 5 * in_r2
        assert adc.stats.r1_fraction > 0.85
        assert adc.stats.mean_ops_per_conversion < 5


# --------------------------------------------------------------------- #
# energy model and counters
# --------------------------------------------------------------------- #
class TestEnergyAndCounters:
    def test_ideal_resolution_eq2(self):
        assert ideal_adc_resolution(128, 1, 1) == 8
        assert ideal_adc_resolution(128, 2, 2) == 11
        assert ideal_adc_resolution(256, 1, 1) == 9
        with pytest.raises(ValueError):
            ideal_adc_resolution(1)

    def test_conversions_per_mvm_eq3(self):
        count = conversions_per_mvm(128, 300, 17, weight_bits=8, activation_bits=8)
        assert count == 8 * 7 * 3 * 2 * 17
        non_diff = conversions_per_mvm(128, 100, 4, differential=False)
        assert non_diff == 8 * 8 * 1 * 1 * 4

    def test_energy_params(self):
        params = AdcEnergyParams(energy_per_operation=1e-12)
        assert params.conversion_energy(8) == pytest.approx(8e-12)
        with pytest.raises(ValueError):
            params.conversion_energy(-1)
        stats = ConversionStats()
        stats.record(conversions=10, operations=55)
        assert params.energy_from_stats(stats) == pytest.approx(55e-12)
        total = params.total_inference_energy(100, 50, 4.0)
        assert total == pytest.approx(100 * 50 * 4.0 * 1e-12)
        with pytest.raises(ValueError):
            AdcEnergyParams(energy_per_operation=0.0)

    def test_counter_merge_and_reset(self):
        a = ConversionStats()
        a.record(conversions=4, operations=20, in_r1=3, in_r2=1)
        b = ConversionStats()
        b.record(conversions=6, operations=18, detection_operations=6)
        a.merge(b)
        assert a.conversions == 10 and a.operations == 38
        assert a.mean_ops_per_conversion == pytest.approx(3.8)
        a.reset()
        assert a.conversions == 0 and a.r1_fraction == 0.0
        assert a.remaining_fraction(8) == 0.0
