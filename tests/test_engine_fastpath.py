"""Fast-engine equivalence and sampler bugfix regression tests.

The fused cycle/segment kernel with integer-domain LUT conversion
(``engine="fast"``) must be *bit-identical* to the per-(cycle, segment)
reference loop — same merged outputs (``np.array_equal``), same A/D-operation
totals, same conversion/region statistics — for every converter type.  These
tests pin that contract at the mapped-layer level and end-to-end through
:class:`repro.sim.PimSimulator`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adc import NonUniformAdc, TwinRangeAdc, UniformAdc, twin_range_config, uniform_config
from repro.core import TRQParams
from repro.crossbar import CrossbarTopology, MappedMVMLayer
from repro.nonideal import GaussianReadNoise as KeyedReadNoise
from repro.nonideal import NonIdealityStack
from repro.quantization import QuantizationConfig
from repro.sim import DistributionCollector, PimSimulator, ReservoirSampler
from repro.sim.pim_layer import PimBackend


def _assert_engines_agree(layer, inputs, make_adc):
    ref_adc, fast_adc = make_adc(), make_adc()
    ref, ref_ops = layer.matmul(inputs, adc=ref_adc, engine="reference")
    fast, fast_ops = layer.matmul(inputs, adc=fast_adc, engine="fast")
    np.testing.assert_array_equal(ref, fast)
    assert ref_ops == fast_ops
    if ref_adc is not None:
        assert ref_adc.stats == fast_adc.stats
    return ref


class TestEngineEquivalence:
    def test_ideal_conversion_bit_identical(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(300, 9)))
        inputs = rng.integers(0, 256, size=(17, 300))
        _assert_engines_agree(layer, inputs, lambda: None)

    def test_uniform_adc_bit_identical(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(140, 7)))
        inputs = rng.integers(0, 256, size=(11, 140))
        _assert_engines_agree(layer, inputs, lambda: UniformAdc(bits=5, delta=3.7))

    def test_twin_range_adc_bit_identical(self, rng):
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))
        inputs = rng.integers(0, 256, size=(13, 200))
        params = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=0.9, bias=3)
        _assert_engines_agree(layer, inputs, lambda: TwinRangeAdc(params))

    def test_nonuniform_adc_bit_identical(self, rng):
        """Converters without an integer level grid use the element-wise
        fallback inside the fused kernel and must still match exactly."""
        layer = MappedMVMLayer(rng.integers(-7, 8, size=(30, 4)),
                               QuantizationConfig(weight_bits=4, activation_bits=4))
        inputs = rng.integers(0, 16, size=(9, 30))
        grid = np.unique(rng.uniform(0.0, layer.max_bitline_value + 1.0, size=13))
        _assert_engines_agree(layer, inputs, lambda: NonUniformAdc(grid))

    @pytest.mark.parametrize("crossbar_size,bits_per_cell,dac_bits", [
        (16, 1, 1), (64, 2, 1), (128, 1, 2), (32, 2, 2),
    ])
    def test_bit_identical_across_topologies(self, rng, crossbar_size, bits_per_cell, dac_bits):
        topology = CrossbarTopology(crossbar_size, bits_per_cell, dac_bits)
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(90, 6)),
                               QuantizationConfig(), topology)
        inputs = rng.integers(0, 256, size=(7, 90))
        params = TRQParams(n_r1=3, n_r2=6, m=2, delta_r1=1.0, bias=1)
        _assert_engines_agree(layer, inputs, lambda: TwinRangeAdc(params))
        _assert_engines_agree(layer, inputs, lambda: None)

    def test_fast_engine_is_chunk_invariant(self, rng):
        """Reused scratch buffers must not leak state between calls."""
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(150, 8)))
        adc = TwinRangeAdc(TRQParams(n_r1=2, n_r2=5, m=3))
        big = rng.integers(0, 256, size=(64, 150))
        whole, _ = layer.matmul(big, adc=adc, engine="fast")
        parts = [layer.matmul(big[i : i + 16], adc=adc, engine="fast")[0] for i in range(0, 64, 16)]
        np.testing.assert_array_equal(whole, np.concatenate(parts, axis=0))

    def test_observer_sees_same_values_in_both_engines(self, rng):
        """The fast engine hands the observer the reference engine's blocks,
        segment-major with the input cycle innermost: fast block ``s·C + c``
        is reference block ``c·S + s``, value for value and dtype for dtype.
        The reservoir sampler draws one uniform per value in arrival order,
        so every stored capture depends on this exact sequence.  Holds for
        the LUT path, the fallback path and ideal conversion, with and
        without read noise (observers see pre-noise values)."""
        layer = MappedMVMLayer(rng.integers(-127, 128, size=(300, 4)))
        inputs = rng.integers(0, 256, size=(5, 300))
        segments, cycles = layer.num_segments, layer.num_input_cycles
        assert segments >= 2 and cycles == 8
        grid = np.unique(rng.uniform(0.0, layer.max_bitline_value + 1.0, size=13))
        converters = {
            "ideal": lambda: None,
            "twin_range": lambda: TwinRangeAdc(TRQParams(n_r1=2, n_r2=5, m=3)),
            "nonuniform": lambda: NonUniformAdc(grid),
        }
        stack = NonIdealityStack([KeyedReadNoise(sigma=0.5)], seed=1)
        for converter, make_adc in converters.items():
            for noisy in (False, True):
                seen = {}
                for engine in ("reference", "fast"):
                    blocks = seen[engine] = []
                    noise = stack.bind_mapped("fc", layer).next_chunk() if noisy else None
                    layer.matmul(
                        inputs,
                        adc=make_adc(),
                        partial_observer=lambda block, kept=blocks: kept.append(np.array(block)),
                        engine=engine,
                        noise=noise,
                    )
                ref, fast = seen["reference"], seen["fast"]
                case = f"{converter}, noisy={noisy}"
                assert len(ref) == len(fast) == segments * cycles, case
                for s in range(segments):
                    for c in range(cycles):
                        expected, got = ref[c * segments + s], fast[s * cycles + c]
                        assert expected.dtype == got.dtype, case
                        np.testing.assert_array_equal(expected, got, err_msg=case)

    def test_unknown_engine_rejected(self, rng):
        layer = MappedMVMLayer(rng.integers(-3, 4, size=(4, 2)),
                               QuantizationConfig(weight_bits=3, activation_bits=2))
        with pytest.raises(ValueError):
            layer.matmul(np.zeros((1, 4), dtype=int), engine="warp")

    def test_fast_engine_rejects_out_of_range_inputs(self, rng):
        layer = MappedMVMLayer(rng.integers(-3, 4, size=(4, 2)),
                               QuantizationConfig(weight_bits=3, activation_bits=2))
        with pytest.raises(ValueError):
            layer.matmul(np.array([[-1, 0, 0, 0]]), engine="fast")
        with pytest.raises(ValueError):
            layer.matmul(np.array([[0, 0, 0, 99]]), engine="fast")


class TestSimulatorEngineEquivalence:
    def test_end_to_end_bit_identical(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        images, labels = images[:8], labels[:8]
        names = lenet_workload.simulator.layer_names()
        configs = {
            name: twin_range_config(TRQParams(n_r1=2, n_r2=5, m=3))
            if index % 2 == 0
            else uniform_config(resolution=8, bits=4)
            for index, name in enumerate(names)
        }
        results = {}
        for engine in ("reference", "fast"):
            sim = PimSimulator(lenet_workload.quantized, engine=engine)
            results[engine] = sim.evaluate(images, labels, configs, batch_size=4)
        ref, fast = results["reference"], results["fast"]
        np.testing.assert_array_equal(ref.logits, fast.logits)
        assert set(ref.layer_stats) == set(fast.layer_stats)
        for name in ref.layer_stats:
            a, b = ref.layer_stats[name], fast.layer_stats[name]
            assert (a.conversions, a.operations, a.in_r1, a.in_r2) == (
                b.conversions, b.operations, b.in_r1, b.in_r2
            ), name

    def test_backend_rejects_unknown_engine(self, lenet_workload):
        with pytest.raises(ValueError):
            PimBackend(lenet_workload.quantized, engine="turbo")

    def test_default_engine_is_fast(self, lenet_workload):
        assert PimBackend(lenet_workload.quantized).engine == "fast"
        assert PimSimulator(lenet_workload.quantized).engine == "fast"


class TestAdcLut:
    def test_convert_codes_matches_convert_bitwise(self, rng):
        params = TRQParams(n_r1=3, n_r2=5, m=2, delta_r1=0.7, bias=1)
        values = rng.integers(0, 129, size=(64, 33))
        a, b = TwinRangeAdc(params), TwinRangeAdc(params)
        ref, ref_ops = a.convert(values.astype(np.float64))
        lut_q, lut_ops = b.convert_codes(values, 128)
        np.testing.assert_array_equal(ref, lut_q)
        assert ref_ops == lut_ops
        assert a.stats == b.stats

    def test_uniform_convert_codes_matches_convert(self, rng):
        adc_a, adc_b = UniformAdc(bits=4, delta=2.3), UniformAdc(bits=4, delta=2.3)
        values = rng.integers(0, 129, size=200)
        ref, _ = adc_a.convert(values.astype(np.float64))
        lut_q, _ = adc_b.convert_codes(values, 128)
        np.testing.assert_array_equal(ref, lut_q)

    def test_levels_times_scale_reconstruct_quantized(self):
        """The integer-level invariant: scale · level reconstructs the
        quantized value (to within 1 ulp of the element-wise float path)."""
        params = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=1.5, bias=0)
        adc = TwinRangeAdc(params)
        lut = adc.transfer_lut(128)
        np.testing.assert_allclose(
            lut.levels.astype(np.float64) * lut.scale, lut.values, rtol=0, atol=1e-12
        )
        assert lut.levels.dtype == np.uint8  # compact storage for the merge

    def test_lut_bound_violation_raises(self):
        adc = UniformAdc(bits=4, delta=1.0)
        with pytest.raises(ValueError):
            adc.convert_codes(np.array([200]), 128)
        with pytest.raises(ValueError):
            adc.transfer_lut(-1)


# --------------------------------------------------------------------- #
# satellite bugfixes (reservoir capacity + per-layer seeds)
# --------------------------------------------------------------------- #
class TestReservoirCapacityRegression:
    def test_one_huge_block_cannot_exceed_capacity(self):
        """Regression: a block much larger than ``total_seen`` used to be
        accepted almost wholesale and appended after eviction without
        clamping, overshooting the documented capacity bound."""
        for seed in range(20):
            sampler = ReservoirSampler(capacity=100, seed=seed)
            sampler.add(np.arange(10.0))          # small history ...
            sampler.add(np.arange(50_000.0))      # ... then one huge block
            assert len(sampler) <= 100, f"seed {seed}: {len(sampler)} > 100"
            assert sampler.values.size == len(sampler)

    def test_capacity_bound_holds_under_any_block_sequence(self, rng):
        sampler = ReservoirSampler(capacity=64, seed=1)
        for _ in range(50):
            sampler.add(rng.normal(size=int(rng.integers(1, 5000))))
            assert len(sampler) <= 64
        assert sampler.total_seen > 64

    def test_huge_first_block_is_uniformly_clamped(self):
        sampler = ReservoirSampler(capacity=100, seed=0)
        sampler.add(np.arange(100_000.0))
        # Acceptance is stochastic at rate capacity/total_seen, so the fill is
        # approximate — but the capacity bound is hard.
        assert 50 <= len(sampler) <= 100
        # A uniform subsample of [0, 100000) should span the range broadly.
        assert sampler.values.max() > 50_000


class TestCollectorSeedIndependence:
    def test_layers_draw_independent_acceptance_streams(self):
        """Regression: every layer used to receive the *same* seed, so all
        reservoirs accepted identical index streams (correlated subsampling)."""
        collector = DistributionCollector(capacity_per_layer=200, seed=123)
        data = np.arange(20_000.0)
        for layer in ("a", "b"):
            collector.set_layer(layer)
            collector(data)
            collector(data)
        kept_a = set(collector.samples("a").tolist())
        kept_b = set(collector.samples("b").tolist())
        assert kept_a != kept_b  # identical streams would retain identical sets

    def test_collection_is_reproducible_for_fixed_seed(self):
        def collect():
            collector = DistributionCollector(capacity_per_layer=100, seed=7)
            collector.set_layer("x")
            collector(np.arange(5_000.0))
            return collector.samples("x")

        np.testing.assert_array_equal(collect(), collect())
