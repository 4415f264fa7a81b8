"""Fast-vs-reference engine equivalence under device noise.

PR 1 established bit-identity of the two engines for deterministic
converters; noisy runs used to diverge because ``_NoisyAdcWrapper`` fed both
engines from one mutable RNG stream in different block orders.  The
counter-based keyed sampling of :mod:`repro.nonideal` removes that defect,
and these tests pin the strengthened contract: with **any** registered noise
model (and compositions thereof), ``engine="fast"`` and
``engine="reference"`` produce bit-identical outputs and identical
A/D-operation and region statistics — at the mapped-layer level (fuzzed over
model parameters, seeds and ADC configurations), across chunked calls, and
end-to-end through :class:`repro.sim.PimSimulator` including
``run_monte_carlo`` reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import NonUniformAdc, TwinRangeAdc, UniformAdc, twin_range_config, uniform_config
from repro.core import TRQParams
from repro.crossbar import MappedMVMLayer
from repro.nonideal import (
    ConductanceVariation,
    GaussianReadNoise,
    IRDropAttenuation,
    NonIdealityStack,
    RetentionDrift,
    StuckAtFaults,
)
from repro.sim import PimSimulator

TRQ = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=0.9, bias=1)

STACK_RECIPES = {
    "gaussian": [GaussianReadNoise(sigma=0.6)],
    "gaussian_relative": [GaussianReadNoise(sigma=0.02, relative=True)],
    "variation": [ConductanceVariation(sigma=0.08)],
    "variation_quantized": [ConductanceVariation(sigma=0.08, quantize=True)],
    "stuck_at": [StuckAtFaults(rate_on=0.01, rate_off=0.02)],
    "drift": [RetentionDrift(time=50.0, nu=0.08)],
    "ir_drop": [IRDropAttenuation(alpha=0.15)],
    "integer_composite": [
        ConductanceVariation(sigma=0.05, quantize=True),
        StuckAtFaults(rate_on=0.005),
        RetentionDrift(time=10.0, nu=0.05),
    ],
    "continuous_composite": [
        ConductanceVariation(sigma=0.05),
        StuckAtFaults(rate_on=0.005),
        IRDropAttenuation(alpha=0.1),
        GaussianReadNoise(sigma=0.4),
    ],
}

ADC_FACTORIES = {
    "twin_range": lambda: TwinRangeAdc(TRQ),
    "uniform": lambda: UniformAdc(bits=5, delta=2.5),
    "ideal": lambda: None,
}


def _assert_engines_agree_with_noise(layer, inputs, make_adc, stack, chunks=1):
    """Run both engines over the same chunk sequence and require bit-parity."""
    outputs, ops, stats = {}, {}, {}
    for engine in ("reference", "fast"):
        adc = make_adc()
        state = stack.bind_mapped("layer", layer)
        merged_chunks = []
        total_ops = 0
        per_chunk = -(-inputs.shape[0] // chunks)
        for start in range(0, inputs.shape[0], per_chunk):
            state.next_chunk()
            merged, chunk_ops = layer.matmul(
                inputs[start : start + per_chunk], adc=adc, engine=engine, noise=state
            )
            merged_chunks.append(merged)
            total_ops += chunk_ops
        outputs[engine] = np.concatenate(merged_chunks, axis=0)
        ops[engine] = total_ops
        stats[engine] = getattr(adc, "stats", None)
    np.testing.assert_array_equal(outputs["reference"], outputs["fast"])
    assert ops["reference"] == ops["fast"]
    assert stats["reference"] == stats["fast"]
    return outputs["reference"]


@pytest.fixture(scope="module")
def small_layer():
    rng = np.random.default_rng(42)
    return MappedMVMLayer(rng.integers(-127, 128, size=(200, 5)))


@pytest.fixture(scope="module")
def small_inputs():
    return np.random.default_rng(43).integers(0, 256, size=(12, 200))


class TestMappedLayerNoiseEquivalence:
    @pytest.mark.parametrize("adc_kind", sorted(ADC_FACTORIES))
    @pytest.mark.parametrize("stack_name", sorted(STACK_RECIPES))
    def test_bit_identical_under_every_model(
        self, small_layer, small_inputs, stack_name, adc_kind
    ):
        stack = NonIdealityStack(STACK_RECIPES[stack_name], seed=7)
        _assert_engines_agree_with_noise(
            small_layer, small_inputs, ADC_FACTORIES[adc_kind], stack
        )

    def test_bit_identical_across_chunked_calls(self, small_layer, small_inputs):
        """The chunk counter keys fresh noise per chunk; both engines chunk
        identically, so multi-chunk executions must stay bit-identical too
        — and differ from the single-chunk execution (fresh draws)."""
        stack = NonIdealityStack([GaussianReadNoise(sigma=0.6)], seed=7)
        whole = _assert_engines_agree_with_noise(
            small_layer, small_inputs, ADC_FACTORIES["twin_range"], stack, chunks=1
        )
        split = _assert_engines_agree_with_noise(
            small_layer, small_inputs, ADC_FACTORIES["twin_range"], stack, chunks=3
        )
        assert not np.array_equal(whole, split)

    def test_noisy_nonuniform_adc_bit_identical(self, rng):
        """Converters without a level grid use the element-wise fallback;
        keyed noise must keep them bit-identical as well."""
        from repro.quantization import QuantizationConfig

        layer = MappedMVMLayer(rng.integers(-7, 8, size=(30, 4)),
                               QuantizationConfig(weight_bits=4, activation_bits=4))
        inputs = rng.integers(0, 16, size=(9, 30))
        grid = np.unique(rng.uniform(0.0, layer.max_bitline_value + 1.0, size=13))
        stack = NonIdealityStack([GaussianReadNoise(sigma=0.3)], seed=1)
        _assert_engines_agree_with_noise(layer, inputs, lambda: NonUniformAdc(grid), stack)

    def test_pure_value_map_uses_composed_lut(self, small_layer, small_inputs):
        """A drift-only stack must keep the fast engine's LUT path (the
        perturbed-AdcTransferLut integration), not the element-wise
        fallback: its composed value map exists and the converted stats
        still match the reference loop exactly."""
        stack = NonIdealityStack([RetentionDrift(time=50.0, nu=0.08)], seed=0)
        state = stack.bind_mapped("layer", small_layer)
        assert state.integer_domain
        assert state.pure_value_map() is not None
        _assert_engines_agree_with_noise(
            small_layer, small_inputs, ADC_FACTORIES["twin_range"], stack
        )

    @given(
        sigma=st.floats(min_value=0.0, max_value=2.0),
        rate_on=st.floats(min_value=0.0, max_value=0.05),
        quantize=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
        bias=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_fuzz_random_stacks_and_params(self, sigma, rate_on, quantize, seed, bias):
        rng = np.random.default_rng(seed)
        layer = MappedMVMLayer(rng.integers(-31, 32, size=(60, 3)))
        inputs = rng.integers(0, 256, size=(5, 60))
        stack = NonIdealityStack(
            [
                ConductanceVariation(sigma=sigma * 0.1, quantize=quantize),
                StuckAtFaults(rate_on=rate_on),
                GaussianReadNoise(sigma=sigma),
            ],
            seed=seed,
        )
        params = TRQParams(n_r1=2, n_r2=5, m=2, delta_r1=1.0, bias=bias)
        _assert_engines_agree_with_noise(
            layer, inputs, lambda: TwinRangeAdc(params), stack
        )


class TestSimulatorNoiseEquivalence:
    @pytest.fixture(scope="class")
    def noisy_configs(self, lenet_workload):
        names = lenet_workload.simulator.layer_names()
        return {
            name: twin_range_config(TRQParams(n_r1=2, n_r2=5, m=3))
            if index % 2 == 0
            else uniform_config(resolution=8, bits=4)
            for index, name in enumerate(names)
        }

    def test_end_to_end_noisy_bit_identical(
        self, lenet_workload, lenet_eval_data, noisy_configs
    ):
        images, labels = lenet_eval_data
        images, labels = images[:8], labels[:8]
        stack = NonIdealityStack(
            [
                ConductanceVariation(sigma=0.05),
                StuckAtFaults(rate_on=1e-3),
                GaussianReadNoise(sigma=0.5),
            ],
            seed=3,
        )
        results = {}
        for engine in ("reference", "fast"):
            sim = PimSimulator(lenet_workload.quantized, engine=engine)
            results[engine] = sim.evaluate(
                images, labels, noisy_configs, batch_size=4, noise=stack
            )
        ref, fast = results["reference"], results["fast"]
        np.testing.assert_array_equal(ref.logits, fast.logits)
        for name in ref.layer_stats:
            a, b = ref.layer_stats[name], fast.layer_stats[name]
            assert (a.conversions, a.operations, a.in_r1, a.in_r2) == (
                b.conversions, b.operations, b.in_r1, b.in_r2
            ), name

    def test_noisy_run_is_reproducible_and_distinct(
        self, lenet_workload, lenet_eval_data, noisy_configs
    ):
        images, labels = lenet_eval_data
        images, labels = images[:6], labels[:6]
        sim = PimSimulator(lenet_workload.quantized)
        stack = NonIdealityStack([GaussianReadNoise(sigma=0.8)], seed=5)
        a = sim.evaluate(images, labels, noisy_configs, batch_size=3, noise=stack)
        b = sim.evaluate(images, labels, noisy_configs, batch_size=3, noise=stack)
        np.testing.assert_array_equal(a.logits, b.logits)
        clean = sim.evaluate(images, labels, noisy_configs, batch_size=3)
        assert not np.array_equal(a.logits, clean.logits)

    def test_monte_carlo_reproduces_exactly_under_fixed_seed(
        self, lenet_workload, lenet_eval_data, noisy_configs
    ):
        images, labels = lenet_eval_data
        images, labels = images[:6], labels[:6]
        sim = PimSimulator(lenet_workload.quantized)
        stack = NonIdealityStack(
            [GaussianReadNoise(sigma=0.5), StuckAtFaults(rate_on=1e-3)], seed=0
        )
        kwargs = dict(adc_configs=noisy_configs, trials=3, batch_size=3, seed=11)
        first = sim.run_monte_carlo(images, labels, stack, **kwargs)
        second = sim.run_monte_carlo(images, labels, stack, **kwargs)
        np.testing.assert_array_equal(first.accuracies, second.accuracies)
        np.testing.assert_array_equal(first.flip_rates, second.flip_rates)
        assert first.layer_stats.keys() == second.layer_stats.keys()
        for name in first.layer_stats:
            assert first.layer_stats[name] == second.layer_stats[name]

    def test_monte_carlo_zero_noise_matches_clean(
        self, lenet_workload, lenet_eval_data
    ):
        images, labels = lenet_eval_data
        images, labels = images[:6], labels[:6]
        sim = PimSimulator(lenet_workload.quantized)
        stack = NonIdealityStack(
            [GaussianReadNoise(sigma=0.0), StuckAtFaults()], seed=0
        )
        result = sim.run_monte_carlo(images, labels, stack, trials=2, batch_size=3)
        assert result.mean_accuracy == result.clean_accuracy
        assert result.std_accuracy == 0.0
        assert result.mean_flip_rate == 0.0

    def test_monte_carlo_requires_noise(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        sim = PimSimulator(lenet_workload.quantized)
        with pytest.raises(ValueError):
            sim.run_monte_carlo(images[:2], labels[:2], None, trials=1)
        with pytest.raises(ValueError):
            sim.run_monte_carlo(images[:2], labels[:2], [], trials=1)

    @pytest.mark.parametrize("run", ["evaluate", "run_monte_carlo"])
    def test_apply_only_noise_objects_are_rejected(
        self, lenet_workload, lenet_eval_data, run
    ):
        """Noise must be a keyed model, stack or spec list: an object with
        only an ``apply(values)`` method fails before any layer runs."""

        class ApplyOnly:
            def apply(self, values):
                return values

        images, labels = lenet_eval_data
        sim = PimSimulator(lenet_workload.quantized)
        with pytest.raises(TypeError, match="ApplyOnly"):
            getattr(sim, run)(images[:2], labels[:2], noise=ApplyOnly())
