"""Tests for the PIM simulator: capture, backend, end-to-end evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adc import uniform_config, twin_range_config
from repro.core import TRQParams, uniform_adc_configs
from repro.nonideal import ConductanceVariation, GaussianReadNoise, NonIdealityStack
from repro.quantization import FakeQuantBackend, attach_backend, detach_backend, quantize_model
from repro.nn import functional as F
from repro.quantization.ptq import find_mvm_layers
from repro.sim import DistributionCollector, PimSimulator
from repro.sim.pim_layer import PimBackend
from repro.sim.stats import LayerSimStats, SimulationResult


# --------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------- #
class TestCapture:
    def test_histogram_counts_every_value(self, rng):
        collector = DistributionCollector()
        collector.set_layer("a")
        blocks = [rng.integers(0, 20, size=(7, 5)) for _ in range(6)]
        for block in blocks:
            collector(np.bincount(block.ravel(), minlength=25))
        expected = np.bincount(np.concatenate([b.ravel() for b in blocks]))
        np.testing.assert_array_equal(collector.histogram("a"), expected)
        assert collector.histogram("a").sum() == sum(b.size for b in blocks)

    def test_histogram_grows_to_the_largest_value(self):
        """Each histogram ends at its highest counted value, however long
        the count vectors are."""
        collector = DistributionCollector()
        collector.set_layer("a")
        collector(np.array([1, 2, 0, 0]))
        assert collector.histogram("a").size == 2
        collector(np.array([0, 0, 0, 0, 0, 1, 0]))
        collector(np.array([0, 0, 1]))
        np.testing.assert_array_equal(collector.histogram("a"), [1, 2, 1, 0, 0, 1])

    def test_negative_counts_raise_and_empty_vectors_count_nothing(self):
        collector = DistributionCollector()
        collector.set_layer("a")
        collector(np.zeros(0, dtype=np.int64))
        collector(np.zeros(4, dtype=np.int64))
        assert collector.histogram("a").size == 0
        with pytest.raises(ValueError):
            collector(np.array([3, -1]))
        with pytest.raises(ValueError):
            collector(np.ones((2, 2), dtype=np.int64))

    def test_collector_routes_by_layer(self, rng):
        collector = DistributionCollector()
        with pytest.raises(RuntimeError):
            collector(np.array([0, 3]))
        collector.set_layer("a")
        collector(np.array([0, 5]))
        collector.set_layer("b")
        collector(np.array([3]))
        collector.set_layer("a")
        collector(np.array([0, 0, 2]))
        assert collector.layer_names == ["a", "b"]
        np.testing.assert_array_equal(collector.histogram("a"), [0, 5, 2])
        np.testing.assert_array_equal(collector.histogram("b"), [3])
        with pytest.raises(KeyError):
            collector.histogram("missing")
        assert list(collector.histograms()) == ["a", "b"]


# --------------------------------------------------------------------- #
# noise models (keyed repro.nonideal models, as the simulator takes them)
# --------------------------------------------------------------------- #
def _perturb(model, values, seed=0):
    state = NonIdealityStack([model], seed=seed).bind_layer(
        "layer", crossbar_size=values.shape[0], segment_sizes=(values.shape[0],),
        columns=values.shape[1], max_bitline=int(np.ceil(values.max())),
    )
    return state.perturb_block(values, segment=0, cycle=0)


class TestNoise:
    def test_no_noise_is_identity(self, lenet_workload, lenet_eval_data):
        """An empty stack runs the noise-free datapath bit for bit."""
        images, labels = lenet_eval_data
        sim = lenet_workload.simulator
        params = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=1.0)
        configs = {name: twin_range_config(params) for name in sim.layer_names()}
        clean = sim.evaluate(images[:8], labels[:8], configs, batch_size=8)
        empty = sim.evaluate(images[:8], labels[:8], configs, batch_size=8,
                             noise=NonIdealityStack([]))
        np.testing.assert_array_equal(empty.logits, clean.logits)
        assert empty.layer_stats == clean.layer_stats

    def test_gaussian_noise_perturbs_but_stays_non_negative(self):
        values = np.random.default_rng(22).uniform(0, 5, size=(40, 25))
        noisy = _perturb(GaussianReadNoise(sigma=1.0), values)
        assert not np.array_equal(noisy, values)
        assert noisy.min() == 0.0  # clamped, not reflected
        np.testing.assert_array_equal(_perturb(GaussianReadNoise(0.0), values), values)

    def test_proportional_noise(self):
        values = np.random.default_rng(23).uniform(1, 100, size=(20, 25))
        noisy = _perturb(ConductanceVariation(sigma=0.05), values)
        rel = np.abs(noisy - values) / values
        assert 0.0 < rel.mean() < 0.2
        with pytest.raises(ValueError):
            ConductanceVariation(-0.1)


# --------------------------------------------------------------------- #
# backend + simulator (uses the shared trained LeNet workload)
# --------------------------------------------------------------------- #
class TestSimulator:
    def test_ideal_pim_matches_fake_quant_reference(self, lenet_workload, lenet_eval_data):
        """With an ideal ADC, the crossbar datapath must equal plain 8/8
        fake-quantized inference (the bit-sliced merge is exact)."""
        images, labels = lenet_eval_data
        images = images[:16]
        quantized = lenet_workload.quantized
        model = lenet_workload.model

        result = lenet_workload.simulator.evaluate(images, labels[:16], None, batch_size=8)

        backend = FakeQuantBackend(quantized)
        attach_backend(model, backend)
        try:
            model.eval()
            reference_logits = model(images)
        finally:
            detach_backend(model)
        # Bias handling and dequantization differ only by float rounding.
        np.testing.assert_allclose(result.logits, reference_logits, rtol=1e-6, atol=1e-8)

    def test_layer_stats_are_populated(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        result = lenet_workload.simulator.evaluate(images[:8], labels[:8], None, batch_size=8)
        assert set(result.layer_stats) == set(lenet_workload.simulator.layer_names())
        for stats in result.layer_stats.values():
            assert stats.conversions > 0
            assert stats.operations == stats.conversions * 8  # ideal = baseline ops
            assert stats.mvm_count > 0
        assert result.remaining_ops_fraction == pytest.approx(1.0)
        assert result.summary()["accuracy"] == result.accuracy

    def test_uniform_adc_configs_change_ops_and_accuracy(self, lenet_workload,
                                                         lenet_eval_data,
                                                         lenet_bitline_histograms):
        images, labels = lenet_eval_data
        sim = lenet_workload.simulator
        low_bit = sim.evaluate(
            images[:16], labels[:16],
            uniform_adc_configs(lenet_bitline_histograms, bits=3),
            batch_size=8,
        )
        assert low_bit.remaining_ops_fraction == pytest.approx(3 / 8)
        assert low_bit.total_operations == 3 * low_bit.total_conversions

    def test_trq_configs_reduce_ops(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        sim = lenet_workload.simulator
        params = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=1.0)
        configs = {name: twin_range_config(params) for name in sim.layer_names()}
        result = sim.evaluate(images[:16], labels[:16], configs, batch_size=8)
        assert result.remaining_ops_fraction < 1.0
        assert result.ops_reduction_factor > 1.0
        # Some conversions must land in each region for a realistic layer.
        total_r1 = sum(s.in_r1 for s in result.layer_stats.values())
        total_r2 = sum(s.in_r2 for s in result.layer_stats.values())
        assert total_r1 > 0 and total_r2 > 0

    def test_noise_degrades_or_preserves_accuracy_but_runs(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        sim = lenet_workload.simulator
        result = sim.evaluate(images[:8], labels[:8], None, batch_size=8,
                              noise=NonIdealityStack([GaussianReadNoise(sigma=0.5)]))
        assert 0.0 <= result.accuracy <= 1.0

    def test_collect_bitline_distributions(self, lenet_workload, lenet_bitline_histograms):
        """One count vector per layer, in forward order, holding one count
        per ideal conversion of the captured images."""
        sim = lenet_workload.simulator
        assert list(lenet_bitline_histograms) == sim.layer_names()
        ideal = sim.evaluate(
            lenet_workload.calibration.images[:8],
            lenet_workload.calibration.labels[:8], None, batch_size=8,
        )
        for name, histogram in lenet_bitline_histograms.items():
            assert histogram.dtype == np.int64 and histogram.min() >= 0
            assert histogram[-1] > 0  # trimmed to the largest observed value
            assert histogram.sum() == ideal.layer_stats[name].conversions

    def test_accuracy_evaluator_closure(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        evaluator = lenet_workload.simulator.accuracy_evaluator(images[:8], labels[:8], batch_size=8)
        assert 0.0 <= evaluator(None) <= 1.0

    def test_mapping_summary(self, lenet_workload):
        footprints = lenet_workload.simulator.mapping_summary()
        assert set(footprints) == set(lenet_workload.simulator.layer_names())
        assert all(f.conversions_per_mvm > 0 for f in footprints.values())

    def test_batch_size_invariance(self, lenet_workload, lenet_eval_data):
        images, labels = lenet_eval_data
        sim = lenet_workload.simulator
        a = sim.evaluate(images[:12], labels[:12], None, batch_size=4)
        b = sim.evaluate(images[:12], labels[:12], None, batch_size=12)
        np.testing.assert_allclose(a.logits, b.logits, rtol=1e-9)
        assert a.total_conversions == b.total_conversions


# --------------------------------------------------------------------- #
# stats containers
# --------------------------------------------------------------------- #
class TestBackendInputCodes:
    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((2, 2), (1, 1)), ((2, 1), (2, 0))])
    def test_conv2d_quantizes_before_im2col_exactly(self, lenet_workload, rng, stride, padding):
        """Quantizing each activation once and unfolding its codes, padded
        with the code of 0.0, gives the codes and the outputs of quantizing
        every im2col window (the order before the codes came first)."""
        quantized = lenet_workload.quantized
        backend = PimBackend(quantized)
        name, layer = next(
            (name, layer) for name, layer in find_mvm_layers(quantized.model)
            if quantized.layer(name).kind == "conv" and layer.in_channels > 1
        )
        params = quantized.layer(name).input_params
        x = rng.uniform(0.0, 1.2 * params.scale * params.qmax, size=(2, layer.in_channels, 9, 10))
        x[0, 0, 0, :3] = [0.0, 0.5 * params.scale, params.scale * params.qmax]
        cols, (oh, ow) = F.im2col(x, layer.kernel_size, stride, padding)
        expected_codes = params.quantize(cols)
        codes, pad_code = backend._input_codes(name, x)
        assert codes.dtype == np.uint8 and pad_code == 0
        unfolded, _ = F.im2col(codes, layer.kernel_size, stride, padding, pad_code)
        assert unfolded.dtype == np.uint8
        np.testing.assert_array_equal(unfolded, expected_codes)

        bias = layer.bias.data
        expected = backend._execute(name, "conv", expected_codes) + bias
        expected = expected.reshape(2, oh, ow, -1).transpose(0, 3, 1, 2)
        got = backend.conv2d(layer, x, layer.weight.data, bias, stride, padding)
        np.testing.assert_array_equal(got, expected)


class TestStats:
    def test_layer_stats_fractions(self):
        stats = LayerSimStats(name="l", kind="conv", conversions=100, operations=400)
        assert stats.mean_ops_per_conversion == 4.0
        assert stats.remaining_fraction(8) == 0.5
        empty = LayerSimStats(name="e", kind="conv")
        assert empty.mean_ops_per_conversion == 0.0
        assert empty.remaining_fraction(8) == 0.0

    def test_simulation_result_aggregation(self):
        layers = {
            "a": LayerSimStats(name="a", kind="conv", conversions=10, operations=40),
            "b": LayerSimStats(name="b", kind="linear", conversions=10, operations=80),
        }
        result = SimulationResult(accuracy=0.9, num_images=4, layer_stats=layers,
                                  baseline_ops_per_conversion=8)
        assert result.total_conversions == 20
        assert result.total_operations == 120
        assert result.mean_ops_per_conversion == 6.0
        assert result.remaining_ops_fraction == pytest.approx(0.75)
        assert result.ops_reduction_factor == pytest.approx(1 / 0.75)
        per_layer = result.per_layer_remaining_fraction()
        assert per_layer["a"] == pytest.approx(0.5)
