"""Integration tests reproducing the paper's headline claims on a small workload.

These are the tests that tie the whole stack together: trained model → PTQ →
crossbar/ADC simulation → distribution analysis → Algorithm 1 → evaluation.
They assert the *qualitative* results of the paper (who wins and roughly by
how much), not absolute numbers — see DESIGN.md for the substitution notes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CoDesignOptimizer,
    DistributionType,
    SearchSpaceConfig,
    add_histograms,
    histogram_values,
    settings_to_adc_configs,
    summarize_distribution,
    uniform_adc_configs,
    weighted_quantile,
)
from repro.workloads import prepare_workload


@pytest.fixture(scope="module")
def codesign_result(lenet_workload, lenet_eval_data):
    """Run the co-design pipeline once (fixed Nmax=4, no outer loop) and share it."""
    images, labels = lenet_eval_data
    optimizer = CoDesignOptimizer(
        lenet_workload.model,
        lenet_workload.calibration.images,
        lenet_workload.calibration.labels,
        search_space=SearchSpaceConfig(num_v_grid_candidates=12),
    )
    result = optimizer.run(images, labels, batch_size=16,
                           use_accuracy_loop=False, initial_n_max=4)
    return optimizer, result


class TestBitlineDistribution:
    def test_majority_of_layers_are_skewed_toward_zero(self, lenet_bitline_histograms):
        """Paper Fig. 3a / Section III-A: BL outputs concentrate near zero."""
        low_mass = []
        for histogram in lenet_bitline_histograms.values():
            maximum = histogram.size - 1
            low_mass.append(histogram[: maximum // 4 + 1].sum() / histogram.sum())
        pooled = add_histograms(lenet_bitline_histograms.values())
        # In the large majority of layers, more than half the values sit in
        # the bottom quarter of the observed range, and the pooled
        # distribution is strongly bottom-heavy.
        assert np.mean(np.array(low_mass) > 0.5) >= 0.6
        values, counts = histogram_values(pooled)
        assert weighted_quantile(values, counts, 50) <= values[-1] / 4.0

    def test_distribution_classifier_finds_structure(self, lenet_bitline_histograms):
        kinds = {
            name: summarize_distribution(*histogram_values(histogram)).kind
            for name, histogram in lenet_bitline_histograms.items()
        }
        assert all(isinstance(kind, DistributionType) for kind in kinds.values())


class TestCoDesignHeadline:
    def test_accuracy_within_threshold_of_ideal(self, codesign_result):
        _, result = codesign_result
        # TRQ at a 4-bit budget stays close to the ideal-conversion accuracy.
        assert result.final_accuracy >= result.baseline_accuracy - 0.11

    def test_ad_operations_reduced_into_paper_range(self, codesign_result):
        _, result = codesign_result
        # Paper Fig. 6c: 42%-62% of operations remain (1.6-2.3x).  Allow a
        # wider band since the workload is a scaled-down synthetic one.
        assert 0.30 <= result.remaining_ops_fraction <= 0.80
        assert result.ops_reduction_factor > 1.2

    def test_trq_beats_uniform_quantization_at_equal_bit_budget(
        self, codesign_result, lenet_workload, lenet_eval_data, lenet_bitline_histograms
    ):
        """The paper's central comparison (Fig. 6a vs 6b): at the same sensing
        bit budget, TRQ preserves more accuracy than uniform quantization."""
        optimizer, result = codesign_result
        images, labels = lenet_eval_data
        uniform = lenet_workload.simulator.evaluate(
            images, labels, uniform_adc_configs(lenet_bitline_histograms, bits=3), batch_size=16
        )
        assert result.final_accuracy >= uniform.accuracy - 1e-9
        # And TRQ uses no more A/D operations than a 5-bit uniform ADC would.
        assert result.remaining_ops_fraction <= 5 / 8 + 1e-9

    def test_calibration_decisions_are_consistent(self, codesign_result):
        _, result = codesign_result
        for name, layer_result in result.calibration.layers.items():
            setting = layer_result.setting
            if setting.use_trq:
                assert setting.trq is not None
                assert max(setting.trq.n_r1, setting.trq.n_r2) <= 4
            else:
                assert setting.uniform_bits is not None and setting.uniform_bits <= 4
            assert layer_result.predicted_mean_ops <= 8.0
        configs = settings_to_adc_configs(result.calibration.settings, resolution=8)
        assert set(configs) == set(result.calibration.layers)

    def test_predicted_ops_match_measured_ops(self, codesign_result):
        """The calibration-time Eq. 9 estimate should track the simulator."""
        _, result = codesign_result
        predicted = result.calibration.predicted_remaining_fraction(8)
        measured = result.remaining_ops_fraction
        assert abs(predicted - measured) < 0.2


class TestAccuracyLoop:
    def test_outer_loop_respects_accuracy_threshold(self, lenet_workload, lenet_eval_data):
        """Run the full Algorithm 1 outer loop on a reduced search space."""
        images, labels = lenet_eval_data
        optimizer = CoDesignOptimizer(
            lenet_workload.model,
            lenet_workload.calibration.images,
            lenet_workload.calibration.labels,
            search_space=SearchSpaceConfig(num_v_grid_candidates=6),
            accuracy_threshold=0.05,
            min_n_max=3,
        )
        result = optimizer.run(images[:32], labels[:32], batch_size=16,
                               use_accuracy_loop=True, initial_n_max=5)
        assert result.accuracy_drop <= 0.05 + 1e-9
        assert 3 <= result.calibration.n_max <= 5
        assert len(result.calibration.accuracy_history) >= 1


class TestWorkloadPreparation:
    def test_prepare_workload_cache_round_trip(self, tmp_path):
        first = prepare_workload(
            "lenet5", preset="tiny", train_size=64, test_size=32,
            calibration_images=8, epochs=2, seed=11, cache_dir=str(tmp_path),
        )
        second = prepare_workload(
            "lenet5", preset="tiny", train_size=64, test_size=32,
            calibration_images=8, epochs=2, seed=11, cache_dir=str(tmp_path),
        )
        for (_, a), (_, b) in zip(
            first.model.named_parameters(), second.model.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)
        assert first.float_accuracy == pytest.approx(second.float_accuracy)
        assert len(first.calibration) == 8
        assert first.eval_split(10).images.shape[0] == 10
        assert first.eval_split().images.shape[0] == 32
