"""Tests for the objectives, search space and Algorithm 1 calibration search."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_SEARCH_SPACE,
    DistributionSummary,
    DistributionType,
    LayerAdcSetting,
    SearchSpaceConfig,
    TRQParams,
    TwinRangeCalibrator,
    candidate_params,
    evaluate_trq_candidate,
    evaluate_uniform_candidate,
    histogram_values,
    required_resolution,
    select_candidate,
    settings_to_adc_configs,
    summarize_distribution,
    trq_energy_ops,
    trq_mse,
    twin_range_quantize,
    uniform_adc_configs,
    uniform_fallback_bits,
    uniform_reference_quantize,
    v_grid_candidates,
    weighted_quantile,
)
from repro.adc import AdcMode


def bincount(samples: np.ndarray) -> np.ndarray:
    """The bit-line histogram of integer-valued samples (a capture's form)."""
    return np.bincount(samples.astype(np.int64))


def plain(samples):
    """A plain sample as a weighted distribution: ``(x, ones)``."""
    samples = np.asarray(samples, dtype=np.float64)
    return samples, np.ones(samples.size, dtype=np.int64)


# --------------------------------------------------------------------- #
# objectives (Eq. 9 / Eq. 10)
# --------------------------------------------------------------------- #
class TestObjectives:
    def test_energy_counts_detection_and_regions(self):
        params = TRQParams(n_r1=2, n_r2=6, m=2, delta_r1=1.0, bias=0)
        # A weighted distribution costs what the sample it counts costs.
        assert trq_energy_ops([0.0, 9.0], [3, 1], params) == trq_energy_ops(
            *plain([0.0, 0.0, 0.0, 9.0]), params
        )
        values = np.array([0.0, 1.0, 2.0, 100.0])
        # 4 detections + 3 samples in R1 (2 ops each) + 1 in R2 (6 ops).
        assert trq_energy_ops(*plain(values), params) == 4 + 6 + 6
        assert trq_energy_ops(*plain([]), params) == 0.0

    def test_mse_zero_on_grid(self):
        params = TRQParams(n_r1=3, n_r2=3, m=0, delta_r1=1.0)
        values = np.arange(8, dtype=np.float64)
        assert trq_mse(*plain(values), params) == 0.0
        # Off the grid, the weighted MSE is the expanded sample's.
        coarse = TRQParams(n_r1=2, n_r2=2, m=1, delta_r1=1.0)
        assert trq_mse([1.0, 5.0], [2, 3], coarse) == pytest.approx(
            trq_mse(*plain([1.0, 1.0, 5.0, 5.0, 5.0]), coarse), rel=1e-12
        )

    def test_candidate_evaluations(self, skewed_samples):
        params = TRQParams(n_r1=3, n_r2=7, m=4, delta_r1=1.0)
        trq_eval = evaluate_trq_candidate(*plain(skewed_samples), params)
        assert 0.0 < trq_eval.r1_fraction < 1.0
        assert trq_eval.mean_ops_per_conversion < 8.0
        uniform_eval = evaluate_uniform_candidate(*plain(skewed_samples), 7, 1.0)
        assert uniform_eval.is_uniform and uniform_eval.mean_ops_per_conversion == 7.0

    def test_select_candidate_prefers_lower_energy_within_tolerance(self, skewed_samples):
        trq_eval = evaluate_trq_candidate(
            *plain(skewed_samples), TRQParams(n_r1=3, n_r2=7, m=4, delta_r1=1.0)
        )
        uniform_eval = evaluate_uniform_candidate(*plain(skewed_samples), 7, 1.0)
        mse_scale = float(np.mean(skewed_samples**2))
        chosen = select_candidate(trq_eval, uniform_eval, mse_tolerance=0.1, mse_scale=mse_scale)
        assert chosen is trq_eval  # fewer ops, error small relative to the data scale

    def test_select_candidate_falls_back_on_mse(self):
        good_mse = evaluate_uniform_candidate(*plain(np.arange(16.0)), 4, 1.0)  # exact
        bad_trq = evaluate_trq_candidate(
            *plain(np.arange(16.0)), TRQParams(n_r1=1, n_r2=1, m=3, delta_r1=1.0)
        )
        chosen = select_candidate(bad_trq, good_mse, mse_tolerance=0.05)
        assert chosen is good_mse
        with pytest.raises(ValueError):
            select_candidate(bad_trq, good_mse, mse_tolerance=-1)


# --------------------------------------------------------------------- #
# search space
# --------------------------------------------------------------------- #
class TestSearchSpace:
    def test_v_grid_candidates_span_alpha_beta(self):
        space = SearchSpaceConfig(num_v_grid_candidates=5)
        grids = v_grid_candidates(255.0, space)
        assert len(grids) == 5
        assert grids[0] == pytest.approx(0.1 * 255 / 255)
        assert grids[-1] == pytest.approx(1.2 * 255 / 255)
        assert np.all(np.diff(grids) > 0)
        np.testing.assert_array_equal(v_grid_candidates(0.0, space), [1.0])

    def test_search_space_validation(self):
        with pytest.raises(ValueError):
            SearchSpaceConfig(alpha=1.5, beta=1.0)
        with pytest.raises(ValueError):
            SearchSpaceConfig(m_min=3, m_max=1)

    def test_candidates_ideal_distribution_use_eq11_structure(self, skewed_samples):
        summary = summarize_distribution(*plain(skewed_samples))
        assert summary.kind is DistributionType.IDEAL
        candidates = list(candidate_params(summary, skewed_samples, 1.0, n_max=6))
        assert candidates
        # Ideal case: bias fixed to zero, one NR1 value per candidate, shared M.
        assert all(c.bias == 0 for c in candidates)
        assert all(c.delta_r1 == 1.0 for c in candidates)
        assert len({c.n_r1 for c in candidates}) == len(candidates)
        # Hardware constraint M <= RADC - NR2 is always respected.
        assert all(c.m <= DEFAULT_SEARCH_SPACE.adc_resolution - c.n_r2 for c in candidates)

    def test_candidates_normal_distribution_search_bias(self, normal_samples):
        summary = summarize_distribution(*plain(normal_samples))
        candidates = list(candidate_params(summary, normal_samples, 1.0, n_max=5))
        assert any(c.bias > 0 for c in candidates)

    def test_candidates_other_distribution_equal_bits(self, multimodal_samples):
        summary = summarize_distribution(*plain(multimodal_samples))
        candidates = list(candidate_params(summary, multimodal_samples, 1.0, n_max=5))
        assert candidates
        assert all(c.n_r1 == c.n_r2 for c in candidates)
        assert len({c.m for c in candidates}) > 1

    def test_uniform_fallback_bits(self, skewed_samples):
        bits, delta = uniform_fallback_bits(skewed_samples, v_grid=1.0, n_max=5)
        assert bits == 5
        assert delta == pytest.approx(skewed_samples.max() / 31)
        bits_small, _ = uniform_fallback_bits(np.array([0.0, 3.0]), v_grid=1.0, n_max=7)
        assert bits_small == 2  # Rideal = ceil(log2(4)) = 2


# --------------------------------------------------------------------- #
# calibration (Algorithm 1)
# --------------------------------------------------------------------- #
class TestCalibration:
    def _calibrator(self, **kwargs) -> TwinRangeCalibrator:
        space = SearchSpaceConfig(num_v_grid_candidates=8)
        defaults = dict(search_space=space)
        defaults.update(kwargs)
        return TwinRangeCalibrator(**defaults)

    def test_layer_calibration_on_skewed_data_saves_ops(self, skewed_samples):
        calibrator = self._calibrator()
        summary, trq_eval, uniform_eval = calibrator.calibrate_layer(
            *plain(skewed_samples), n_max=7
        )
        assert summary.kind is DistributionType.IDEAL
        assert trq_eval is not None
        # The whole point of the paper: fewer mean ops than the 8-op baseline.
        assert trq_eval.mean_ops_per_conversion < 8.0
        assert trq_eval.r1_fraction > 0.5

    def test_full_calibration_without_accuracy_loop(self, skewed_samples, normal_samples,
                                                    multimodal_samples):
        calibrator = self._calibrator()
        result = calibrator.calibrate(
            {"a": bincount(skewed_samples), "b": bincount(normal_samples),
             "c": bincount(multimodal_samples)}
        )
        assert set(result.layers) == {"a", "b", "c"}
        assert result.n_max == 7  # single iteration at RADC - 1
        assert result.final_accuracy is None
        assert 0.0 < result.predicted_remaining_fraction(8) <= 1.0
        # Settings convert cleanly into hardware configuration registers.
        configs = settings_to_adc_configs(result.settings, resolution=8)
        assert set(configs) == {"a", "b", "c"}
        for config in configs.values():
            assert config.mode in (AdcMode.UNIFORM, AdcMode.TWIN_RANGE)

    def test_accuracy_loop_lowers_nmax_until_threshold(self, skewed_samples):
        calibrator = self._calibrator(accuracy_threshold=0.02, min_n_max=2)
        samples = {"layer": bincount(skewed_samples)}

        # Synthetic oracle: accuracy degrades as the sensing bit budget drops.
        accuracy_by_nmax = {7: 0.90, 6: 0.90, 5: 0.895, 4: 0.87, 3: 0.80, 2: 0.70}
        calls = []

        def accuracy_fn(settings):
            bits = max(s.sensing_bits for s in settings.values())
            calls.append(bits)
            return accuracy_by_nmax[bits]

        result = calibrator.calibrate(samples, accuracy_fn=accuracy_fn, baseline_accuracy=0.90)
        # Nmax=4 drops accuracy by 0.03 > 0.02, so the accepted config is Nmax=5.
        assert result.n_max == 5
        assert result.final_accuracy == pytest.approx(0.895)
        assert len(result.accuracy_history) >= 3

    def test_accuracy_loop_keeps_first_config_if_it_already_violates(self, skewed_samples):
        calibrator = self._calibrator(accuracy_threshold=0.001)
        result = calibrator.calibrate(
            {"layer": bincount(skewed_samples)},
            accuracy_fn=lambda settings: 0.5,
            baseline_accuracy=0.9,
        )
        assert result.n_max == 7
        assert result.final_accuracy == 0.5

    def test_validation(self, skewed_samples):
        calibrator = self._calibrator()
        with pytest.raises(ValueError):
            calibrator.calibrate({})
        with pytest.raises(ValueError):
            calibrator.calibrate({"a": bincount(skewed_samples)}, accuracy_fn=lambda s: 1.0)
        with pytest.raises(ValueError):
            calibrator.calibrate_layer(*plain([]), n_max=4)
        with pytest.raises(ValueError, match="3 counts for 2 values"):
            calibrator.calibrate_layer(np.array([0.0, 1.0]), np.ones(3), n_max=4)
        with pytest.raises(ValueError):
            TwinRangeCalibrator(accuracy_threshold=-0.1)

    def test_layer_adc_setting_validation(self):
        with pytest.raises(ValueError):
            LayerAdcSetting(use_trq=True, trq=None)
        with pytest.raises(ValueError):
            LayerAdcSetting(use_trq=False, uniform_bits=None, uniform_delta=None)
        setting = LayerAdcSetting(use_trq=False, uniform_bits=5, uniform_delta=0.5)
        assert setting.sensing_bits == 5

    def test_uniform_adc_configs_helper(self, skewed_samples):
        configs = uniform_adc_configs({"a": bincount(skewed_samples)}, bits=4, resolution=8)
        config = configs["a"]
        assert config.mode is AdcMode.UNIFORM and config.effective_uniform_bits == 4
        # Full scale of the 4-bit grid covers the observed maximum.
        delta = config.v_grid * (1 << (8 - 4))
        assert delta * 15 == pytest.approx(skewed_samples.max())


# --------------------------------------------------------------------- #
# weighted distributions: Algorithm 1 on a histogram is Algorithm 1 on the
# sample it counts
# --------------------------------------------------------------------- #
@st.composite
def bitline_samples(draw) -> np.ndarray:
    """Integer bit-line-like samples of every distribution class: skewed
    toward zero, unimodal away from zero, bimodal, flat or constant."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = draw(st.integers(min_value=1, max_value=600))
    top = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["skewed", "normal", "bimodal", "flat", "constant"]))
    if kind == "skewed":
        values = rng.geometric(draw(st.floats(min_value=0.1, max_value=0.9)), size) - 1
    elif kind == "normal":
        values = np.round(rng.normal(0.6 * top, 0.1 * top + 0.5, size))
    elif kind == "bimodal":
        values = np.round(np.concatenate([
            rng.normal(0.2 * top, 1.0, size), rng.normal(0.8 * top, 1.5, size),
        ]))
    elif kind == "flat":
        values = rng.integers(0, top + 1, size)
    else:
        values = np.full(size, draw(st.integers(min_value=0, max_value=top)))
    return np.clip(values, 0, top).astype(np.float64)


def _reference_summary(values: np.ndarray):
    """An unweighted implementation of ``summarize_distribution``: every
    statistic from the expanded sample itself, with NumPy's own reductions."""
    minimum, maximum = float(values.min()), float(values.max())
    mean, std = float(values.mean()), float(values.std())
    skewness = 0.0 if std == 0 else float(np.mean(((values - mean) / std) ** 3))
    value_range = maximum - minimum
    mass_low = float(np.mean(values <= minimum + value_range / 8.0)) if value_range > 0 else 1.0
    num_modes, mode_position = 1, minimum
    if value_range > 0:
        counts, edges = np.histogram(values, bins=32)
        if values.size >= 4:
            kernel = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / 9.0
            smoothed = np.convolve(counts.astype(np.float64), kernel, mode="same")
            padded = np.concatenate([[-np.inf], smoothed, [-np.inf]])
            peaks = (smoothed >= padded[:-2]) & (smoothed > padded[2:])
            num_modes = max(1, int(np.sum(peaks & (smoothed >= 0.15 * smoothed.max()))))
        peak = int(np.argmax(counts))
        mode_position = float((edges[peak] + edges[peak + 1]) / 2.0)
    if mass_low >= 0.6 and skewness >= 1.0:
        kind = DistributionType.IDEAL
    else:
        concentration = float(np.mean(np.abs(values - mode_position) <= std)) if std > 0 else 1.0
        kind = (
            DistributionType.NORMAL if num_modes == 1 and concentration >= 0.55
            else DistributionType.OTHER
        )
    return DistributionSummary(
        kind=kind, count=int(values.size), minimum=minimum, maximum=maximum,
        mean=mean, std=std, skewness=skewness,
        zero_fraction=float(np.mean(values <= 0)), mass_in_low_eighth=mass_low,
        mode_position=mode_position, num_modes=num_modes,
    )


def _reference_layer_setting(values: np.ndarray, n_max: int, space, mse_tolerance=0.05):
    """An unweighted implementation of Algorithm 1's per-layer search, with
    the same Eq. 10 rule (MSEs within relative 1e-12 tie and go to fewer
    A/D operations): ``(setting, selected mse, selected energy)``."""
    summary = _reference_summary(values)
    sorted_values = np.sort(values)
    best = None
    for v_grid in v_grid_candidates(summary.maximum, space):
        best_params, best_energy = None, np.inf
        for params in candidate_params(summary, values, float(v_grid), n_max, space):
            lo = np.searchsorted(sorted_values, params.r1_low, side="left")
            hi = np.searchsorted(sorted_values, params.r1_high, side="left")
            num_r1 = int(hi - lo)
            energy = (values.size * params.detection_ops + num_r1 * params.n_r1
                      + (values.size - num_r1) * params.n_r2)
            if energy < best_energy:
                best_params, best_energy = params, energy
        quantized, _ = twin_range_quantize(values, best_params)
        mse = float(np.mean((values - quantized) ** 2))
        tie = best is not None and np.isclose(mse, best[1], rtol=1e-12, atol=0.0)
        if best is None or (best_energy < best[2] if tie else mse < best[1]):
            best = (best_params, mse, float(best_energy))
    bits = max(1, min(n_max, required_resolution(values)))
    delta = summary.maximum / ((1 << bits) - 1) if summary.maximum > 0 else 1.0
    uniform_mse = float(np.mean((values - uniform_reference_quantize(values, bits, delta)) ** 2))
    uniform = (None, uniform_mse, float(values.size * bits))
    trq = best
    lower, other = (trq, uniform) if trq[2] <= uniform[2] else (uniform, trq)
    if lower[1] <= (1.0 + mse_tolerance) * max(other[1], 1e-12):
        chosen = lower
    else:
        chosen = trq if trq[1] <= uniform[1] else uniform
    if chosen[0] is None:
        setting = LayerAdcSetting(use_trq=False, uniform_bits=bits, uniform_delta=delta)
    else:
        setting = LayerAdcSetting(use_trq=True, trq=chosen[0])
    return setting, chosen[1], chosen[2]


def assert_same_summary(summary, reference) -> None:
    """Equal summaries: exact counts and class, moments to float tolerance
    (sums over distinct values and over every sample round differently)."""
    for name in ("kind", "count", "minimum", "maximum", "zero_fraction",
                 "mass_in_low_eighth", "mode_position", "num_modes"):
        assert getattr(summary, name) == getattr(reference, name), name
    for name in ("mean", "std", "skewness"):
        assert getattr(summary, name) == pytest.approx(
            getattr(reference, name), rel=1e-9, abs=1e-12
        ), name


class TestWeightedAlgorithm1:
    SPACE = SearchSpaceConfig(num_v_grid_candidates=12)

    @given(bitline_samples(), st.integers(min_value=2, max_value=7))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_histogram_and_sample_give_the_same_search(self, samples, n_max):
        """The search on ``(unique(x), counts)`` and on ``(x, ones)`` — every
        sample, unsorted, with a unit count — gives the same summary, the
        same best TRQ and uniform settings and equal evaluations."""
        calibrator = TwinRangeCalibrator(search_space=self.SPACE)
        values, counts = np.unique(samples, return_counts=True)
        weighted = calibrator.calibrate_layer(values, counts, n_max)
        unweighted = calibrator.calibrate_layer(*plain(samples), n_max)
        assert_same_summary(weighted[0], unweighted[0])
        for left, right in zip(weighted[1:], unweighted[1:]):
            assert left.params == right.params and left.uniform_bits == right.uniform_bits
            assert left.energy_ops == right.energy_ops
            assert left.mse == pytest.approx(right.mse, rel=1e-12, abs=1e-15)
            assert left.r1_fraction == right.r1_fraction

    @given(bitline_samples(), st.integers(min_value=2, max_value=7))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_histogram_search_selects_the_settings_of_the_plain_sample(self, samples, n_max):
        """Algorithm 1 on the bit-line histogram selects what the unweighted
        search selects on every sample, with evaluations equal to float
        tolerance (sums over distinct values reorder the float additions)."""
        calibrator = TwinRangeCalibrator(search_space=self.SPACE)
        result = calibrator.calibrate({"layer": bincount(samples)}, initial_n_max=n_max)
        layer = result.layers["layer"]
        assert_same_summary(layer.summary, _reference_summary(samples))
        setting, mse, energy = _reference_layer_setting(samples, n_max, self.SPACE)
        assert layer.setting == setting
        assert layer.selected_evaluation.energy_ops == energy
        assert layer.selected_evaluation.mse == pytest.approx(mse, rel=1e-9, abs=1e-12)

    def test_histogram_values_drop_absent_values_and_reject_bad_counts(self):
        values, counts = histogram_values(np.array([0, 3, 0, 0, 4]))
        np.testing.assert_array_equal(values, [1.0, 4.0])
        np.testing.assert_array_equal(counts, [3, 4])
        with pytest.raises(ValueError, match="non-negative"):
            histogram_values(np.array([1, -1]))
        with pytest.raises(ValueError, match="integers"):
            histogram_values(np.array([0.5, 1.0]))

    @given(bitline_samples(), st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_weighted_quantile_is_numpy_percentile_of_the_sample(self, samples, q):
        values, counts = histogram_values(bincount(samples))
        assert weighted_quantile(values, counts, q) == pytest.approx(
            np.percentile(samples, q), rel=1e-12, abs=1e-12
        )
