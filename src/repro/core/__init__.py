"""The paper's contribution: Twin Range Quantization and the co-design search."""

from repro.core.calibration import (
    CalibrationResult,
    LayerAdcSetting,
    LayerCalibrationResult,
    TwinRangeCalibrator,
)
from repro.core.co_design import (
    CoDesignOptimizer,
    CoDesignResult,
    setting_to_adc_config,
    settings_to_adc_configs,
    uniform_adc_configs,
)
from repro.core.distribution import (
    DistributionSummary,
    DistributionType,
    add_histograms,
    histogram_values,
    required_resolution,
    summarize_distribution,
    weighted_quantile,
)
from repro.core.objectives import (
    CandidateEvaluation,
    evaluate_trq_candidate,
    evaluate_uniform_candidate,
    select_candidate,
    trq_energy_ops,
    trq_mse,
)
from repro.core.search_space import (
    DEFAULT_SEARCH_SPACE,
    SearchSpaceConfig,
    candidate_params,
    uniform_fallback_bits,
    v_grid_candidates,
)
from repro.core.trq import (
    TRQParams,
    classify_regions,
    decode,
    encode,
    mean_ad_operations,
    quantization_mse,
    twin_range_levels,
    twin_range_quantize,
    uniform_reference_quantize,
)

__all__ = [
    "CalibrationResult",
    "CandidateEvaluation",
    "CoDesignOptimizer",
    "CoDesignResult",
    "DEFAULT_SEARCH_SPACE",
    "DistributionSummary",
    "DistributionType",
    "LayerAdcSetting",
    "LayerCalibrationResult",
    "SearchSpaceConfig",
    "TRQParams",
    "TwinRangeCalibrator",
    "add_histograms",
    "candidate_params",
    "classify_regions",
    "decode",
    "encode",
    "evaluate_trq_candidate",
    "evaluate_uniform_candidate",
    "histogram_values",
    "mean_ad_operations",
    "quantization_mse",
    "required_resolution",
    "select_candidate",
    "setting_to_adc_config",
    "settings_to_adc_configs",
    "summarize_distribution",
    "trq_energy_ops",
    "trq_mse",
    "twin_range_levels",
    "twin_range_quantize",
    "uniform_adc_configs",
    "uniform_fallback_bits",
    "uniform_reference_quantize",
    "v_grid_candidates",
    "weighted_quantile",
]
