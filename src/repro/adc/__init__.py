"""SAR ADC substrate: uniform and twin-range converters.

The cycle-accurate models (:mod:`repro.adc.sar`) define the behaviour; the
vectorised models (:mod:`repro.adc.uniform`, :mod:`repro.adc.trq`) are the
ones the simulator uses for throughput and are tested to agree with the
cycle-accurate reference.  Energy accounting follows paper Eq. 2-6.
"""

from repro.adc.config import AdcConfig, AdcMode, twin_range_config, uniform_config
from repro.adc.counters import ConversionStats
from repro.adc.energy import (
    DEFAULT_ADC_ENERGY,
    AdcEnergyParams,
    conversions_per_mvm,
    ideal_adc_resolution,
)
from repro.adc.lut import AdcTransferLut, LutConversionMixin
from repro.adc.sar import ConversionTrace, SarAdc, TwinRangeSarAdc, build_cycle_accurate_adc
from repro.adc.trq import TwinRangeAdc, build_adc
from repro.adc.uniform import UniformAdc, ideal_adc_for_resolution

__all__ = [
    "AdcConfig",
    "AdcEnergyParams",
    "AdcMode",
    "AdcTransferLut",
    "LutConversionMixin",
    "ConversionStats",
    "ConversionTrace",
    "DEFAULT_ADC_ENERGY",
    "SarAdc",
    "TwinRangeAdc",
    "TwinRangeSarAdc",
    "UniformAdc",
    "build_adc",
    "build_cycle_accurate_adc",
    "conversions_per_mvm",
    "ideal_adc_for_resolution",
    "ideal_adc_resolution",
    "twin_range_config",
    "uniform_config",
]
