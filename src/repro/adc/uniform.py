"""Vectorised uniform SAR ADC model (the conventional baseline).

This is the throughput-oriented counterpart of the cycle-accurate
:class:`repro.adc.sar.SarAdc`: it converts whole arrays of bit-line values at
once using the closed-form transfer function of a K-step binary search
(``code = round_half_up(v / Δ)`` clamped to the code range, ``K`` A/D
operations per conversion) and accumulates :class:`ConversionStats`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.adc.config import AdcConfig, AdcMode, uniform_config
from repro.adc.counters import ConversionStats
from repro.adc.lut import AdcTransferLut, LutConversionMixin, compact_levels
from repro.utils.numeric import round_half_up


class UniformAdc(LutConversionMixin):
    """Uniform SAR ADC converting arrays of values.

    Parameters
    ----------
    bits:
        Sensing precision (number of binary-search steps per conversion).
    delta:
        LSB size in bit-line level units.
    """

    def __init__(self, bits: int, delta: float) -> None:
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.bits = int(bits)
        self.delta = float(delta)
        self.stats = ConversionStats()

    @classmethod
    def from_config(cls, config: AdcConfig) -> "UniformAdc":
        """Build from an :class:`AdcConfig` in UNIFORM mode.

        A ``k``-bit sensing precision on an ``RADC``-bit converter keeps the
        full-scale range and enlarges the LSB to ``2^(RADC − k) · v_grid`` —
        the binary search simply stops ``RADC − k`` steps early.
        """
        if config.mode is not AdcMode.UNIFORM:
            raise ValueError("config is not in UNIFORM mode")
        bits = config.effective_uniform_bits
        delta = config.v_grid * (1 << (config.resolution - bits))
        return cls(bits=bits, delta=delta)

    @property
    def max_code(self) -> int:
        return (1 << self.bits) - 1

    @property
    def full_scale(self) -> float:
        """Largest representable value."""
        return self.max_code * self.delta

    def convert(self, values: np.ndarray) -> Tuple[np.ndarray, int]:
        """Convert an array of values; returns ``(quantized, total_ops)``."""
        values = np.asarray(values, dtype=np.float64)
        codes = np.clip(round_half_up(values / self.delta), 0, self.max_code)
        quantized = codes * self.delta
        ops = values.size * self.bits
        self.stats.record(conversions=values.size, operations=ops)
        return quantized, ops

    @property
    def level_scale(self) -> float:
        """The integer-level step: quantized value = ``delta · level``."""
        return self.delta

    @property
    def max_level(self) -> int:
        """Largest output level of any input (the top code)."""
        return self.max_code

    def convert_levels(self, values: np.ndarray) -> Tuple[np.ndarray, int]:
        """Convert to integer output levels (codes); returns ``(levels, ops)``.

        Same statistics and operation count as :meth:`convert`; the quantized
        value is exactly ``level_scale · level``.  Levels are returned as
        float64 holding exact integers, ready for exact shift-and-add merging.
        """
        values = np.asarray(values, dtype=np.float64)
        codes = np.clip(round_half_up(values / self.delta), 0, self.max_code)
        ops = values.size * self.bits
        self.stats.record(conversions=values.size, operations=ops)
        return codes, ops

    def _build_transfer_lut(self, max_value: int) -> AdcTransferLut:
        """Tabulate the K-step binary-search transfer function (integer inputs)."""
        inputs = np.arange(max_value + 1, dtype=np.float64)
        codes = np.clip(round_half_up(inputs / self.delta), 0, self.max_code)
        return AdcTransferLut(
            values=codes * self.delta,
            ops_per_value=np.full(max_value + 1, self.bits, dtype=np.int64),
            levels=compact_levels(codes),
            scale=self.delta,
        )

    def reset_stats(self) -> None:
        self.stats.reset()


def ideal_adc_for_resolution(resolution: int, v_grid: float = 1.0) -> UniformAdc:
    """Full-resolution uniform ADC (the paper's 8-op/conversion baseline)."""
    return UniformAdc.from_config(uniform_config(resolution=resolution, v_grid=v_grid))
