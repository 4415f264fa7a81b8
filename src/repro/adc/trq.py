"""Vectorised Twin-Range SAR ADC (the paper's modified converter).

The analog front end (sample-and-hold, comparator, capacitive DAC) is
untouched; only the SAR control logic changes (paper Section III-D).  The
conversion therefore has exactly the transfer function of
:func:`repro.core.trq.twin_range_quantize`, plus an A/D-operation cost of
``ν + NR1`` for samples in the dense range and ``ν + NR2`` for the rest
(paper Eq. 9).  The cycle-accurate reference in :mod:`repro.adc.sar`
reproduces the same values and op counts step by step; the test suite checks
the two agree on every input.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.adc.config import AdcConfig, AdcMode
from repro.adc.counters import ConversionStats
from repro.adc.lut import AdcTransferLut, LutConversionMixin, compact_levels
from repro.core.trq import (
    TRQParams,
    classify_regions,
    twin_range_levels,
    twin_range_levels_into,
    twin_range_quantize,
)


class TwinRangeAdc(LutConversionMixin):
    """Array-oriented twin-range SAR ADC model with statistics tracking."""

    def __init__(self, params: TRQParams) -> None:
        self.params = params
        self.stats = ConversionStats()

    @classmethod
    def from_config(cls, config: AdcConfig) -> "TwinRangeAdc":
        if config.mode is not AdcMode.TWIN_RANGE or config.trq is None:
            raise ValueError("config is not in TWIN_RANGE mode")
        return cls(params=config.trq)

    def convert(self, values: np.ndarray) -> Tuple[np.ndarray, int]:
        """Convert an array of bit-line values; returns ``(quantized, ops)``."""
        values = np.asarray(values, dtype=np.float64)
        quantized, in_r1 = twin_range_quantize(values, self.params)
        stats = self._conversion_stats(values.size, int(np.count_nonzero(in_r1)))
        self.stats.merge(stats)
        return quantized, stats.operations

    def _conversion_stats(self, conversions: int, num_r1: int) -> ConversionStats:
        """The statistics of ``conversions`` values, ``num_r1`` of them in R1
        (paper Eq. 9: ``ν`` detection operations each, plus ``NR1`` or
        ``NR2`` search operations)."""
        p = self.params
        num_r2 = conversions - num_r1
        detection = conversions * p.detection_ops
        return ConversionStats(
            conversions=conversions,
            operations=detection + num_r1 * p.n_r1 + num_r2 * p.n_r2,
            detection_operations=detection,
            in_r1=num_r1,
            in_r2=num_r2,
        )

    @property
    def level_scale(self) -> float:
        """The integer-level step: quantized value = ``delta_r1 · level``."""
        return self.params.delta_r1

    @property
    def max_level(self) -> int:
        """Largest output level of any input: the top R1 level
        ``bias·2^NR1 + 2^NR1 − 1`` or the top R2 level ``(2^NR2 − 1)·2^M``."""
        p = self.params
        return max(((p.bias + 1) << p.n_r1) - 1, ((1 << p.n_r2) - 1) << p.m)

    def levels_into(
        self, values: np.ndarray, out: np.ndarray, work: np.ndarray, mask: np.ndarray
    ) -> ConversionStats:
        """Integer output levels of ``values`` written into ``out``.

        Allocates nothing and records nothing: the buffers are those of
        :func:`repro.core.trq.twin_range_levels_into` (``out`` may be
        ``values``), and the conversions' statistics are returned for the
        caller to merge, so threads can convert side by side.
        """
        num_r1 = twin_range_levels_into(values, self.params, out, work, mask)
        return self._conversion_stats(values.size, num_r1)

    def convert_levels(self, values: np.ndarray) -> Tuple[np.ndarray, int]:
        """Convert to integer output levels; returns ``(levels, ops)``.

        :meth:`levels_into` on fresh buffers, its statistics recorded: the
        same statistics and operation count as :meth:`convert`, and the
        quantized value is exactly ``level_scale · level``.
        """
        values = np.asarray(values, dtype=np.float64)
        levels = np.empty_like(values)
        stats = self.levels_into(
            values, levels,
            np.empty((2,) + values.shape), np.empty((2,) + values.shape, dtype=bool),
        )
        self.stats.merge(stats)
        return levels, stats.operations

    def _build_transfer_lut(self, max_value: int) -> AdcTransferLut:
        """Tabulate the twin-range transfer function and per-region op costs."""
        inputs = np.arange(max_value + 1, dtype=np.float64)
        quantized, in_r1 = twin_range_quantize(inputs, self.params)
        levels, _ = twin_range_levels(inputs, self.params)
        search_ops = self.params.ops_for_region(in_r1).astype(np.int64)
        return AdcTransferLut(
            values=quantized,
            ops_per_value=self.params.detection_ops + search_ops,
            levels=compact_levels(levels),
            scale=self.params.delta_r1,
            in_r1=in_r1,
            detection_ops=self.params.detection_ops,
        )

    def region_mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of samples handled by the dense range (no stats)."""
        return classify_regions(np.asarray(values, dtype=np.float64), self.params)

    def reset_stats(self) -> None:
        self.stats.reset()


def build_adc(config: AdcConfig):
    """Instantiate the vectorised ADC model matching ``config``."""
    if config.mode is AdcMode.UNIFORM:
        from repro.adc.uniform import UniformAdc

        return UniformAdc.from_config(config)
    return TwinRangeAdc.from_config(config)
