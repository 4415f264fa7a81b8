"""Convert exact integer bit-line values the way the fused engine does."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.adc.lut import TrialLutGather


def lut_convert(adc, codes: np.ndarray, max_value: int) -> Tuple[np.ndarray, int]:
    """``(quantized values, A/D operations)`` of ``codes`` through ``adc``'s
    transfer LUT: one :class:`TrialLutGather` gather, whose levels must be the
    LUT's, and its statistics recorded into ``adc.stats``."""
    lut = adc.transfer_lut(max_value)
    gather = TrialLutGather([lut])
    counts = gather.new_counts()
    levels = np.empty((1,) + codes.shape, dtype=gather.levels.dtype)
    gather.gather(codes[None], counts, levels)
    np.testing.assert_array_equal(levels[0], lut.levels[codes])
    (total_ops,) = gather.record_trials(counts, [adc])
    return lut.values[codes], total_ops
