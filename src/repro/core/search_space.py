"""Candidate generation for the parameter search of Algorithm 1.

The search space of one layer is the cross product of

* ``C`` grid-step candidates ``Vgrid`` sampled uniformly from
  ``[α · ymax / (2^RADC − 1), β · ymax / (2^RADC − 1)]`` (paper Section IV-A,
  with ``α = 0.1``, ``β = 1.2`` and ``C = 50`` in the evaluation);
* per-``Vgrid`` twin-range parameters whose structure depends on the layer's
  distribution type (Algorithm 1 lines 9-16):

  - *ideal / normal*: ``ΔR1 = Vgrid``, ``M = Rideal − NR2``, and the search
    runs over ``NR1`` (and ``bias`` for normal-like distributions);
  - *other*: ``NR1 = NR2`` and the search runs over ``M`` (and ``bias``),
    with ``ΔR1 = 2^(Rideal − NR2 − M) · Vgrid``.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Tuple

import numpy as np

from repro.core.distribution import DistributionSummary, DistributionType, required_resolution
from repro.core.trq import TRQParams
from repro.utils.validation import check_in_range, check_integer, check_positive


@dataclasses.dataclass(frozen=True)
class SearchSpaceConfig:
    """Knobs of the per-layer candidate generation (paper Section V-A)."""

    adc_resolution: int = 8
    alpha: float = 0.1
    beta: float = 1.2
    num_v_grid_candidates: int = 50
    m_min: int = 0
    m_max: int = 7
    max_bias_candidates: int = 8

    def __post_init__(self) -> None:
        check_in_range(check_integer(self.adc_resolution, "adc_resolution"),
                       "adc_resolution", low=2, high=16)
        check_positive(self.alpha, "alpha")
        check_positive(self.beta, "beta")
        if self.beta <= self.alpha:
            raise ValueError("beta must exceed alpha")
        check_in_range(check_integer(self.num_v_grid_candidates, "num_v_grid_candidates"),
                       "num_v_grid_candidates", low=1)
        check_in_range(check_integer(self.m_min, "m_min"), "m_min", low=0)
        check_in_range(check_integer(self.m_max, "m_max"), "m_max", low=self.m_min)
        check_in_range(check_integer(self.max_bias_candidates, "max_bias_candidates"),
                       "max_bias_candidates", low=1)


DEFAULT_SEARCH_SPACE = SearchSpaceConfig()


def v_grid_candidates(y_max: float, config: SearchSpaceConfig = DEFAULT_SEARCH_SPACE) -> np.ndarray:
    """The ``C`` grid-step candidates for a layer with maximum value ``y_max``."""
    if y_max <= 0:
        # Degenerate layers (all-zero partial sums) keep a unit grid.
        return np.array([1.0])
    base = y_max / ((1 << config.adc_resolution) - 1)
    low = config.alpha * base
    high = config.beta * base
    if config.num_v_grid_candidates == 1:
        return np.array([high])
    return np.linspace(low, high, config.num_v_grid_candidates)


def _bias_candidates(m: int, config: SearchSpaceConfig) -> List[int]:
    """Evenly spaced subset of ``{0, …, 2^M − 1}`` capped at ``max_bias_candidates``."""
    upper = (1 << m) - 1
    if upper <= 0:
        return [0]
    count = min(config.max_bias_candidates, upper + 1)
    return sorted({int(round(b)) for b in np.linspace(0, upper, count)})


def candidate_params(
    summary: DistributionSummary,
    values: np.ndarray,
    v_grid: float,
    n_max: int,
    config: SearchSpaceConfig = DEFAULT_SEARCH_SPACE,
) -> Iterator[TRQParams]:
    """Yield the twin-range candidates of one layer for one ``Vgrid``.

    Parameters
    ----------
    summary:
        Distribution classification of the layer's bit-line values.
    values:
        The calibration samples themselves (used for ``Rideal``).
    v_grid:
        The candidate grid step.
    n_max:
        Current upper bound on the coarse-range bit-width ``NR2`` (the outer
        accuracy loop of Algorithm 1 decreases it).
    """
    check_in_range(check_integer(n_max, "n_max"), "n_max", low=1)
    r_ideal = required_resolution(values, v_grid=v_grid)
    n_r2 = max(1, min(n_max, r_ideal))

    # The configurable ADC can realise non-uniformity degrees up to
    # ``RADC − NR2`` (paper Section III-D2c); candidates respect that bound so
    # every generated setting is realisable by the hardware register file.
    m_hw_max = max(0, config.adc_resolution - n_r2)

    if summary.kind in (DistributionType.IDEAL, DistributionType.NORMAL):
        # Algorithm 1 lines 9-11 / Eq. 11: the dense grid keeps full precision
        # (ΔR1 = one Vgrid step) and the coarse grid absorbs the rest of the
        # range through M = Rideal − NR2.
        m = min(config.m_max, m_hw_max, max(config.m_min, r_ideal - n_r2))
        biases = [0] if summary.kind is DistributionType.IDEAL else _bias_candidates(m, config)
        for n_r1 in range(1, n_r2 + 1):
            for bias in biases:
                yield TRQParams(n_r1=n_r1, n_r2=n_r2, m=m, delta_r1=v_grid, bias=bias)
    else:
        # Algorithm 1 lines 13-15: equal bit-widths, search over M (and bias);
        # ΔR1 = 2^(Rideal − NR2 − M) grid steps so both ranges stay on the
        # full-precision grid.
        n_r1 = n_r2
        m_upper = min(config.m_max, m_hw_max, max(config.m_min, r_ideal - 1))
        for m in range(config.m_min, m_upper + 1):
            shift = max(0, r_ideal - n_r2 - m)
            delta_r1 = v_grid * (1 << shift)
            for bias in _bias_candidates(min(m, 3), config):
                yield TRQParams(n_r1=n_r1, n_r2=n_r2, m=m, delta_r1=delta_r1, bias=bias)


def uniform_fallback_bits(values: np.ndarray, v_grid: float, n_max: int) -> Tuple[int, float]:
    """Bit-width and step of the uniform quantizer compared against TRQ
    (Algorithm 1 line 23): ``NR2`` bits spanning the observed value range."""
    bits = max(1, min(n_max, required_resolution(values, v_grid=v_grid)))
    return bits, uniform_step(float(np.max(values)), bits)


def uniform_step(y_max: float, bits: int) -> float:
    """Step of a ``bits``-bit uniform quantizer whose full scale is the
    layer's largest bit-line value ``y_max`` (a unit step when it is 0)."""
    return y_max / ((1 << bits) - 1) if y_max > 0 else 1.0
