"""Bit-line value-distribution analysis (paper Section III-A and IV-B).

Algorithm 1 starts by judging the distribution type of each layer's bit-line
outputs, because the best twin-range strategy depends on it:

* **ideal** — the highly skewed, zero-concentrated distribution of Fig. 3a
  (the common case with 1-bit operands and post-ReLU activations): a
  zero-anchored dense range R1 captures the majority of samples losslessly.
* **normal** — a strongly unimodal, low-variance distribution centred away
  from zero: the same strategy works once R1 is shifted by the ``bias``
  offset.
* **other** — weakly unimodal, multi-modal or flat distributions: no "sweet
  spot" exists, so both ranges use the "early stopping" strategy with equal
  bit-widths.

The classifier below uses robust, deterministic statistics (mass
concentration, mode location, histogram mode count) rather than fitted
models, so the same inputs always produce the same decision.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Tuple

import numpy as np

from repro.utils.validation import check_in_range


class DistributionType(str, enum.Enum):
    """Distribution classes distinguished by Algorithm 1."""

    IDEAL = "ideal"
    NORMAL = "normal"
    OTHER = "other"


@dataclasses.dataclass(frozen=True)
class DistributionSummary:
    """Summary statistics of one layer's bit-line value distribution."""

    kind: DistributionType
    count: int
    minimum: float
    maximum: float
    mean: float
    std: float
    skewness: float
    zero_fraction: float
    mass_in_low_eighth: float
    mode_position: float
    num_modes: int

    @property
    def value_range(self) -> float:
        return self.maximum - self.minimum


def histogram_values(histogram) -> Tuple[np.ndarray, np.ndarray]:
    """The values a bit-line histogram counts, ascending, and how often each
    occurs.

    Entry ``v`` of ``histogram`` (an ``np.bincount`` vector: the form a
    capture stores) counts the occurrences of the value ``v``; values that
    do not occur are dropped.  Every distribution statistic of the co-design
    search reads this weighted ``(values, counts)`` form, in which a plain
    sample ``x`` is ``(x, np.ones(x.size))``.
    """
    histogram = np.asarray(histogram).ravel()
    if not np.issubdtype(histogram.dtype, np.integer):
        raise ValueError(f"histogram counts must be integers, got dtype {histogram.dtype}")
    if histogram.size and histogram.min() < 0:
        raise ValueError("histogram counts must be non-negative")
    values = np.flatnonzero(histogram)
    return values.astype(np.float64), histogram[values].astype(np.int64)


def add_histograms(histograms) -> np.ndarray:
    """The sum of bit-line histograms of any lengths: the histogram of all
    the values they count (a capture's layers pooled, for example)."""
    histograms = [np.asarray(histogram) for histogram in histograms]
    total = np.zeros(max(histogram.size for histogram in histograms), dtype=np.int64)
    for histogram in histograms:
        total[: histogram.size] += histogram
    return total


def weighted_quantile(values: np.ndarray, counts: np.ndarray, q: float) -> float:
    """``np.percentile(x, q)`` (linear interpolation) of the sample ``x``
    whose histogram is ``(values, counts)`` (values ascending), read from
    the cumulative counts instead of the expanded sample."""
    cumulative = np.cumsum(counts)
    position = (int(cumulative[-1]) - 1) * q / 100.0
    below = int(np.floor(position))
    ranks = np.searchsorted(cumulative, [below, below + 1], side="right")
    low, high = values[np.minimum(ranks, values.size - 1)]
    return float(low + (position - below) * (high - low))


def _count_modes(histogram: np.ndarray, total: int, rel_threshold: float = 0.15) -> int:
    """Count local maxima of a smoothed histogram exceeding a fraction of the peak."""
    if total < 4:
        return 1
    # Light smoothing suppresses single-bin noise.
    kernel = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    kernel /= kernel.sum()
    smoothed = np.convolve(histogram.astype(np.float64), kernel, mode="same")
    peak = smoothed.max()
    if peak == 0:
        return 1
    modes = 0
    for i in range(len(smoothed)):
        left = smoothed[i - 1] if i > 0 else -np.inf
        right = smoothed[i + 1] if i < len(smoothed) - 1 else -np.inf
        if smoothed[i] >= left and smoothed[i] > right and smoothed[i] >= rel_threshold * peak:
            modes += 1
    return max(1, modes)


def summarize_distribution(
    values: np.ndarray,
    counts: np.ndarray,
    skew_threshold: float = 1.0,
    low_mass_threshold: float = 0.6,
    concentration_threshold: float = 0.55,
) -> DistributionSummary:
    """Classify a distribution of bit-line values and return its summary statistics.

    Parameters
    ----------
    values, counts:
        Non-negative bit-line values of one layer and how often each occurs
        (positive counts; :func:`histogram_values` of a captured histogram,
        or ones for a plain sample).
    skew_threshold:
        Minimum skewness for the zero-concentrated "ideal" class.
    low_mass_threshold:
        Minimum fraction of samples in the lowest eighth of the value range
        for the "ideal" class.
    concentration_threshold:
        Minimum fraction of samples within ±1σ of the mode for the "normal"
        class.
    """
    check_in_range(low_mass_threshold, "low_mass_threshold", 0.0, 1.0)
    check_in_range(concentration_threshold, "concentration_threshold", 0.0, 1.0)
    values = np.asarray(values, dtype=np.float64).ravel()
    counts = np.asarray(counts).ravel()
    if values.size == 0:
        raise ValueError("cannot summarise an empty sample")
    total = int(counts.sum())

    def fraction(mask: np.ndarray) -> float:
        return int(counts[mask].sum()) / total

    minimum = float(values.min())
    maximum = float(values.max())
    mean = float(counts @ values) / total
    centred = values - mean
    std = float(np.sqrt(float(counts @ centred**2) / total))
    skewness = float(counts @ (centred / std) ** 3) / total if std > 0 else 0.0
    zero_fraction = fraction(values <= 0)
    value_range = maximum - minimum
    if value_range > 0:
        mass_low = fraction(values <= minimum + value_range / 8.0)
        # Mode position from the peak of a 32-bin histogram.
        histogram, edges = np.histogram(values, bins=32, weights=counts)
        num_modes = _count_modes(histogram, total)
        peak_bin = int(np.argmax(histogram))
        mode_position = float((edges[peak_bin] + edges[peak_bin + 1]) / 2.0)
    else:
        mass_low = 1.0
        num_modes = 1
        mode_position = minimum

    # Classification.
    if mass_low >= low_mass_threshold and skewness >= skew_threshold:
        kind = DistributionType.IDEAL
    else:
        concentration = (
            fraction(np.abs(values - mode_position) <= std) if std > 0 else 1.0
        )
        if num_modes == 1 and concentration >= concentration_threshold:
            kind = DistributionType.NORMAL
        else:
            kind = DistributionType.OTHER

    return DistributionSummary(
        kind=kind,
        count=total,
        minimum=minimum,
        maximum=maximum,
        mean=mean,
        std=std,
        skewness=skewness,
        zero_fraction=zero_fraction,
        mass_in_low_eighth=mass_low,
        mode_position=mode_position,
        num_modes=num_modes,
    )


def required_resolution(values: np.ndarray, v_grid: float = 1.0) -> int:
    """Algorithm 1 line 7: ``Rideal = ceil(log2(ymax − ymin + 1))``.

    The value range is measured in units of the candidate grid step
    ``v_grid`` so that coarser grids need fewer bits.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot compute resolution of an empty sample")
    if v_grid <= 0:
        raise ValueError(f"v_grid must be positive, got {v_grid}")
    span_levels = (float(values.max()) - float(values.min())) / v_grid
    return max(1, int(np.ceil(np.log2(span_levels + 1.0))))
