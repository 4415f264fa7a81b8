"""Numeric helpers shared by the quantization and ADC models.

The single important convention lives here: **rounding is half-up** (towards
+infinity at exact midpoints), because that is what a SAR ADC's comparator
grid implements — the code chosen for an input exactly on a decision
threshold is the upper one.  NumPy's ``np.round`` uses banker's rounding
(half-to-even), which would make the vectorised quantizer models disagree
with the cycle-accurate SAR search on exact grid midpoints; every rounding in
the datapath therefore goes through :func:`round_half_up`.
"""

from __future__ import annotations

import math

import numpy as np


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integer, with exact halves rounded up (+inf)."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


def round_half_up_into(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``round_half_up(values)`` written into ``out`` (which may be
    ``values``), bit for bit, without allocating."""
    np.add(values, 0.5, out=out)
    return np.floor(out, out=out)


def round_half_up_quotient_into(
    values: np.ndarray, step: float, out: np.ndarray
) -> np.ndarray:
    """``round_half_up(values / step)`` written into ``out``, bit for bit.

    Allocates nothing (``out`` may be ``values``).  A power-of-two step
    whose reciprocal is a power of two too multiplies by that exact
    reciprocal: the product is the same correctly rounded quotient, at a
    third of a division's cost.
    """
    reciprocal = 1.0 / step
    if math.frexp(step)[0] == 0.5 and math.frexp(reciprocal)[0] == 0.5:
        np.multiply(values, reciprocal, out=out)
    else:
        np.divide(values, step, out=out)
    return round_half_up_into(out, out)


def clamp(x: np.ndarray, low: float, high: float) -> np.ndarray:
    """Clamp values into ``[low, high]`` (thin wrapper for readability)."""
    return np.clip(x, low, high)


def is_power_of_two(value: int) -> bool:
    """True for 1, 2, 4, 8, ... — False for zero, negatives and non-powers."""
    return value > 0 and (value & (value - 1)) == 0


def ceil_log2(value: int) -> int:
    """Smallest ``k`` with ``2^k >= value`` (``value`` must be positive)."""
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    return int(np.ceil(np.log2(value))) if value > 1 else 0


def normal_quantile(p: float) -> float:
    """Standard-normal inverse CDF (Acklam's rational approximation).

    Used for Monte Carlo confidence intervals without a SciPy dependency;
    absolute error is below 1.2e-9 over the open unit interval.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = np.sqrt(-2.0 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > p_high:
        q = np.sqrt(-2.0 * np.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-int(numerator) // int(denominator))
