"""Twin Range Quantization (TRQ) — the paper's core algorithmic contribution.

TRQ quantizes the non-negative bit-line partial sums with two uniform ranges
(paper Eq. 7-8):

* ``R1 = [offset, offset + 2^NR1 · ΔR1)`` — a narrow, dense range holding the
  majority of (small) samples, quantized with step ``ΔR1`` using ``NR1`` bits.
* ``R2 = [0, (2^NR2 − 1) · ΔR2]`` — a wide, coarse range covering the sparse
  large values, quantized with step ``ΔR2 = 2^M · ΔR1`` using ``NR2`` bits.

The ``offset = bias · 2^NR1 · ΔR1`` term (paper Section IV-B) shifts R1 away
from zero for normal-like (rather than zero-skewed) distributions; ``bias``
is an unsigned integer whose bits are conceptually concatenated to the left
of the R1 code during decoding.

Everything in this module is pure NumPy math on "level" units (the analog
value divided by the full-precision grid step ``Vgrid``); the hardware
realisation — the modified SAR search that produces exactly these values and
the corresponding A/D-operation counts — lives in :mod:`repro.adc.trq`.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.utils.numeric import round_half_up, round_half_up_quotient_into
from repro.utils.validation import check_in_range, check_integer, check_positive


@dataclasses.dataclass(frozen=True)
class TRQParams:
    """Parameters of one Twin-Range quantizer (one per layer after calibration).

    Attributes
    ----------
    n_r1, n_r2:
        Code widths of the two ranges (paper ``NR1``, ``NR2``).
    m:
        Non-uniformity degree: ``ΔR2 = 2^M · ΔR1`` (paper Eq. 8).
    delta_r1:
        Step of the dense range, in the same units as the values being
        quantized (the calibrated ``Vgrid`` of the layer).
    bias:
        Offset index of R1 (0 for the ideal skewed case, paper Eq. 11).
    """

    n_r1: int
    n_r2: int
    m: int
    delta_r1: float = 1.0
    bias: int = 0

    def __post_init__(self) -> None:
        check_in_range(check_integer(self.n_r1, "n_r1"), "n_r1", low=1, high=16)
        check_in_range(check_integer(self.n_r2, "n_r2"), "n_r2", low=1, high=16)
        check_in_range(check_integer(self.m, "m"), "m", low=0, high=16)
        check_positive(self.delta_r1, "delta_r1")
        check_in_range(check_integer(self.bias, "bias"), "bias", low=0)

    # ------------------------------------------------------------------ #
    @property
    def delta_r2(self) -> float:
        """Step of the coarse range, ``ΔR2 = 2^M · ΔR1`` (paper Eq. 8)."""
        return self.delta_r1 * (1 << self.m)

    @property
    def r1_width(self) -> float:
        """Width of the dense range, ``2^NR1 · ΔR1``."""
        return (1 << self.n_r1) * self.delta_r1

    @property
    def r1_low(self) -> float:
        """Lower edge of R1 (``offset``)."""
        return self.bias * self.r1_width

    @property
    def r1_high(self) -> float:
        """Upper edge (exclusive) of R1 — the paper's threshold ``θ``."""
        return self.r1_low + self.r1_width

    @property
    def r2_max(self) -> float:
        """Largest representable value of the coarse range."""
        return ((1 << self.n_r2) - 1) * self.delta_r2

    @property
    def detection_ops(self) -> int:
        """Extra comparator operations of the range-detection phase (paper
        Eq. 9's ``ν``): one comparison when R1 starts at zero, two when a
        biased window needs both edges checked."""
        return 1 if self.bias == 0 else 2

    def ops_for_region(self, in_r1: np.ndarray) -> np.ndarray:
        """Per-sample A/D operations *excluding* detection (``NR1``/``NR2``)."""
        return np.where(in_r1, self.n_r1, self.n_r2)


def classify_regions(values: np.ndarray, params: TRQParams) -> np.ndarray:
    """Boolean mask: True where a value is resolved by the dense range R1.

    Mirrors the SAR detection phase of :class:`repro.adc.sar.TwinRangeSarAdc`
    exactly: with ``bias == 0`` the hardware spends a single comparison
    against the upper edge ``θ``, so *everything* below it — including
    (physically impossible) negative inputs — is handled by R1.  Only a
    biased window checks the lower edge as well.  Bit-line values are
    non-negative, so the two rules agree on all real data; stating the
    hardware rule keeps the vectorised and cycle-accurate models equivalent
    on the full input domain (see the ADC fuzz tests).
    """
    values = np.asarray(values, dtype=np.float64)
    below_upper = values < params.r1_high
    if params.bias == 0:
        return below_upper
    return below_upper & (values >= params.r1_low)


def twin_range_quantize(
    values: np.ndarray, params: TRQParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply the TRQ transfer function ``Tk`` (paper Eq. 7).

    Parameters
    ----------
    values:
        Non-negative analog values (bit-line partial sums) in level units.
    params:
        The calibrated twin-range parameters.

    Returns
    -------
    quantized:
        Values reconstructed after quantization/decoding (same shape).
    in_r1:
        Boolean mask of which samples were handled by the dense range.
    """
    values = np.asarray(values, dtype=np.float64)
    in_r1 = classify_regions(values, params)

    max_code_r1 = (1 << params.n_r1) - 1
    codes_r1 = np.clip(round_half_up((values - params.r1_low) / params.delta_r1), 0, max_code_r1)
    recon_r1 = params.r1_low + codes_r1 * params.delta_r1

    max_code_r2 = (1 << params.n_r2) - 1
    codes_r2 = np.clip(round_half_up(values / params.delta_r2), 0, max_code_r2)
    recon_r2 = codes_r2 * params.delta_r2

    return np.where(in_r1, recon_r1, recon_r2), in_r1


def twin_range_levels(
    values: np.ndarray, params: TRQParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Integer output levels of the TRQ transfer function.

    The decoded value of every TRQ code is an exact integer multiple of the
    dense step: ``Tk(v) = ΔR1 · level`` with ``level = bias·2^NR1 + code`` in
    R1 and ``level = code · 2^M`` in R2 (paper Eq. 7-8).  Returning the
    integer level instead of the float reconstruction lets the simulator
    shift-and-add merge *exactly* (levels and merge factors are small
    integers) and apply ``ΔR1`` once per output — the foundation of the fast
    engine's bit-reproducibility (see :mod:`repro.crossbar.mapping`).

    Returns ``(levels, in_r1)``; ``levels`` is float64 but holds exact
    integers.  This is :func:`twin_range_levels_into` on fresh buffers.
    """
    values = np.asarray(values, dtype=np.float64)
    levels = np.empty_like(values)
    mask = np.empty((2,) + values.shape, dtype=bool)
    twin_range_levels_into(values, params, levels, np.empty((2,) + values.shape), mask)
    return levels, mask[0]


def twin_range_levels_into(
    values: np.ndarray,
    params: TRQParams,
    out: np.ndarray,
    work: np.ndarray,
    mask: np.ndarray,
) -> int:
    """The TRQ level function (:func:`twin_range_levels`) into
    caller-provided buffers; returns the number of values in R1, whose mask
    it leaves in ``mask[0]``.

    ``values`` and ``out`` are float64 of one shape (``out`` may be
    ``values``), ``work`` float64 and ``mask`` bool, each of that shape
    with a leading axis of 2.  Nothing is allocated, so threads can convert
    side by side on their own buffers.  Each range's code is
    ``clip(round_half_up(v / Δ), 0, 2^N − 1)`` (R1 on ``v − r1_low``;
    :func:`~repro.utils.numeric.round_half_up_quotient_into`), and the R1
    select is the exact blend ``L2 + [in R1]·(L1 − L2)`` of two integers,
    which costs a fraction of a masked copy.  No-op steps (subtracting a
    zero ``r1_low``, adding a zero offset, scaling by ``2^0``) are skipped.
    """
    r1, select = work[0], work[1]
    in_r1 = mask[0]
    np.less(values, params.r1_high, out=in_r1)
    if params.bias:
        np.greater_equal(values, params.r1_low, out=mask[1])
        np.logical_and(in_r1, mask[1], out=in_r1)
    np.copyto(select, in_r1)
    source = values
    if params.bias:
        source = np.subtract(values, params.r1_low, out=r1)
    round_half_up_quotient_into(source, params.delta_r1, r1)
    np.clip(r1, 0, (1 << params.n_r1) - 1, out=r1)
    if params.bias:
        np.add(r1, float(params.bias << params.n_r1), out=r1)
    # ``values`` is read for the last time here: ``out`` may alias it.
    round_half_up_quotient_into(values, params.delta_r2, out)
    np.clip(out, 0, (1 << params.n_r2) - 1, out=out)
    if params.m:
        np.multiply(out, float(1 << params.m), out=out)
    np.subtract(r1, out, out=r1)
    np.multiply(r1, select, out=r1)
    np.add(out, r1, out=out)
    return int(np.count_nonzero(in_r1))


def encode(values: np.ndarray, params: TRQParams) -> np.ndarray:
    """Produce the compact TRQ output codes (paper Fig. 4b).

    The most significant bit selects the range (0 → R1, 1 → R2); the
    remaining bits are the unsigned uniform code within that range.  The
    returned integers therefore fit in ``1 + max(NR1, NR2)`` bits.
    """
    values = np.asarray(values, dtype=np.float64)
    in_r1 = classify_regions(values, params)
    max_code_r1 = (1 << params.n_r1) - 1
    max_code_r2 = (1 << params.n_r2) - 1
    codes_r1 = np.clip(
        round_half_up((values - params.r1_low) / params.delta_r1), 0, max_code_r1
    ).astype(np.int64)
    codes_r2 = np.clip(round_half_up(values / params.delta_r2), 0, max_code_r2).astype(np.int64)
    payload_bits = max(params.n_r1, params.n_r2)
    msb = (~in_r1).astype(np.int64) << payload_bits
    return msb | np.where(in_r1, codes_r1, codes_r2)


def decode(codes: np.ndarray, params: TRQParams) -> np.ndarray:
    """Invert :func:`encode` — the job of the modified shift-and-add module.

    Codes whose MSB is set are shifted left by ``M`` (i.e. multiplied by
    ``2^M``) before scaling by ``ΔR1``; codes from R1 get the ``bias`` field
    concatenated on their left (paper Section III-C / IV-B).
    """
    codes = np.asarray(codes, dtype=np.int64)
    payload_bits = max(params.n_r1, params.n_r2)
    payload_mask = (1 << payload_bits) - 1
    is_r2 = (codes >> payload_bits) & 1
    payload = codes & payload_mask

    value_r1 = params.r1_low + payload * params.delta_r1
    value_r2 = payload.astype(np.float64) * params.delta_r2
    return np.where(is_r2.astype(bool), value_r2, value_r1)


def uniform_reference_quantize(
    values: np.ndarray, num_bits: int, delta: float
) -> np.ndarray:
    """The uniform quantizer TRQ is compared against (paper Eq. 1 on BL values)."""
    check_in_range(check_integer(num_bits, "num_bits"), "num_bits", low=1, high=16)
    check_positive(delta, "delta")
    values = np.asarray(values, dtype=np.float64)
    max_code = (1 << num_bits) - 1
    return np.clip(round_half_up(values / delta), 0, max_code) * delta


def quantization_mse(values: np.ndarray, params: TRQParams) -> float:
    """Mean-squared reconstruction error of TRQ on ``values`` (paper Eq. 10)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    quantized, _ = twin_range_quantize(values, params)
    return float(np.mean((values - quantized) ** 2))


def mean_ad_operations(values: np.ndarray, params: TRQParams) -> float:
    """Average A/D operations per conversion, including the detection phase
    (the per-sample part of paper Eq. 9)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float(params.detection_ops)
    in_r1 = classify_regions(values, params)
    return float(params.detection_ops + params.ops_for_region(in_r1).mean())
