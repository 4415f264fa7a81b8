"""The registered device non-ideality models.

Each model perturbs raw bit-line values (exact non-negative integers in the
ideal datapath) at the point where the crossbar hands them to the ADC.  The
modelling level is deliberately the *bit line*, not the individual cell: a
128-row column aggregates its cells' currents before conversion, so column-
level statistics (a static per-column variation factor, a per-column stuck
cell count, a fresh per-read noise sample) capture the dominant effects
while keeping the fast engine's fused kernels intact.  See
:mod:`repro.nonideal.base` for the keyed-sampling rules that make every
model bit-identical between the fast and reference engines.

Integer-domain models (stuck-at faults, retention drift, quantized
variation) keep bit-line values on the integer grid, and all three are
static, so the fast engine folds them into its conversion tables:
retention drift *into* the LUT (a perturbed
:class:`~repro.adc.lut.AdcTransferLut`) at zero per-element cost, the
per-column models into per-(segment, column) tables tabulated once per run
from their own ``perturb_trials``.  Continuous models (read noise, analog
variation, IR drop) leave the integer domain; the fast engine then runs the
stack on each block in a reused buffer (every model's ``perturb_into``
writes there in place; read noise draws straight into it, or into the
caller's scratch when an earlier model already filled it) and converts
through the ADC's own level function, still bit-identical to the reference
engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.nonideal.base import (
    BoundModel,
    LayerNoiseContext,
    NonIdealityModel,
    stacked_trial_state,
)
from repro.nonideal.registry import register_model
from repro.utils.numeric import round_half_up, round_half_up_into
from repro.utils.rng import keyed_normal_into, new_rng
from repro.utils.validation import check_in_range


class _IdentityBound(BoundModel):
    """Bound form of a model whose parameters make it a no-op.

    Declaring the identity explicitly (integer-domain, identity value map)
    lets zero-strength models — common as the clean sentinel row of a sweep
    — keep the fast engine on its integer-LUT path instead of dragging the
    whole stack onto the element-wise fallback.
    """

    @property
    def integer_domain(self) -> bool:
        return True

    @property
    def cycle_invariant(self) -> bool:
        return True

    def value_map(self, input_bound: int) -> Optional[np.ndarray]:
        return np.arange(input_bound + 1, dtype=np.int64)

    def perturb_into(self, values, segment, cycle, chunk, out, scratch=None):
        if values is not out:
            np.copyto(out, values)
        return out

    @staticmethod
    def perturb_trials(siblings, values, segment, cycle, chunk):
        return np.asarray(values, dtype=np.float64)


def _per_trial(stacked: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Reshape per-trial ``(trials, columns)`` state to broadcast over
    ``values`` of shape ``(trials, ..., columns)`` (any middle dims)."""
    return stacked.reshape((stacked.shape[0],) + (1,) * (values.ndim - 2) + (-1,))


# --------------------------------------------------------------------- #
# Gaussian read noise
# --------------------------------------------------------------------- #
class _BoundGaussianRead(BoundModel):
    def __init__(self, ctx: LayerNoiseContext, sigma: float) -> None:
        super().__init__(ctx)
        self.sigma = sigma

    def _draw(self, shape, segment, cycle, chunk, out=None):
        seed = self.ctx.draw_key("read", chunk, segment, cycle)
        if out is not None:
            return keyed_normal_into(seed, self.sigma, out)
        return new_rng(seed).normal(0.0, self.sigma, size=shape)

    def perturb(self, values, segment, cycle, chunk):
        noise = self._draw(values.shape, segment, cycle, chunk)
        # Bit-line currents are physically non-negative.
        return np.maximum(np.asarray(values, dtype=np.float64) + noise, 0.0)

    def perturb_into(self, values, segment, cycle, chunk, out, scratch=None):
        # Draw straight into ``out``, or beside it when ``out`` already holds
        # the input (a model ahead of this one in the stack wrote it there):
        # addition commutes bit for bit, so ``noise + values`` is
        # ``perturb``'s ``values + noise``.
        target = scratch if np.shares_memory(values, out) else out
        noise = self._draw(values.shape, segment, cycle, chunk, out=target)
        np.add(noise, values, out=out)
        return np.maximum(out, 0.0, out=out)

    @staticmethod
    def perturb_trials(siblings, values, segment, cycle, chunk):
        # The draws stay per-trial (each replica owns an independent keyed
        # stream) but are applied in one fused element-wise pass — exact,
        # because addition and the clamp act element by element per trial.
        # A single trial adds its draw as is, with no stacking copy.
        shape = values.shape[1:]
        if len(siblings) == 1:
            noise = siblings[0]._draw(shape, segment, cycle, chunk)[None]
        else:
            noise = np.empty((len(siblings),) + tuple(shape), dtype=np.float64)
            for index, bound in enumerate(siblings):
                noise[index] = bound._draw(shape, segment, cycle, chunk)
        return np.maximum(np.asarray(values, dtype=np.float64) + noise, 0.0)


@register_model
class GaussianReadNoise(NonIdealityModel):
    """Additive Gaussian noise per read access (thermal/readout noise).

    ``sigma`` is the standard deviation in full-precision level units
    (LSBs); with ``relative=True`` it is instead a fraction of the layer's
    largest bit-line value, matching the relative convention of
    :class:`repro.crossbar.cell.CellConfig.read_noise_sigma`.
    """

    name = "gaussian_read_noise"

    def __init__(self, sigma: float, relative: bool = False) -> None:
        check_in_range(float(sigma), "sigma", low=0.0)
        self.sigma = float(sigma)
        self.relative = bool(relative)

    def params(self) -> Dict[str, object]:
        return {"sigma": self.sigma, "relative": self.relative}

    def bind(self, ctx: LayerNoiseContext) -> BoundModel:
        sigma = self.sigma * ctx.max_bitline if self.relative else self.sigma
        if sigma == 0.0:
            return _IdentityBound(ctx)
        return _BoundGaussianRead(ctx, sigma)


# --------------------------------------------------------------------- #
# log-normal conductance / programming variation
# --------------------------------------------------------------------- #
class _BoundConductanceVariation(BoundModel):
    def __init__(self, ctx: LayerNoiseContext, sigma: float, quantize: bool) -> None:
        super().__init__(ctx)
        self.quantize = quantize
        # Static device state: one multiplicative factor per (segment, column),
        # drawn once at bind time — every cycle, chunk and batch of the run
        # sees the same programmed devices.
        self._factors: List[np.ndarray] = [
            ctx.rng("program", s).lognormal(mean=0.0, sigma=sigma, size=ctx.columns)
            if sigma > 0.0
            else np.ones(ctx.columns)
            for s in range(len(ctx.segment_sizes))
        ]
        self._max_factor = max((float(f.max()) for f in self._factors), default=1.0)

    @property
    def integer_domain(self) -> bool:
        return self.quantize

    @property
    def cycle_invariant(self) -> bool:
        return True

    def output_bound(self, input_bound: int) -> int:
        return int(round_half_up(input_bound * self._max_factor))

    def perturb(self, values, segment, cycle, chunk):
        scaled = np.asarray(values, dtype=np.float64) * self._factors[segment]
        if self.quantize:
            return np.maximum(round_half_up(scaled), 0.0)
        return scaled

    def perturb_into(self, values, segment, cycle, chunk, out, scratch=None):
        np.multiply(values, self._factors[segment], out=out)
        if self.quantize:
            np.maximum(round_half_up_into(out, out), 0.0, out=out)
        return out

    @staticmethod
    def perturb_trials(siblings, values, segment, cycle, chunk):
        # One multiply against the stacked static factors; every step is
        # element-wise per trial, so the batch is exactly the per-trial chain.
        factors = stacked_trial_state(
            siblings,
            segment,
            lambda: np.stack([bound._factors[segment] for bound in siblings]),
        )
        scaled = np.asarray(values, dtype=np.float64) * _per_trial(factors, values)
        if siblings[0].quantize:
            return np.maximum(round_half_up(scaled), 0.0)
        return scaled


@register_model
class ConductanceVariation(NonIdealityModel):
    """Multiplicative log-normal cell-programming variation, per column.

    Programming a target conductance lands on ``G · exp(ε)`` with
    ``ε ~ N(0, σ²)``; the aggregate effect on a bit line scales its summed
    current by a static per-column factor.  ``quantize=True`` re-quantizes
    the perturbed value onto the integer level grid (drift-quantized
    variation), which keeps the fast engine's integer-LUT conversion live.
    """

    name = "conductance_variation"

    def __init__(self, sigma: float, quantize: bool = False) -> None:
        check_in_range(float(sigma), "sigma", low=0.0)
        self.sigma = float(sigma)
        self.quantize = bool(quantize)

    def params(self) -> Dict[str, object]:
        return {"sigma": self.sigma, "quantize": self.quantize}

    def bind(self, ctx: LayerNoiseContext) -> BoundModel:
        if self.sigma == 0.0:
            return _IdentityBound(ctx)
        return _BoundConductanceVariation(ctx, self.sigma, self.quantize)


# --------------------------------------------------------------------- #
# stuck-at-ON / stuck-at-OFF faults
# --------------------------------------------------------------------- #
class _BoundStuckAt(BoundModel):
    def __init__(self, ctx: LayerNoiseContext, rate_on: float, rate_off: float) -> None:
        super().__init__(ctx)
        # Static fault map: per (segment, column) counts of stuck cells among
        # that column's ``segment_rows`` devices.
        self._delta: List[np.ndarray] = []
        max_on = 0
        for s, rows in enumerate(ctx.segment_sizes):
            rng = ctx.rng("faults", s)
            on = rng.binomial(rows, rate_on, size=ctx.columns)
            off = rng.binomial(rows, rate_off, size=ctx.columns)
            max_on = max(max_on, int(on.max(initial=0)))
            self._delta.append((on - off).astype(np.float64))
        self._max_on = max_on

    @property
    def integer_domain(self) -> bool:
        return True

    @property
    def cycle_invariant(self) -> bool:
        return True

    def output_bound(self, input_bound: int) -> int:
        return int(input_bound) + self._max_on

    def perturb(self, values, segment, cycle, chunk):
        return np.maximum(
            np.asarray(values, dtype=np.float64) + self._delta[segment], 0.0
        )

    def perturb_into(self, values, segment, cycle, chunk, out, scratch=None):
        np.add(values, self._delta[segment], out=out)
        return np.maximum(out, 0.0, out=out)

    @staticmethod
    def perturb_trials(siblings, values, segment, cycle, chunk):
        delta = stacked_trial_state(
            siblings,
            segment,
            lambda: np.stack([bound._delta[segment] for bound in siblings]),
        )
        return np.maximum(
            np.asarray(values, dtype=np.float64) + _per_trial(delta, values), 0.0
        )


@register_model
class StuckAtFaults(NonIdealityModel):
    """Stuck-at-ON / stuck-at-OFF cell faults (behavioural, per column).

    A fraction ``rate_on`` of a column's cells is stuck conducting and a
    fraction ``rate_off`` stuck open; the counts are Binomial draws over the
    segment's rows, fixed per device.  Stuck-ON cells add their worst-case
    unit current to every conversion of the column, stuck-OFF cells remove
    up to their count (clamped at zero) — a deliberate bit-line-level
    simplification that avoids per-cell weight bookkeeping while preserving
    the integer domain.
    """

    name = "stuck_at_faults"

    def __init__(self, rate_on: float = 0.0, rate_off: float = 0.0) -> None:
        check_in_range(float(rate_on), "rate_on", low=0.0, high=1.0)
        check_in_range(float(rate_off), "rate_off", low=0.0, high=1.0)
        self.rate_on = float(rate_on)
        self.rate_off = float(rate_off)

    def params(self) -> Dict[str, object]:
        return {"rate_on": self.rate_on, "rate_off": self.rate_off}

    def bind(self, ctx: LayerNoiseContext) -> BoundModel:
        if self.rate_on == 0.0 and self.rate_off == 0.0:
            return _IdentityBound(ctx)
        return _BoundStuckAt(ctx, self.rate_on, self.rate_off)


# --------------------------------------------------------------------- #
# retention drift
# --------------------------------------------------------------------- #
class _BoundRetentionDrift(BoundModel):
    def __init__(self, ctx: LayerNoiseContext, factor: float) -> None:
        super().__init__(ctx)
        self.factor = factor

    @property
    def integer_domain(self) -> bool:
        return True

    @property
    def cycle_invariant(self) -> bool:
        return True

    def output_bound(self, input_bound: int) -> int:
        return int(round_half_up(input_bound * self.factor))

    def value_map(self, input_bound: int) -> Optional[np.ndarray]:
        levels = np.arange(input_bound + 1, dtype=np.float64)
        return round_half_up(levels * self.factor).astype(np.int64)

    def perturb(self, values, segment, cycle, chunk):
        # Must equal value_map element for element on exact integers.
        return round_half_up(np.asarray(values, dtype=np.float64) * self.factor)

    def perturb_into(self, values, segment, cycle, chunk, out, scratch=None):
        return round_half_up_into(np.multiply(values, self.factor, out=out), out)

    @staticmethod
    def perturb_trials(siblings, values, segment, cycle, chunk):
        # ``factor`` is parameter-derived (seed-free): identical across trials.
        return round_half_up(
            np.asarray(values, dtype=np.float64) * siblings[0].factor
        )


@register_model
class RetentionDrift(NonIdealityModel):
    """Power-law conductance retention loss, quantized to the level grid.

    After ``time`` (arbitrary units, e.g. hours since programming) every
    conductance has decayed by the deterministic factor ``(1 + time)^-nu``
    (``nu`` is the drift exponent of filamentary ReRAM retention models).
    The bit-line value scales by the same factor and is re-quantized onto
    the integer grid — a pure per-value map, which the fast engine folds
    directly into the ADC transfer LUT.
    """

    name = "retention_drift"

    def __init__(self, time: float = 1.0, nu: float = 0.05) -> None:
        check_in_range(float(time), "time", low=0.0)
        check_in_range(float(nu), "nu", low=0.0)
        self.time = float(time)
        self.nu = float(nu)

    @property
    def factor(self) -> float:
        """Multiplicative conductance retention ``(1 + time)^-nu``."""
        return float((1.0 + self.time) ** (-self.nu))

    def params(self) -> Dict[str, object]:
        return {"time": self.time, "nu": self.nu}

    def bind(self, ctx: LayerNoiseContext) -> BoundModel:
        if self.factor == 1.0:
            return _IdentityBound(ctx)
        return _BoundRetentionDrift(ctx, self.factor)


# --------------------------------------------------------------------- #
# IR-drop attenuation
# --------------------------------------------------------------------- #
class _BoundIRDrop(BoundModel):
    def __init__(self, ctx: LayerNoiseContext, alpha: float) -> None:
        super().__init__(ctx)
        size = max(2, ctx.crossbar_size)
        # Column position within its physical array: columns are packed
        # ``crossbar_size`` to an array, so the wire-resistance path grows
        # with the position modulo the array width.
        position = (np.arange(ctx.columns) % size) / (size - 1)
        self._factors = 1.0 - alpha * position

    @property
    def cycle_invariant(self) -> bool:
        return True

    def perturb(self, values, segment, cycle, chunk):
        return np.asarray(values, dtype=np.float64) * self._factors

    def perturb_into(self, values, segment, cycle, chunk, out, scratch=None):
        return np.multiply(values, self._factors, out=out)

    @staticmethod
    def perturb_trials(siblings, values, segment, cycle, chunk):
        # Attenuation is deterministic geometry (seed-free): one broadcast.
        return np.asarray(values, dtype=np.float64) * siblings[0]._factors


@register_model
class IRDropAttenuation(NonIdealityModel):
    """Deterministic per-column IR-drop attenuation.

    Wire resistance along the word/bit lines attenuates the current reaching
    the ADC; a column at the far end of its physical array loses up to
    ``alpha`` of its value (linear in position, the standard first-order
    approximation).  Deterministic — no RNG stream — but continuous, so runs
    with it take the element-wise conversion path.
    """

    name = "ir_drop"

    def __init__(self, alpha: float) -> None:
        check_in_range(float(alpha), "alpha", low=0.0, high=1.0)
        self.alpha = float(alpha)

    def params(self) -> Dict[str, object]:
        return {"alpha": self.alpha}

    def bind(self, ctx: LayerNoiseContext) -> BoundModel:
        if self.alpha == 0.0:
            return _IdentityBound(ctx)
        return _BoundIRDrop(ctx, self.alpha)
