"""Integer-domain lookup-table (LUT) conversion for the vectorised ADCs.

The bit-line values entering an ADC in this simulator are *exact non-negative
integers*: with ``Rcell``-bit cells and ``RDA``-bit DACs every partial sum is
bounded by ``segment_rows · (2^RDA − 1) · (2^Rcell − 1)`` (≤ 128 in the
default 128×128 / 1-bit topology).  An ADC's transfer function — quantized
output, A/D-operation cost and (for twin-range converters) the region a
sample lands in — can therefore be tabulated *once* per layer over
``0 … max_value`` and applied to whole batches with a single integer gather,
replacing the per-element float round/clip/compare arithmetic of
``convert``.  Region and conversion totals come from ``np.bincount`` on the
same integer codes, so the statistics are exact, not re-derived from floats.

Two tabulations are kept side by side:

* ``values`` — the float quantized outputs, produced by the very same float
  expressions the element-wise ``convert`` path evaluates, so
  :meth:`LutConversionMixin.convert_codes` is bit-identical to ``convert`` on
  integer inputs.
* ``levels`` — the *integer output levels* ``k`` of the converter, with a
  single scalar ``scale`` giving the decoded value ``scale · k`` (``Δ`` for
  a uniform ADC, ``ΔR1`` for a twin-range ADC; the twin-range level is
  ``bias·2^NR1 + code`` in R1 and ``code·2^M`` in R2).  Because levels are
  small integers, the crossbar engines can shift-and-add merge them
  *exactly* in any order (every partial sum stays far below ``2^53``) and
  apply ``scale`` once per output — this is what makes the fused kernel in
  :mod:`repro.crossbar.mapping` bit-identical to the reference loop.  Note
  that ``scale · k`` associates the float multiplications differently from
  the element-wise reconstruction in ``values``, so the two may differ by
  ≤ 1 ulp for non-power-of-two steps; both engines use the *level*
  semantics in the MVM datapath, so the difference never appears between
  engines.  Converters without a uniform level grid (e.g. the non-uniform
  baseline) publish ``levels=None`` and take the element-wise fallback path.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np


def compact_levels(levels: np.ndarray) -> np.ndarray:
    """Store exact integer levels in the smallest sufficient unsigned dtype.

    Smaller gather outputs keep the fast engine's merge input cache-resident;
    the merge itself up-casts to float64 (exactly) while accumulating.
    """
    max_level = int(levels.max(initial=0))
    for dtype in (np.uint8, np.uint16, np.uint32):
        if max_level <= np.iinfo(dtype).max:
            return levels.astype(dtype)
    return levels.astype(np.int64)


@dataclasses.dataclass(frozen=True)
class AdcTransferLut:
    """Tabulated transfer function of one ADC over ``0 … max_value``.

    Attributes
    ----------
    values:
        ``(max_value + 1,)`` float64 quantized output for every integer input
        (bit-identical to the element-wise ``convert``).
    ops_per_value:
        ``(max_value + 1,)`` int64 total A/D operations charged for converting
        the corresponding input (detection phase included).
    levels:
        Optional ``(max_value + 1,)`` unsigned-integer output levels ``k``
        whose decoded value is ``scale · k`` (within 1 ulp of ``values``;
        see the module docstring); ``None`` for converters without a
        uniform level grid.
    scale:
        The level step (``Δ`` / ``ΔR1``); 1.0 when ``levels`` is ``None``.
    in_r1:
        Optional ``(max_value + 1,)`` boolean mask — True where the input is
        resolved in the dense range R1 (twin-range converters only).
    detection_ops:
        Detection-phase operations per conversion (``ν`` of paper Eq. 9);
        zero for single-range converters.
    """

    values: np.ndarray
    ops_per_value: np.ndarray
    levels: Optional[np.ndarray] = None
    scale: float = 1.0
    in_r1: Optional[np.ndarray] = None
    detection_ops: int = 0

    @property
    def max_value(self) -> int:
        return self.values.size - 1


def compose_transfer_lut(lut: AdcTransferLut, value_map: np.ndarray) -> AdcTransferLut:
    """Fold an integer value→value perturbation into a transfer LUT.

    ``value_map[v]`` is the perturbed bit-line value an ideal input ``v``
    actually presents to the converter (e.g. retention drift re-quantized to
    the level grid, see :mod:`repro.nonideal`).  The composed LUT indexed by
    the *ideal* value produces exactly what converting the perturbed value
    through ``lut`` would — output, operation cost, region decision — so the
    fast engine applies discrete non-idealities at zero per-element cost
    while the reference engine perturbs each block explicitly; the two stay
    bit-identical because ``value_map`` equals the model's ``perturb`` on
    every integer.
    """
    value_map = np.asarray(value_map, dtype=np.int64)
    if value_map.size and (
        value_map.min() < 0 or value_map.max() > lut.max_value
    ):
        raise ValueError(
            f"value_map range [{value_map.min()}, {value_map.max()}] exceeds "
            f"the LUT domain [0, {lut.max_value}]"
        )
    return AdcTransferLut(
        values=lut.values[value_map],
        ops_per_value=lut.ops_per_value[value_map],
        levels=None if lut.levels is None else lut.levels[value_map],
        scale=lut.scale,
        in_r1=None if lut.in_r1 is None else lut.in_r1[value_map],
        detection_ops=lut.detection_ops,
    )


#: Elements per gather tile; sized so a tile's integer codes and gathered
#: levels stay cache-resident (shared with the fused crossbar kernel).
GATHER_TILE = 1 << 18


def gather_levels(
    lut: AdcTransferLut,
    flat_values: np.ndarray,
    counts: np.ndarray,
    out_levels: np.ndarray,
    tile: int = GATHER_TILE,
) -> None:
    """Tiled integer-LUT gather with an exact code histogram, in place.

    ``flat_values`` holds exact integer bit-line values (any float/int
    dtype); the corresponding output *levels* are gathered into
    ``out_levels`` and the per-value histogram is accumulated into
    ``counts`` (shape ``(lut.max_value + 1,)``), from which
    :meth:`LutConversionMixin.record_code_counts` later derives exact
    operation/region totals.  This is the conversion core of the fused
    crossbar kernel at one trial (:meth:`TrialLutGather.gather`).  Raises
    ``ValueError`` when a value exceeds the LUT bound.

    The array primitives route through the active :mod:`repro.backend`
    array-ops shim; under the default numpy backend they are the exact
    ``np.bincount``/``np.take`` calls this helper replaced.
    """
    from repro.backend import active_ops  # lazy: keep adc import-light

    ops = active_ops()
    size = flat_values.size
    for start in range(0, size, tile):
        stop = min(start + tile, size)
        codes = flat_values[start:stop].astype(np.int64)
        tile_counts = ops.bincount(codes, minlength=counts.size)
        if tile_counts.size > counts.size:
            raise ValueError(
                f"bit-line value {int(codes.max())} exceeds the LUT bound "
                f"{lut.max_value}"
            )
        counts += tile_counts
        ops.take(lut.levels, codes, out=out_levels[start:stop])


class TrialLutGather:
    """One gather/histogram pass over several trials' (different) LUTs.

    The batched Monte Carlo kernel carries ``trials`` sibling LUTs whose
    sizes differ (each trial's perturbed bit-line bound is seed-dependent).
    Rather than gathering per trial, the level tables are concatenated into
    one combined table and every trial's integer codes are shifted by its
    table offset — so a *single* ``take`` and a *single* ``bincount`` cover
    the whole trial batch, and slicing the combined histogram at the offsets
    recovers each trial's exact per-value counts.  Results are bit-identical
    to per-trial :func:`gather_levels` calls by construction: offsetting
    indexes the very same table entries, and histogram slices partition the
    same codes.
    """

    def __init__(self, luts) -> None:
        self.luts = list(luts)
        sizes = [lut.levels.size for lut in self.luts]
        self.sizes = sizes
        self.offsets = np.concatenate(
            [[0], np.cumsum(sizes[:-1], dtype=np.int64)]
        ).astype(np.int64)
        self.total_size = int(sum(sizes))
        common = np.result_type(*[lut.levels.dtype for lut in self.luts])
        self.levels = np.concatenate(
            [np.asarray(lut.levels, dtype=common) for lut in self.luts]
        )
        self._max_values = np.array(
            [lut.max_value for lut in self.luts], dtype=np.int64
        )
        # Combined per-value cost/region tables for the vectorised trials
        # statistics pass (:meth:`record_trials`): segment sums over the
        # combined histogram replace one Python-level ``record_code_counts``
        # call per trial.  Integer arithmetic throughout, so the totals are
        # exactly the per-trial ones.
        self._ops_per_value = np.concatenate(
            [lut.ops_per_value for lut in self.luts]
        ).astype(np.int64)
        if all(lut.in_r1 is not None for lut in self.luts):
            self._in_r1 = np.concatenate(
                [lut.in_r1 for lut in self.luts]
            ).astype(np.int64)
        else:
            self._in_r1 = None

    def record_trials(self, counts, adcs) -> list:
        """Record every trial's conversion statistics from the histogram.

        Equivalent to calling ``adcs[t].record_code_counts`` with each
        trial's histogram slice, but the per-trial reductions run as three
        ``np.add.reduceat`` segment sums over the combined histogram — all
        integer, hence bit-exact — leaving only the constant-time counter
        updates in Python.  Returns the per-trial A/D-operation totals.
        """
        if self._in_r1 is None:
            return [
                adc.record_code_counts(self.trial_counts(counts, t), lut)
                for t, (adc, lut) in enumerate(zip(adcs, self.luts))
            ]
        conversions = np.add.reduceat(counts, self.offsets)
        total_ops = np.add.reduceat(counts * self._ops_per_value, self.offsets)
        num_r1 = np.add.reduceat(counts * self._in_r1, self.offsets)
        for t, (adc, lut) in enumerate(zip(adcs, self.luts)):
            adc.stats.record(
                conversions=int(conversions[t]),
                operations=int(total_ops[t]),
                detection_operations=int(conversions[t]) * lut.detection_ops,
                in_r1=int(num_r1[t]),
                in_r2=int(conversions[t] - num_r1[t]),
            )
        return [int(ops) for ops in total_ops]

    def new_counts(self) -> np.ndarray:
        """A zeroed combined histogram to accumulate across gathers."""
        return np.zeros(self.total_size, dtype=np.int64)

    def trial_counts(self, counts: np.ndarray, trial: int) -> np.ndarray:
        """Trial ``trial``'s slice of a combined histogram."""
        start = int(self.offsets[trial])
        return counts[start : start + self.sizes[trial]]

    def gather(
        self,
        values: np.ndarray,
        counts: np.ndarray,
        out_levels: np.ndarray,
        tile: int = GATHER_TILE,
    ) -> None:
        """Gather all trials' levels and accumulate the combined histogram.

        ``values`` holds exact integer bit-line values with the trial axis
        leading (``(trials, …)``); ``out_levels`` has the same shape (dtype
        of the combined table) and ``counts`` is ``(total_size,)``.
        """
        trials = values.shape[0]
        if trials == 1:
            # One table: no offsets to add, and the histogram length is the
            # bound check, so the values need no separate max scan.
            gather_levels(
                self.luts[0], values.reshape(-1), counts, out_levels.reshape(-1), tile
            )
            return
        from repro.backend import active_ops  # lazy: keep adc import-light

        ops = active_ops()
        flat_per_trial = values.reshape(trials, -1)
        if flat_per_trial.shape[1]:
            maxes = flat_per_trial.max(axis=1).astype(np.int64)
            bad = np.nonzero(maxes > self._max_values)[0]
            if bad.size:
                trial = int(bad[0])
                raise ValueError(
                    f"bit-line value {int(maxes[trial])} exceeds the LUT "
                    f"bound {self.luts[trial].max_value}"
                )
        codes = flat_per_trial.astype(np.int64)
        codes += self.offsets[:, None]
        flat_codes = codes.reshape(-1)
        flat_levels = out_levels.reshape(-1)
        for start in range(0, flat_codes.size, tile):
            stop = min(start + tile, flat_codes.size)
            tile_codes = flat_codes[start:stop]
            counts += ops.bincount(tile_codes, minlength=self.total_size)
            ops.take(self.levels, tile_codes, out=flat_levels[start:stop])


class LutConversionMixin:
    """Adds cached integer-code conversion to a vectorised ADC model.

    Subclasses implement :meth:`_build_transfer_lut`; the mixin provides
    :meth:`transfer_lut` (cached per ``max_value``), :meth:`convert_codes`
    (the integer-domain twin of ``convert``) and :meth:`record_code_counts`
    (exact statistics from a code histogram, used by the fused engine).
    """

    _lut_cache: Optional[Dict[int, AdcTransferLut]] = None

    def _build_transfer_lut(self, max_value: int) -> AdcTransferLut:
        raise NotImplementedError

    def transfer_lut(self, max_value: int) -> AdcTransferLut:
        """The tabulated transfer function covering inputs ``0 … max_value``."""
        if max_value < 0:
            raise ValueError(f"max_value must be non-negative, got {max_value}")
        if self._lut_cache is None:
            self._lut_cache = {}
        lut = self._lut_cache.get(max_value)
        if lut is None:
            lut = self._build_transfer_lut(int(max_value))
            self._lut_cache[max_value] = lut
        return lut

    def convert_codes(self, codes: np.ndarray, max_value: int) -> Tuple[np.ndarray, int]:
        """Convert an array of exact integer bit-line values via the LUT.

        Bit-identical to ``convert(codes.astype(float))`` — same quantized
        values, same total operation count, same statistics — but executed as
        one gather plus one ``bincount`` instead of per-element float math.
        """
        lut = self.transfer_lut(max_value)
        codes = np.asarray(codes)
        counts = np.bincount(codes.ravel(), minlength=lut.values.size)
        if counts.size > lut.values.size:
            raise ValueError(
                f"bit-line value {int(codes.max())} exceeds the LUT bound {lut.max_value}"
            )
        total_ops = self.record_code_counts(counts, lut)
        return lut.values[codes], total_ops

    def record_code_counts(self, counts: np.ndarray, lut: AdcTransferLut) -> int:
        """Record statistics for a histogram of converted codes.

        ``counts[v]`` is how many conversions saw bit-line value ``v``.  The
        operation, detection and region totals derived from the histogram are
        exactly those the element-wise ``convert`` would have accumulated.
        Returns the total A/D-operation count.
        """
        conversions = int(counts.sum())
        total_ops = int(counts @ lut.ops_per_value)
        if lut.in_r1 is not None:
            num_r1 = int(counts[lut.in_r1].sum())
            self.stats.record(
                conversions=conversions,
                operations=total_ops,
                detection_operations=conversions * lut.detection_ops,
                in_r1=num_r1,
                in_r2=conversions - num_r1,
            )
        else:
            self.stats.record(conversions=conversions, operations=total_ops)
        return total_ops
