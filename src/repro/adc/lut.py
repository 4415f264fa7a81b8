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
A converter whose every input costs the same number of operations and that
has no region table (the uniform SAR ADC) needs no histogram at all: its
totals are the number of values converted times that cost.

Two tabulations are kept side by side:

* ``values`` — the float quantized outputs, produced by the very same float
  expressions the element-wise ``convert`` path evaluates, so ``values[v]``
  is bit-identical to ``convert`` of the integer input ``v``.
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
  engines.

The fused kernel gathers through :class:`TrialLutGather`, which
concatenates the trials' tables at per-trial offsets.  On the kernel's pair
layout it tabulates differences instead of levels: the table ``D[i·B + j]
= L[i] − L[j]`` (:func:`difference_table`) turns the pair code ``B·v⁺ +
v⁻`` of a positive/negative column pair into the signed level difference
the merge consumes, so one ``bincount`` into ``B²`` joint bins and one
``take`` replace the two conversions of the pair.  A trial's per-value
counts are the row sums plus the column sums of its joint histogram
(:func:`fold_pair_counts`), so every statistic is exactly that of
converting each column on its own.

On the column layout it folds static device noise into the tables: when
every noise model maps each (segment, column) through a fixed integer map
``g(c, v)`` of the ideal bit-line value, the table ``T[c·B + v] = L[g(c,
v)]`` of each (trial, segment) converts the *unperturbed* value directly.
The histogram is taken over the same index and folded back through ``g``,
so the statistics are exactly those of converting every perturbed value.
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
        ``(max_value + 1,)`` unsigned-integer output levels ``k`` whose
        decoded value is ``scale · k`` (within 1 ulp of ``values``; see the
        module docstring).
    scale:
        The level step (``Δ`` / ``ΔR1``).
    in_r1:
        Optional ``(max_value + 1,)`` boolean mask — True where the input is
        resolved in the dense range R1 (twin-range converters only).
    detection_ops:
        Detection-phase operations per conversion (``ν`` of paper Eq. 9);
        zero for single-range converters.
    """

    values: np.ndarray
    ops_per_value: np.ndarray
    levels: np.ndarray
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
        levels=lut.levels[value_map],
        scale=lut.scale,
        in_r1=None if lut.in_r1 is None else lut.in_r1[value_map],
        detection_ops=lut.detection_ops,
    )


#: Elements per gather tile; sized so a tile's integer codes and gathered
#: levels stay cache-resident (shared with the fused crossbar kernel).
GATHER_TILE = 1 << 18


_SIGNED_DTYPES = [
    (int(np.iinfo(dtype).max), np.dtype(dtype))
    for dtype in (np.int8, np.int16, np.int32, np.int64)
]


def signed_dtype_for(bound: int) -> np.dtype:
    """The smallest signed integer dtype holding every value in ``±bound``.

    Raises ``OverflowError`` beyond int64, so integer accumulators sized
    with it can never wrap silently.
    """
    for limit, dtype in _SIGNED_DTYPES:
        if bound <= limit:
            return dtype
    raise OverflowError(f"no integer dtype holds ±{bound}")


def fold_pair_counts(joint: np.ndarray, base: int) -> np.ndarray:
    """Per-value counts behind a joint histogram of pair codes ``B·v⁺ + v⁻``.

    ``joint`` holds ``B²`` bins on its last axis.  Every pair code counts
    one value ``v⁺`` and one value ``v⁻``, so entry ``v`` of the result is
    row sum ``v`` plus column sum ``v`` of the ``B × B`` histogram.
    """
    joint = joint.reshape(joint.shape[:-1] + (base, base))
    return joint.sum(axis=-1) + joint.sum(axis=-2)


def difference_table(levels: np.ndarray, dtype) -> np.ndarray:
    """``D[i·B + j] = levels[i] − levels[j]`` over ``0 … B−1`` (``B = levels.size``).

    Indexed by the pair code ``B·v⁺ + v⁻`` of one positive/negative bit-line
    pair, it yields the signed level difference the shift-and-add merge
    consumes, in one gather for both columns.
    """
    levels = np.asarray(levels, dtype=dtype)
    return (levels[:, None] - levels[None, :]).reshape(-1)


class TrialLutGather:
    """One gather/histogram pass over several trials' (different) LUTs.

    The batched Monte Carlo kernel carries ``trials`` sibling LUTs whose
    sizes differ (each trial's perturbed bit-line bound is seed-dependent).
    Rather than gathering per trial, the per-trial tables are concatenated
    into one combined table and every trial's integer codes are shifted by
    its table offset — so a *single* ``take`` and a *single* ``bincount``
    cover the whole trial batch, and slicing the combined histogram at the
    offsets recovers each trial's exact counts.  Results are bit-identical
    to per-trial gathers by construction: offsetting indexes the very same
    table entries, and histogram slices partition the same codes.

    Three table layouts exist:

    * **separate** (the default) — each trial's table is its LUT's
      ``levels``; one code is one bit-line value.
    * **pair** (``pair_base=B``) — each trial's table is its
      :func:`difference_table` over the first ``B`` levels, and one code is
      the pair code ``B·v⁺ + v⁻`` of a positive/negative column pair (the
      fused kernel's pair GEMM produces it directly, see
      :mod:`repro.crossbar.mapping`).  One gather converts both columns and
      returns the signed difference ``L[v⁺] − L[v⁻]``; the histogram is
      joint over ``B²`` bins, and :meth:`record_trials` folds it back into
      per-value counts (row sums plus column sums), so every statistic is
      exactly the separate layout's.  The pair code cannot alias because
      ``B − 1`` bounds every bit-line value the kernel pairs.
    * **column** (``column_values``) — static device noise folded into the
      tables.  ``column_values`` yields, per word-line segment, the
      ``(trials, B, columns)`` perturbed values of a probe block whose row
      ``v`` holds ``v`` in every column, so entry ``[t, v, c]`` is trial
      ``t``'s perturbed value ``g(c, v)``.  Trial ``t``'s table for segment
      ``s`` is ``T[c·B + v] = L[g(c, v)]``, and a code is the *ideal*
      bit-line value ``v`` of column ``c``: one gather applies the noise and
      converts.  :meth:`gather` histograms the codes ``c·B + v`` — once for
      every trial when the trials share their input — and folds each trial's
      histogram through its ``g`` into ``counts``, so ``counts`` is the
      exact per-value histogram of the perturbed values and
      :meth:`record_trials` records it as the separate layout's.  A code
      cannot alias into the next column because ``B − 1`` bounds every
      ideal value.

    When every trial's LUT charges one constant cost per conversion and has
    no region table (:attr:`costs`, the uniform SAR ADC), no layout keeps a
    histogram: :meth:`gather` only gathers, with one max scan as its bound
    check, and ``counts`` holds each trial's number of conversions (two per
    pair code).
    """

    def __init__(
        self, luts, pair_base: Optional[int] = None, column_values=None
    ) -> None:
        self.luts = list(luts)
        self.pair_base = pair_base
        #: ``(segments, columns, B)`` of the column layout, else ``None``.
        self.column_shape: Optional[Tuple[int, int, int]] = None
        #: Upper bound on the magnitude of every gathered entry (levels are
        #: non-negative, so it also bounds their differences).
        self.level_bound = max(int(lut.levels.max(initial=0)) for lut in self.luts)
        if column_values is not None:
            tables = self._column_tables(column_values)
        elif pair_base is None:
            common = np.result_type(*[lut.levels.dtype for lut in self.luts])
            tables = [np.asarray(lut.levels, dtype=common) for lut in self.luts]
        else:
            if any(lut.levels.size < pair_base for lut in self.luts):
                raise ValueError(f"every LUT must cover the pair base {pair_base}")
            dtype = signed_dtype_for(self.level_bound)
            tables = [difference_table(lut.levels[:pair_base], dtype) for lut in self.luts]
        self.sizes = [table.size for table in tables]
        self.offsets = _offsets(self.sizes)
        self.total_size = int(sum(self.sizes))
        self.levels = np.concatenate(tables)
        self._max_values = np.array(self.sizes, dtype=np.int64) - 1
        # Combined per-value cost/region tables for the vectorised trials
        # statistics pass (:meth:`record_trials`): segment sums over the
        # combined per-value histogram give every trial's totals at once.
        # Integer arithmetic throughout, so the totals are exactly the
        # per-trial ones.
        self._value_sizes = [lut.levels.size for lut in self.luts]
        self._value_offsets = _offsets(self._value_sizes)
        self._ops_per_value = np.concatenate(
            [lut.ops_per_value for lut in self.luts]
        ).astype(np.int64)
        if all(lut.in_r1 is not None for lut in self.luts):
            self._in_r1 = np.concatenate(
                [lut.in_r1 for lut in self.luts]
            ).astype(np.int64)
        else:
            self._in_r1 = None
        #: Each trial's A/D operations per conversion when every LUT charges
        #: one cost for all values and has no region table, else ``None``.
        self.costs: Optional[np.ndarray] = None
        costs = np.array([lut.ops_per_value[0] for lut in self.luts], dtype=np.int64)
        if self._in_r1 is None and all(
            (lut.ops_per_value == cost).all() for lut, cost in zip(self.luts, costs)
        ):
            self.costs = costs

    def _column_tables(self, column_values) -> list:
        """The column tables ``L[g(c, v)]``, segment-major.

        Entry ``(s·trials + t)·C·B + c·B + v`` is trial ``t``'s level for
        the ideal value ``v`` of column ``c`` in segment ``s``, so one
        segment's tables are one contiguous slice indexed by ``t·C·B + c·B
        + v``.  ``g`` is kept per (segment, trial) in the narrowest
        unsigned dtype for :meth:`gather`'s fold; a perturbed value above
        its trial's LUT bound raises the gather's ``ValueError``.
        """
        bounds = [lut.max_value for lut in self.luts]
        narrow = np.min_scalar_type(max(bounds))
        maps = []
        for values in column_values:
            if values.size and values.min() < 0:
                raise ValueError(f"negative perturbed bit-line value {values.min()}")
            tops = values.max(axis=(1, 2), initial=0)
            for top, bound in zip(tops, bounds):
                if top > bound:
                    raise ValueError(_bound_message("bit-line value", int(top), bound))
            maps.append(values.transpose(0, 2, 1).astype(narrow))
        maps = np.stack(maps)  # (segments, trials, columns, B)
        segments, trials, cols, base = maps.shape
        bins = cols * base
        if trials * bins >= 1 << 24:
            raise ValueError(
                f"{trials} × {cols} × {base} column codes are not exact in float32"
            )
        self.column_shape = (segments, cols, base)
        self._column_maps = maps.reshape(segments, trials, bins)
        # float32 offsets ``t·C·B + c·B``: adding them to float32 bit-line
        # values and casting to int64 is one exact pass (codes < 2^24).
        self._column_offsets = (
            np.arange(trials, dtype=np.float32)[:, None, None, None] * bins
            + np.arange(0, bins, base, dtype=np.float32)
        )
        common = np.result_type(*[lut.levels.dtype for lut in self.luts])
        levels = [np.asarray(lut.levels, dtype=common) for lut in self.luts]
        return [
            np.concatenate([table[g] for table, g in zip(levels, segment_maps)]).reshape(-1)
            for segment_maps in self._column_maps
        ]

    def _value_counts(self, counts: np.ndarray) -> np.ndarray:
        """The combined per-value histogram behind a gather histogram.

        The identity for the separate and column layouts (the column
        layout folds in :meth:`gather`).  For the pair layout, a trial's
        per-value counts are :func:`fold_pair_counts` of its ``B × B``
        joint histogram (zero above ``B − 1``).
        """
        if self.pair_base is None:
            return counts
        base = self.pair_base
        folded = fold_pair_counts(counts.reshape(len(self.luts), base * base), base)
        values = np.zeros(sum(self._value_sizes), dtype=np.int64)
        for t, start in enumerate(self._value_offsets):
            values[start : start + base] = folded[t]
        return values

    def record_trials(self, counts, adcs) -> list:
        """Record every trial's conversion statistics from ``counts``.

        Each trial's conversions, A/D operations, detection operations and
        region counts are exactly those the element-wise ``convert`` would
        accumulate over the values its per-value histogram
        (:meth:`_value_counts`) counts.  The per-trial reductions run as
        ``np.add.reduceat`` segment sums over the combined histogram — all
        integer, hence bit-exact — leaving only the constant-time counter
        updates in Python.  With constant
        :attr:`costs`, ``counts`` is already each trial's number of
        conversions and the operations are that number times the cost.
        Returns the per-trial A/D-operation totals.
        """
        if self.costs is not None:
            conversions = counts
            total_ops = counts * self.costs
            num_r1 = None
        else:
            counts = self._value_counts(counts)
            conversions = np.add.reduceat(counts, self._value_offsets)
            total_ops = np.add.reduceat(counts * self._ops_per_value, self._value_offsets)
            num_r1 = (
                None if self._in_r1 is None
                else np.add.reduceat(counts * self._in_r1, self._value_offsets)
            )
        for t, (adc, lut) in enumerate(zip(adcs, self.luts)):
            if num_r1 is None:
                adc.stats.record(conversions=int(conversions[t]), operations=int(total_ops[t]))
            else:
                adc.stats.record(
                    conversions=int(conversions[t]),
                    operations=int(total_ops[t]),
                    detection_operations=int(conversions[t]) * lut.detection_ops,
                    in_r1=int(num_r1[t]),
                    in_r2=int(conversions[t] - num_r1[t]),
                )
        return [int(ops) for ops in total_ops]

    def new_counts(self) -> np.ndarray:
        """Zeroed ``counts`` to accumulate across gathers: per-trial
        conversion counts with constant :attr:`costs`, else the combined
        histogram."""
        if self.costs is not None:
            return np.zeros(len(self.luts), dtype=np.int64)
        if self.column_shape is not None:
            return np.zeros(sum(self._value_sizes), dtype=np.int64)
        return np.zeros(self.total_size, dtype=np.int64)

    def gather(
        self,
        values: np.ndarray,
        counts: np.ndarray,
        out_levels: np.ndarray,
        tile: int = GATHER_TILE,
        segment: int = 0,
    ) -> None:
        """Gather all trials' table entries and accumulate ``counts``.

        ``values`` holds exact integer codes (bit-line values, or pair codes
        in the pair layout) with the trial axis leading (``(trials, …)``);
        ``out_levels`` has the same shape (dtype of the combined table) and
        ``counts`` is :meth:`new_counts`.  Raises ``ValueError`` when a code
        exceeds its trial's table.  On the column layout ``values`` is
        ``(1 or trials, blocks, rows, columns)``: the ideal bit-line values
        of word-line segment ``segment``, where a leading axis of 1 means
        every trial shares them.
        """
        if self.column_shape is not None:
            self._gather_columns(values, counts, out_levels, segment, tile)
            return
        trials = values.shape[0]
        flat_per_trial = values.reshape(trials, -1)
        histogram = self.costs is None
        # One table with a histogram needs no max scan: the histogram
        # length is the bound check.
        if (trials > 1 or not histogram) and flat_per_trial.shape[1]:
            maxes = flat_per_trial.max(axis=1).astype(np.int64)
            bad = np.nonzero(maxes > self._max_values)[0]
            if bad.size:
                self._raise_bound(int(maxes[bad[0]]), int(bad[0]))
        if trials == 1:
            # No offsets to add: each tile is cast on its own to stay
            # cache-resident.
            flat_codes = flat_per_trial[0]
        else:
            codes = flat_per_trial.astype(np.int64)
            codes += self.offsets[:, None]
            flat_codes = codes.reshape(-1)
        flat_levels = out_levels.reshape(-1)
        for start in range(0, flat_codes.size, tile):
            stop = min(start + tile, flat_codes.size)
            tile_codes = flat_codes[start:stop].astype(np.int64, copy=False)
            if histogram:
                tile_counts = np.bincount(tile_codes, minlength=self.total_size)
                if tile_counts.size > self.total_size:
                    self._raise_bound(int(tile_codes.max()), 0)
                counts += tile_counts
            np.take(self.levels, tile_codes, out=flat_levels[start:stop])
        if not histogram:
            counts += (1 if self.pair_base is None else 2) * flat_per_trial.shape[1]

    def _gather_columns(self, values, counts, out_levels, segment, tile) -> None:
        """The column layout's gather over ``(1 or trials, blocks, rows, C)``.

        Each row tile becomes ``int64`` codes ``t·C·B + c·B + v`` for every
        trial in one exact add-and-cast pass, then one ``bincount`` and one
        ``take`` from the segment's tables.  When the trials share their
        input (a leading axis of 1) only trial 0's codes are histogrammed,
        once for all.  The segment's ``c·B + v`` histograms are folded
        through each trial's ``g`` into ``counts`` by one weighted
        ``bincount`` (float64 sums of integer counts, exact far beyond any
        chunk's size).
        """
        trials = len(self.luts)
        _, cols, base = self.column_shape
        bins = cols * base
        if values.shape[0] == 1 and values.flags.c_contiguous and out_levels.flags.c_contiguous:
            # Shared contiguous blocks tile as one run of rows, so each
            # tile's output is contiguous too.
            values = values.reshape(1, 1, -1, cols)
            out_levels = out_levels.reshape(trials, 1, -1, cols)
        sources, blocks, rows = values.shape[:3]
        table = self.levels[segment * trials * bins : (segment + 1) * trials * bins]
        tile_rows = max(1, tile // max(1, trials * blocks * cols))
        codes_buf = np.empty(trials * blocks * min(tile_rows, rows) * cols, dtype=np.int64)
        histogram = None
        if self.costs is None:
            histogram = np.zeros(sources * bins, dtype=np.int64)
        elif values.size and values.max() >= base:
            raise ValueError(_bound_message("bit-line value", int(values.max()), base - 1))
        for start in range(0, rows, tile_rows):
            stop = min(start + tile_rows, rows)
            codes = codes_buf[: trials * blocks * (stop - start) * cols].reshape(
                trials, blocks, stop - start, cols
            )
            np.add(values[:, :, start:stop], self._column_offsets, out=codes, casting="unsafe")
            if histogram is not None:
                tile_counts = np.bincount(codes[:sources].reshape(-1), minlength=histogram.size)
                if tile_counts.size > histogram.size:
                    top = int(codes[:sources].max()) - (histogram.size - base)
                    raise ValueError(_bound_message("bit-line value", top, base - 1))
                histogram += tile_counts
            np.take(table, codes, out=out_levels[:, :, start:stop])
        if histogram is None:
            counts += out_levels[0].size
            return
        index = self._column_maps[segment]
        if trials > 1:
            index = index + self._value_offsets[:, None]
            histogram = np.tile(histogram, trials // sources)
        folded = np.bincount(index.reshape(-1), weights=histogram, minlength=counts.size)
        counts += folded.astype(np.int64)

    def _raise_bound(self, code: int, trial: int) -> None:
        what = "bit-line value" if self.pair_base is None else "bit-line pair code"
        raise ValueError(_bound_message(what, code, int(self._max_values[trial])))


def _bound_message(what: str, code: int, bound: int) -> str:
    return f"{what} {code} exceeds the LUT bound {bound}"


def _offsets(sizes) -> np.ndarray:
    """Start offset of each table in the concatenation of ``sizes``."""
    return np.concatenate([[0], np.cumsum(sizes[:-1], dtype=np.int64)]).astype(np.int64)


class LutConversionMixin:
    """Adds a cached transfer LUT to a vectorised ADC model.

    Subclasses implement :meth:`_build_transfer_lut`; the mixin provides
    :meth:`transfer_lut` (cached per ``max_value``).  The fused engine
    converts through these tables with :class:`TrialLutGather`, which also
    records each converter's statistics.
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
