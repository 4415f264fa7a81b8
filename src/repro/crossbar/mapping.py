"""Mapping quantized MVM layers onto crossbar resources.

:class:`MappedMVMLayer` is the workhorse of the PIM simulator: it takes the
integer weight matrix of one Conv2d/Linear layer (already lowered to a 2-D
``(in_features, out_features)`` matrix by im2col), applies the differential
positive/negative mapping, spatial weight bit-slicing and word-line
segmentation of the paper's datapath, and exposes a vectorised
``matmul(input_codes, adc)`` that reproduces — bit-line value by bit-line
value — what the accelerator's ADCs would digitise.

Layout of the internal "plane matrix"
-------------------------------------
All weight bit planes of both signs are packed side by side into one matrix
of shape ``(in_features, 2 · planes · out_features)`` with the output index
fastest, plane next and sign slowest.  One matmul per (input cycle, row
segment) then produces *every* bit-line value of that cycle/segment at once,
which keeps the Python overhead negligible while remaining exactly equivalent
to simulating each 128×128 array separately (verified by unit tests against
:func:`repro.crossbar.merge.shift_add_merge`).

The fused kernel may instead use the half-width **pair matrix** ``B·W⁺ +
W⁻`` of shape ``(in_features, planes · out_features)``, with ``B =
max_bitline_value + 1``.  Its matmul output is the *pair code* ``B·v⁺ +
v⁻`` of one positive/negative column pair: an exact integer below ``B²``,
which cannot alias because ``B − 1`` bounds every bit-line value.  The pair
layout is chosen when a LUT conversion sees its bit-line values unperturbed
(no noise, or a pure value map folded into the LUTs) and ``B²`` fits a
measured cache-sized bound (``MappedMVMLayer._PAIR_MAX_BINS``); the default
128-row, 1-bit topology has ``B ≤ 129`` and always qualifies.  Device noise
other than a pure value map and the element-wise fallback keep the plane
matrix.

Ideal conversion without noise needs neither matrix: the shift-and-add
merge of lossless conversions is the integer product ``codes @ W`` of the
activation codes and the signed weight codes, computed as one float64 GEMM.
The constructor checks ``(2^Ki − 1) · max_c Σ_r |W_rc| < 2^53``, so every
partial sum of that GEMM is an exact integer on any BLAS kernel.  A
bit-line capture (paper Fig. 3a) runs on that route too: its observer
receives, per call, one int64 count vector of the ideal bit-line values,
which the fast engine takes from one ``B²``-bin joint histogram of the pair
GEMM (the plane GEMM's values above ``_PAIR_MAX_BINS``).

Static device noise (every model integer-domain and cycle-invariant:
quantized variation, stuck-at faults, drift) maps each (segment, column)
through a fixed integer map ``g(c, v)`` of the ideal bit-line value.  Its
**column tables** ``L[g(c, v)]``, one ``columns × B`` table per (trial,
segment) indexed ``c·B + v``, are tabulated once per run by passing a probe
block (row ``v`` holds ``v`` in every column) through the noise models;
one gather of the plane matrix's ideal values then applies the noise and
converts.  They are used while ``trials × columns × B`` fits a measured
bound (``MappedMVMLayer._COLUMN_MAX_BINS``); larger layers perturb every
element instead.

Simulation engines
------------------
``matmul`` offers two engines behind the ``engine`` switch:

* ``"reference"`` — the original loop over ``num_input_cycles ×
  num_segments`` blocks, one matmul and one element-wise ADC conversion per
  block.  Slow but maximally transparent; kept as the verification oracle.
* ``"fast"`` — the fused kernel: all input cycles of a batch are stacked into
  one ``(cycles · batch, segment_rows)`` operand so each segment needs a
  single matmul, and ADC conversion runs in the *integer domain*.  Bit-line
  values are exact non-negative integers bounded by ``segment_rows ·
  (2^RDA − 1) · (2^Rcell − 1)``, so LUT-capable ADCs (see
  :mod:`repro.adc.lut`) convert them with one integer gather and derive exact
  region/op totals from ``np.bincount`` instead of per-element float math
  (a uniform converter's constant cost needs only the number of values).
  On the pair layout one gather from a difference table ``L[i] − L[j]``
  converts both columns of a pair, and the joint histogram folds back into
  the exact per-value counts.  The merge is exact integer Horner
  arithmetic over the signed level differences ``L⁺ − L⁻``: first over
  input cycles, then over weight planes, with power-of-two factors and
  accumulators sized from the layer's exact bounds.

There is exactly one fused kernel, and it carries a leading Monte Carlo
``trials`` axis (:meth:`MappedMVMLayer.matmul_trials`): a solo
``matmul(engine="fast")`` is a one-trial call into it.

Bit-reproducibility rests on the **integer-domain invariant**: every quantity
the datapath merges is an exact small integer.  ADCs with a uniform level
grid expose integer *output levels* ``k`` (quantized value = ``scale · k``
exactly), the shift-and-add factors and DAC cycle weights are signed powers
of two, and every partial sum stays far below ``2^53`` — so the fast
engine's integer merge and the reference loop's float64 accumulation both
compute the exact result in *any* order.  Both engines therefore compute the
same exact integers, scale them once per output, and produce bit-identical
results with identical operation counts (asserted by the test suite and by
``benchmarks/bench_engine_fastpath.py``).  Converters without a level grid
(e.g. the non-uniform baseline) take an element-wise fallback inside the
fused kernel that replays the reference merge semantics and order.

Device non-idealities (the optional ``noise`` argument, a
:class:`repro.nonideal.stack.LayerNoiseState`) perturb the raw bit-line
blocks before conversion.  Because every perturbation is a *keyed,
counter-based* function of the block's logical coordinates (chunk, segment,
input cycle) rather than a shared RNG stream, both engines reconstruct the
same noise sample for sample and remain bit-identical under noise.
Integer-domain perturbations (stuck-at faults, quantized variation,
retention drift) keep the fused LUT conversion path — pure per-value maps
are folded into the transfer LUT itself
(:func:`repro.adc.lut.compose_transfer_lut`), per-column maps into the
column tables above.  Continuous perturbations (read noise, analog
variation, IR drop) stay in the fused kernel too when the converters have
an integer level grid: each (trial, cycle) block is drawn into a reused
buffer with the reference loop's keys and shape, clamped, converted by the
ADC's own ``convert_levels`` and merged as exact integer levels.  Only
converters without a level grid and ideal conversion under such noise take
the element-wise fallback, which replays the reference loop's float merge
order.

Only ideal, noise-free runs can be observed.  The observer sees count
vectors, not blocks: entry ``v`` counts the conversions whose ideal
bit-line value is ``v``.  The reference engine hands it one vector per
(cycle, segment) block, the fast engine one per call; their sums are equal.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.adc.lut import (
    GATHER_TILE,
    TrialLutGather,
    compose_transfer_lut,
    fold_pair_counts,
    signed_dtype_for,
)
from repro.crossbar.slicing import (
    num_slices,
    slice_inputs_temporal,
    slice_weights_differential,
)
from repro.nonideal.stack import TrialNoiseStates
from repro.quantization.qconfig import DEFAULT_QUANT_CONFIG, QuantizationConfig
from repro.utils.validation import check_in_range, check_integer


@dataclasses.dataclass(frozen=True)
class CrossbarTopology:
    """Physical array parameters of the accelerator (paper Section V-A)."""

    crossbar_size: int = 128
    bits_per_cell: int = 1
    dac_bits: int = 1

    def __post_init__(self) -> None:
        check_in_range(check_integer(self.crossbar_size, "crossbar_size"), "crossbar_size", low=2)
        check_in_range(check_integer(self.bits_per_cell, "bits_per_cell"), "bits_per_cell", low=1, high=4)
        check_in_range(check_integer(self.dac_bits, "dac_bits"), "dac_bits", low=1, high=8)

    @property
    def ideal_adc_resolution(self) -> int:
        """Paper Eq. 2 with the stated architecture-level simplification:
        ``RADC,ideal = log2(S) + RDA + Rcell + δ`` where ``δ = −1`` when both
        the DAC and the cell are single-bit (so an S-row array with 1-bit
        operands needs ``log2(S) + 1`` bits)."""
        delta = -1 if (self.dac_bits == 1 and self.bits_per_cell == 1) else 0
        resolution = int(np.log2(self.crossbar_size)) + self.dac_bits + self.bits_per_cell + delta
        return max(1, resolution)


DEFAULT_TOPOLOGY = CrossbarTopology()


def _check_observable(adc, noise, partial_observer) -> None:
    """Observers see ideal bit-line values, so only ideal, noise-free runs
    (the bit-line captures) take one."""
    if partial_observer is not None and (adc is not None or noise is not None):
        raise ValueError(
            "a partial_observer needs ideal conversion without noise (a bit-line capture)"
        )


def _static_noise(noise: Optional[TrialNoiseStates]) -> bool:
    """No noise, or static noise: every model ``integer_domain`` and
    ``cycle_invariant``, a fixed integer map per (segment, column)."""
    return noise is None or (noise.integer_domain and noise.cycle_invariant)


@dataclasses.dataclass
class MappingFootprint:
    """Resource accounting of one mapped layer."""

    in_features: int
    out_features: int
    num_segments: int
    num_weight_planes: int
    num_input_cycles: int
    total_columns: int
    num_crossbar_pairs: int
    conversions_per_mvm: int

    @property
    def num_crossbars(self) -> int:
        """Physical arrays used (a pair = one positive + one negative array)."""
        return 2 * self.num_crossbar_pairs


class MappedMVMLayer:
    """One MVM layer mapped onto ReRAM crossbars.

    Parameters
    ----------
    weight_codes:
        Signed integer weight matrix of shape ``(in_features, out_features)``
        (im2col-lowered for convolutions).
    quant_config:
        Bit-widths of the algorithm-level datapath (``Kw``, ``Ki``).
    topology:
        Crossbar size, cell and DAC resolutions.
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        quant_config: QuantizationConfig = DEFAULT_QUANT_CONFIG,
        topology: CrossbarTopology = DEFAULT_TOPOLOGY,
    ) -> None:
        weight_codes = np.asarray(weight_codes, dtype=np.int64)
        if weight_codes.ndim != 2:
            raise ValueError(f"weight_codes must be 2-D, got {weight_codes.shape}")
        # Ideal conversion is one float64 GEMM (:meth:`_matmul_identity`),
        # exact in any summation order only while no partial sum reaches 2^53.
        input_max = (1 << quant_config.activation_bits) - 1
        column_sum = int(np.abs(weight_codes).sum(axis=0).max(initial=0))
        if input_max * column_sum >= 1 << 53:
            raise OverflowError(
                f"(2^{quant_config.activation_bits} - 1) * {column_sum} is not below "
                "2^53: this layer's MVM is not exact in float64"
            )
        self.quant_config = quant_config
        self.topology = topology
        self.in_features, self.out_features = weight_codes.shape

        magnitude_bits = quant_config.weight_magnitude_bits
        self.num_weight_planes = num_slices(magnitude_bits, topology.bits_per_cell)
        self.num_input_cycles = num_slices(quant_config.activation_bits, topology.dac_bits)

        pos_slices, neg_slices = slice_weights_differential(
            weight_codes, magnitude_bits, topology.bits_per_cell
        )
        # (2, planes, in, out) -> (in, 2, planes, out) -> (in, 2*planes*out)
        planes = np.stack([pos_slices, neg_slices], axis=0)
        self._plane_matrix = np.ascontiguousarray(
            planes.transpose(2, 0, 1, 3).reshape(
                self.in_features, 2 * self.num_weight_planes * self.out_features
            ),
            dtype=np.float32,
        )
        # Per-(sign, plane) merge factors.
        plane_shifts = np.array(
            [1 << (p * topology.bits_per_cell) for p in range(self.num_weight_planes)],
            dtype=np.float64,
        )
        self._merge_factors = np.stack([plane_shifts, -plane_shifts], axis=0)  # (2, planes)
        # Power-of-two weights of the fast engine's integer merge, and
        # their sums (the growth of the merge's exact bounds).
        self._cycle_factors = np.array(
            [1 << (c * topology.dac_bits) for c in range(self.num_input_cycles)],
            dtype=np.int64,
        )
        self._plane_factors = plane_shifts.astype(np.int64)
        self._factor_sums = (int(self._cycle_factors.sum()), int(self._plane_factors.sum()))

        size = topology.crossbar_size
        self._segments: List[slice] = [
            slice(start, min(start + size, self.in_features))
            for start in range(0, self.in_features, size)
        ]
        # Exact upper bound on any bit-line value of this layer: the largest
        # per-segment column sum of the plane matrix times the largest DAC
        # code.  Sizes the ADC transfer LUTs of the fast engine.
        dac_max = (1 << topology.dac_bits) - 1
        self._max_bitline = int(
            dac_max
            * max(
                (float(self._plane_matrix[seg].sum(axis=0).max()) for seg in self._segments),
                default=0.0,
            )
        )

    # ------------------------------------------------------------------ #
    # resource accounting
    # ------------------------------------------------------------------ #
    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def max_bitline_value(self) -> int:
        """Largest bit-line value this layer can produce (LUT bound)."""
        return self._max_bitline

    @property
    def segment_sizes(self) -> List[int]:
        return [seg.stop - seg.start for seg in self._segments]

    def footprint(self) -> MappingFootprint:
        """Crossbar usage and the number of A/D conversions per MVM (Eq. 3)."""
        size = self.topology.crossbar_size
        columns_per_sign = self.num_weight_planes * self.out_features
        crossbar_pairs = self.num_segments * (-(-columns_per_sign // size))
        conversions = (
            self.num_input_cycles
            * self.num_segments
            * 2
            * self.num_weight_planes
            * self.out_features
        )
        return MappingFootprint(
            in_features=self.in_features,
            out_features=self.out_features,
            num_segments=self.num_segments,
            num_weight_planes=self.num_weight_planes,
            num_input_cycles=self.num_input_cycles,
            total_columns=2 * columns_per_sign,
            num_crossbar_pairs=crossbar_pairs,
            conversions_per_mvm=conversions,
        )

    # ------------------------------------------------------------------ #
    # datapath
    # ------------------------------------------------------------------ #
    def bitline_partials(self, input_slice: np.ndarray, segment_index: int) -> np.ndarray:
        """Bit-line values of one (input cycle, row segment) combination.

        Parameters
        ----------
        input_slice:
            ``(batch, in_features)`` DAC codes of the current input cycle.
        segment_index:
            Which word-line segment (group of ≤ ``crossbar_size`` rows) drives
            the arrays.

        Returns
        -------
        ``(batch, 2 · planes · out_features)`` float32 array of exact integer
        bit-line values, ordered ``[sign, plane, out]`` with ``out`` fastest.
        """
        segment = self._segments[segment_index]
        x = np.asarray(input_slice, dtype=np.float32)[:, segment]
        return x @ self._plane_matrix[segment]

    def merge_partials(self, partials: np.ndarray) -> np.ndarray:
        """Shift-and-add merge of one cycle/segment block -> ``(batch, out)``."""
        batch = partials.shape[0]
        block = partials.reshape(batch, 2, self.num_weight_planes, self.out_features)
        return np.einsum(
            "bspo,sp->bo",
            np.asarray(block, dtype=np.float64),
            self._merge_factors,
            optimize=True,
        )

    def matmul(
        self,
        input_codes: np.ndarray,
        adc: Optional[object] = None,
        partial_observer: Optional[Callable[[np.ndarray], None]] = None,
        engine: str = "reference",
        noise: Optional[object] = None,
    ) -> Tuple[np.ndarray, int]:
        """Execute the full bit-sliced MVM for a batch of input vectors.

        Parameters
        ----------
        input_codes:
            ``(batch, in_features)`` unsigned activation codes (``Ki`` bits).
        adc:
            Optional ADC model with a vectorised
            ``convert(values) -> (quantized_values, total_ops)`` method; when
            omitted the conversion is ideal (lossless) and the returned op
            count assumes the baseline ``RADC`` operations per conversion.
        partial_observer:
            Optional callable receiving int64 count vectors of the ideal
            bit-line values (entry ``v`` counts the conversions whose value
            is ``v``): the value distributions of paper Fig. 3a.  Only an
            ideal, noise-free run can be observed; the reference engine
            counts each (cycle, segment) block, the fast engine each call.
        engine:
            ``"reference"`` (per-cycle/segment loop, the oracle) or ``"fast"``
            (the fused kernel of :meth:`matmul_trials` at one trial).  Both
            produce bit-identical results and identical operation counts;
            see the module docstring.
        noise:
            Optional :class:`repro.nonideal.stack.LayerNoiseState` bound to
            this layer.  Perturbations are keyed on (chunk, segment, cycle),
            so both engines apply identical noise and stay bit-identical.

        Returns
        -------
        results:
            ``(batch, out_features)`` merged signed integer results (float64).
        total_ops:
            Total number of A/D operations performed for the batch.
        """
        input_codes = np.asarray(input_codes)
        if input_codes.ndim != 2 or input_codes.shape[1] != self.in_features:
            raise ValueError(
                f"input_codes must be (batch, {self.in_features}), got {input_codes.shape}"
            )
        _check_observable(adc, noise, partial_observer)
        if engine == "reference":
            cycles = slice_inputs_temporal(
                input_codes, self.quant_config.activation_bits, self.topology.dac_bits
            )
            return self._matmul_reference(cycles, adc, partial_observer, noise)
        if engine == "fast":
            outputs, total_ops = self._matmul_fast_trials(
                input_codes[None],
                None if adc is None else [adc],
                None if noise is None else TrialNoiseStates([noise]),
                partial_observer,
            )
            return outputs[0], total_ops[0]
        raise ValueError(f"unknown engine {engine!r} (expected 'fast' or 'reference')")

    def _check_codes(self, input_codes: np.ndarray) -> np.ndarray:
        """The activation codes as integers, range-checked with the errors of
        :func:`repro.crossbar.slicing.slice_inputs_temporal`.

        Integer codes pass through uncopied (the backend hands over the
        narrowest unsigned dtype); anything else is cast to int64.
        """
        codes = input_codes
        if codes.dtype.kind not in "ui":
            codes = codes.astype(np.int64)
        if codes.size:
            activation_bits = self.quant_config.activation_bits
            if codes.dtype.kind == "i" and codes.min() < 0:
                raise ValueError("bit_slice expects non-negative integers")
            top = codes.max()
            if top >= (1 << activation_bits):
                raise ValueError(f"values exceed {activation_bits} bits (max={top})")
        return codes

    def _stack_cycles(self, input_codes: np.ndarray) -> np.ndarray:
        """Temporal slicing fused with cycle stacking for the fast engine.

        Writes the ``num_cycles`` DAC slices directly into one reused
        ``(cycles · batch, in_features)`` float32 operand (cycle-major), with
        the same range validation and slice values as
        :func:`repro.crossbar.slicing.slice_inputs_temporal`.  The codes are
        sliced in the smallest unsigned dtype holding ``activation_bits``
        (uint8 by default, the dtype the backend quantizes into): one shift
        of every cycle into a reused buffer, then one mask of the low DAC
        bits into the operand.
        """
        activation_bits = self.quant_config.activation_bits
        dac_bits = self.topology.dac_bits
        num_cycles = self.num_input_cycles
        batch = input_codes.shape[0]
        codes = self._check_codes(input_codes)
        narrow_dtype = np.min_scalar_type((1 << activation_bits) - 1)
        narrow = codes
        if codes.dtype != narrow_dtype:
            narrow = self._fast_buffer("codes", codes.shape, narrow_dtype)
            np.copyto(narrow, codes, casting="unsafe")  # exact: range checked above
        shifts = np.arange(0, num_cycles * dac_bits, dac_bits, dtype=narrow_dtype)
        slices = self._fast_buffer("slices", (num_cycles,) + codes.shape, narrow_dtype)
        np.right_shift(narrow, shifts[:, None, None], out=slices)
        stacked = self._fast_buffer(
            "stacked", (num_cycles * batch, self.in_features), np.float32
        )
        np.bitwise_and(
            slices, (1 << dac_bits) - 1, casting="unsafe",
            out=stacked.reshape(num_cycles, batch, self.in_features),
        )
        return stacked

    def _matmul_reference(
        self,
        cycles: np.ndarray,
        adc: Optional[object],
        partial_observer: Optional[Callable[[np.ndarray], None]],
        noise: Optional[object] = None,
    ) -> Tuple[np.ndarray, int]:
        """The per-``(cycle, segment)`` block loop (oracle path).

        LUT-free by construction: conversions go through the ADC's
        transparent per-element float formulas (``convert_levels`` when the
        converter has an integer level grid, ``convert`` otherwise), so this
        path independently defines the behaviour the fused engine must
        reproduce.  For level-grid converters the loop merges integer levels
        and applies the step scale once per output — the integer-domain
        semantics of the datapath — which can differ from scaling each
        reconstructed value individually by ~1 ulp per sample.  Noise, when
        given, perturbs each raw block before conversion, via the keyed
        sampling that both engines share.  An observer receives the
        ``np.bincount`` of every block.
        """
        batch = cycles.shape[1]
        accumulator = np.zeros((batch, self.out_features), dtype=np.float64)
        total_ops = 0
        baseline_ops = self.topology.ideal_adc_resolution
        convert_levels = getattr(adc, "convert_levels", None)
        scale = float(adc.level_scale) if convert_levels is not None else 1.0

        for cycle_index in range(cycles.shape[0]):
            cycle_factor = float(1 << (cycle_index * self.topology.dac_bits))
            cycle_slice = cycles[cycle_index]
            for segment_index in range(self.num_segments):
                partials = self.bitline_partials(cycle_slice, segment_index)
                if partial_observer is not None:
                    partial_observer(np.bincount(partials.astype(np.int64).ravel()))
                if noise is not None:
                    partials = noise.perturb_block(partials, segment_index, cycle_index)
                if adc is None:
                    total_ops += partials.size * baseline_ops
                elif convert_levels is not None:
                    partials, ops = convert_levels(partials)
                    total_ops += int(ops)
                else:
                    partials, ops = adc.convert(partials)
                    total_ops += int(ops)
                accumulator += cycle_factor * self.merge_partials(partials)
        if scale != 1.0:
            accumulator *= scale
        return accumulator, total_ops

    #: Elements per conversion tile of the fast engine; sized so the tile's
    #: integer codes and gathered levels stay cache-resident.
    _FAST_TILE = 1 << 18

    # ------------------------------------------------------------------ #
    # the fused kernel: a leading trials axis, a solo run is one trial
    # ------------------------------------------------------------------ #
    def matmul_trials(
        self,
        input_codes: np.ndarray,
        adcs: Optional[List[object]],
        noise: Optional[TrialNoiseStates],
        engine: str = "fast",
        partial_observer: Optional[Callable[[np.ndarray], None]] = None,
    ) -> Tuple[np.ndarray, List[int]]:
        """Execute one MVM batch for several Monte Carlo trials at once.

        Parameters
        ----------
        input_codes:
            ``(trials, batch, in_features)`` unsigned activation codes —
            ``input_codes[t]`` is what a solo run of trial ``t`` would pass
            to :meth:`matmul` for this chunk.
        adcs:
            Per-trial ADC instances (or ``None`` for ideal conversion); each
            trial needs its own because the perturbed LUT bound — and the
            recorded statistics — are trial-specific.
        noise:
            :class:`repro.nonideal.stack.TrialNoiseStates` bound to this
            layer with one state per trial, chunk counters already advanced
            in lockstep; ``None`` for a noise-free run.
        engine:
            ``"fast"`` runs the fused kernel; ``"reference"`` loops the solo
            oracle per trial (transparent, for verification).
        partial_observer:
            Optional bit-line observer as in :meth:`matmul`; only a single
            ideal, noise-free trial can be observed.

        Returns
        -------
        results:
            ``(trials, batch, out_features)`` float64 — ``results[t]`` is
            **bit-identical** to the solo ``matmul`` of trial ``t``.
        total_ops:
            Per-trial A/D operation counts (identical to the solo runs).
        """
        input_codes = np.asarray(input_codes)
        if input_codes.ndim != 3 or input_codes.shape[2] != self.in_features:
            raise ValueError(
                f"input_codes must be (trials, batch, {self.in_features}), "
                f"got {input_codes.shape}"
            )
        trials = input_codes.shape[0]
        if noise is not None and noise.trials != trials:
            raise ValueError(
                f"expected one noise state per trial ({trials}), got {noise.trials}"
            )
        if adcs is not None and len(adcs) != trials:
            raise ValueError(
                f"expected {trials} per-trial ADCs, got {len(adcs)}"
            )
        if partial_observer is not None and trials != 1:
            raise ValueError("a partial_observer can only observe a single trial")
        _check_observable(adcs, noise, partial_observer)
        if engine == "reference":
            outputs = np.empty(
                (trials, input_codes.shape[1], self.out_features), dtype=np.float64
            )
            total_ops: List[int] = []
            for t in range(trials):
                outputs[t], ops = self.matmul(
                    input_codes[t],
                    adc=None if adcs is None else adcs[t],
                    partial_observer=partial_observer,
                    engine="reference",
                    noise=None if noise is None else noise.states[t],
                )
                total_ops.append(int(ops))
            return outputs, total_ops
        if engine != "fast":
            raise ValueError(
                f"unknown engine {engine!r} (expected 'fast' or 'reference')"
            )
        return self._matmul_fast_trials(input_codes, adcs, noise, partial_observer)

    #: Largest joint histogram (``B²`` bins, ``B = max_bitline_value + 1``)
    #: the pair layout may use: 2 MiB of int64 counts, one core's L2 cache.
    #: Every gather tile allocates, clears and adds one histogram of that
    #: length and indexes a ``B²``-entry difference table, a per-call cost
    #: that small chunks cannot amortise.  Measured with one BLAS thread on
    #: a 2-vCPU Xeon (2 MiB L2 per core, numpy 2.4), whole-kernel time of
    #: the pair over the separate layout at 64-row chunks: 0.6–0.9× up to
    #: ``B = 385``, 0.99× at ``B = 513`` (``B² ≈ 2^18``), 2.5× at
    #: ``B = 725``; at 2048-row chunks the pair layout won throughout.  The
    #: default 128-row, 1-bit topology has ``B ≤ 129`` (16 641 bins).  The
    #: bound also keeps every pair code below ``2^24``, exact in float32.
    _PAIR_MAX_BINS = 1 << 18

    def _use_pair_layout(self, luts, perturbed: bool) -> bool:
        """Whether a LUT conversion runs on the pair layout.

        The pair GEMM never materialises ``v⁺`` and ``v⁻`` apart, so it
        needs a conversion that sees each bit-line value unperturbed (no
        noise, or a pure value map folded into the LUTs); ``B²`` must fit
        :attr:`_PAIR_MAX_BINS`, and every LUT must cover ``0 … B − 1``.
        """
        base = self._max_bitline + 1
        return (
            luts is not None
            and not perturbed
            and base * base <= self._PAIR_MAX_BINS
            and all(lut.levels.size >= base for lut in luts)
        )

    def _pair_matrix(self) -> np.ndarray:
        """The half-width pair matrix ``B·W⁺ + W⁻``.

        ``(in_features, planes · out_features)`` float32: one matmul output
        is the pair code ``B·v⁺ + v⁻`` of one positive/negative column pair,
        an integer below ``B² ≤ 2^24`` and therefore exact in float32.
        Built on first use and kept for the layer's lifetime, which is one
        backend run.
        """
        matrix = self.__dict__.get("_pair_matrix_cache")
        if matrix is None:
            width = self.num_weight_planes * self.out_features
            base = np.float32(self._max_bitline + 1)
            matrix = self._pair_matrix_cache = (
                base * self._plane_matrix[:, :width] + self._plane_matrix[:, width:]
            )
        return matrix

    def _identity_matrix(self) -> np.ndarray:
        """The signed weight codes ``W = Σ_p 2^(p·Rcell) (W⁺_p − W⁻_p)``.

        ``(in_features, out_features)`` float64, rebuilt from the plane
        matrix with the merge's plane factors, so it is exactly the weight
        the crossbars store.  Built on first use and kept for the layer's
        lifetime.
        """
        matrix = self.__dict__.get("_identity_matrix_cache")
        if matrix is None:
            planes = self._plane_matrix.reshape(
                self.in_features, 2, self.num_weight_planes, self.out_features
            )
            matrix = self._identity_matrix_cache = np.einsum(
                "ispo,sp->io", planes.astype(np.float64), self._merge_factors
            )
        return matrix

    def _baseline_ops(self, rows: int) -> int:
        """A/D operations of ``rows`` MVMs at the full-resolution baseline."""
        conversions = (
            self.num_segments * self.num_input_cycles * rows
            * 2 * self.num_weight_planes * self.out_features
        )
        return conversions * self.topology.ideal_adc_resolution

    def _matmul_identity(
        self,
        input_codes: np.ndarray,
        shared_input: bool,
        partial_observer: Optional[Callable[[np.ndarray], None]],
    ) -> Tuple[np.ndarray, List[int]]:
        """Ideal conversion without noise as one exact integer GEMM.

        Lossless conversion passes every bit-line value through, so the
        shift-and-add merge ``Σ_c Σ_p 2^(c·RDA + p·Rcell) (v⁺ − v⁻)`` is
        the integer product ``codes @ W`` (:meth:`_identity_matrix`).  One
        float64 GEMM computes it exactly on any BLAS kernel: the
        constructor checked that no partial sum reaches ``2^53``.  Adding
        it to zeros keeps a signed zero out of the outputs, as the merge
        does.  The codes keep :meth:`_stack_cycles`' range errors, and the
        operation count is the full-resolution baseline.  An observer
        receives :meth:`_bitline_counts` of the call.
        """
        trials, batch = input_codes.shape[0], input_codes.shape[1]
        rows = (
            input_codes[0]
            if shared_input
            else input_codes.reshape(trials * batch, self.in_features)
        )
        codes = self._check_codes(rows)
        if partial_observer is not None:
            partial_observer(self._bitline_counts(codes))
        outputs = np.zeros((trials, batch, self.out_features), dtype=np.float64)
        outputs += (codes.astype(np.float64) @ self._identity_matrix()).reshape(
            -1, batch, self.out_features
        )
        return outputs, [self._baseline_ops(batch)] * trials

    def _bitline_counts(self, input_codes: np.ndarray) -> np.ndarray:
        """Counts of the ideal bit-line values of one ``(rows, in_features)``
        block of codes: entry ``v`` counts the conversions whose value is
        ``v``.

        The half-width pair GEMM gives the pair code ``B·v⁺ + v⁻`` of every
        positive/negative column pair; one joint ``bincount`` over ``B²``
        bins, in cache-sized tiles, folds into the per-value counts
        (:func:`~repro.adc.lut.fold_pair_counts`, as
        :meth:`~repro.adc.lut.TrialLutGather.record_trials` folds).  Layers
        whose ``B²`` exceeds :attr:`_PAIR_MAX_BINS` bincount the plane
        GEMM's values instead.
        """
        stacked = self._stack_cycles(input_codes)
        base = self._max_bitline + 1
        pair = base * base <= self._PAIR_MAX_BINS
        matrix = self._pair_matrix() if pair else self._plane_matrix
        bins = base * base if pair else base
        partials = self._fast_buffer(
            "partials", (stacked.shape[0], matrix.shape[1]), np.float32
        )
        flat = partials.reshape(-1)
        counts = np.zeros(bins, dtype=np.int64)
        for segment in self._segments:
            np.matmul(stacked[:, segment], matrix[segment], out=partials)
            for start in range(0, flat.size, GATHER_TILE):
                tile = flat[start : start + GATHER_TILE].astype(np.int64)
                counts += np.bincount(tile, minlength=bins)
        return fold_pair_counts(counts, base) if pair else counts

    #: Largest per-segment column table (``trials × columns × B`` entries,
    #: ``B = max_bitline_value + 1``) the column layout may use: 2 MiB of
    #: int64 counts when the segment's ``c·B + v`` histograms are folded,
    #: one core's L2 cache, like :attr:`_PAIR_MAX_BINS`.  Every gather tile
    #: allocates, clears and adds a ``columns × B`` histogram, and each
    #: segment folds ``trials × columns × B`` bins.  Measured with one BLAS
    #: thread on a 2-vCPU Xeon (2 MiB L2 per core, numpy 2.4), quantized
    #: variation σ=0.08 plus stuck-at-ON 1e-3 on 128-row segments (``B =
    #: 129``), whole-kernel time of the column over the per-element path
    #: at 64–512 rows: one trial 0.36–0.79× with the tables built
    #: (0.48–1.01× building them in the call) up to ``2^18`` bins, 0.82× at
    #: ``2^18.5`` and 1.5× at ``2^18.8``; eight trials sharing their input
    #: 0.19–0.26× at ``2^17.8``–``2^19.8``.  At 8 rows one call does not
    #: repay the tables (1.25–1.55× built, 1.6–2.7× building them at one
    #: trial); they are built once per run and pay off once it converts
    #: more than ~1.3·B values per column.  The perfbench DNNs need at most
    #: 20 160 bins per trial.
    _COLUMN_MAX_BINS = 1 << 18

    def _column_probes(self, noise: TrialNoiseStates):
        """Each segment's perturbed probe block, ``(trials, B, columns)``.

        Row ``v`` of the probe holds the ideal value ``v`` in every column,
        so entry ``[t, v, c]`` is trial ``t``'s perturbed value ``g(c, v)``.
        Exact for ``cycle_invariant`` stacks: they perturb element-wise per
        (row, column), whatever the row count, cycle or chunk.  A generator,
        so one segment's float64 probe is alive at a time.
        """
        base = self._max_bitline + 1
        cols = 2 * self.num_weight_planes * self.out_features
        probe = np.broadcast_to(
            np.arange(base, dtype=np.float64)[:, None], (noise.trials, base, cols)
        )
        return (
            noise.perturb_trials(probe, segment_index, 0)
            for segment_index in range(self.num_segments)
        )

    def _conversion_setup(
        self,
        adcs: Optional[List[object]],
        noise: Optional[TrialNoiseStates],
    ) -> tuple:
        """Per-trial conversion setup: ``(luts, value_mapped, gather)``.

        ``luts`` is ``None`` when a converter has no integer level grid or
        the noise is not static integer-domain noise (every model
        ``integer_domain`` and ``cycle_invariant``).  ``gather`` is the
        :class:`~repro.adc.lut.TrialLutGather` of the chosen layout: pair
        (:meth:`_use_pair_layout`), column (a static stack that is not a
        pure value map, within :attr:`_COLUMN_MAX_BINS`) or separate.
        The setup — value maps, per-trial transfer LUTs, the combined
        gather, difference or column tables — is a pure function of the
        per-trial noise states and ADC instances, both stable across the
        chunks of one run.  It is cached on exactly those (never on a
        :class:`TrialNoiseStates` wrapper, which a solo :meth:`matmul`
        builds afresh per call), making it a per-run cost instead of a
        per-chunk one; in the
        overhead-bound small-row regime this setup would otherwise rival
        the kernel work itself.
        """
        if adcs is None:
            return None, False, None
        states = () if noise is None else noise.states
        key = (tuple(map(id, states)), tuple(map(id, adcs)))
        cache = self.__dict__.setdefault("_conversion_cache", {})
        entry = cache.get(key)
        if entry is not None:
            return entry[1]
        luts = None
        value_mapped = False
        lut_capable = all(getattr(adc, "transfer_lut", None) is not None for adc in adcs)
        if lut_capable and _static_noise(noise):
            vmaps = None if noise is None else noise.pure_value_maps()
            if vmaps is not None:
                luts = [
                    adc.transfer_lut(int(vmap.max(initial=0)))
                    for adc, vmap in zip(adcs, vmaps)
                ]
                if all(lut.levels is not None for lut in luts):
                    luts = [compose_transfer_lut(lut, vmap) for lut, vmap in zip(luts, vmaps)]
                    value_mapped = True
            else:
                bounds = [self._max_bitline] * len(adcs) if noise is None else noise.lut_bounds
                luts = [adc.transfer_lut(bound) for adc, bound in zip(adcs, bounds)]
            if any(lut.levels is None for lut in luts):
                luts = None
        gather = None
        if luts is not None:
            perturbed = noise is not None and not value_mapped
            bins = len(luts) * self._plane_matrix.shape[1] * (self._max_bitline + 1)
            if perturbed and bins <= self._COLUMN_MAX_BINS:
                gather = TrialLutGather(luts, column_values=self._column_probes(noise))
            else:
                pair = self._use_pair_layout(luts, perturbed)
                gather = TrialLutGather(luts, pair_base=self._max_bitline + 1 if pair else None)
        setup = (luts, value_mapped, gather)
        if len(cache) >= 64:
            cache.clear()
        # The entry holds strong references to the keyed objects, so their
        # ids cannot be recycled while the entry lives.
        cache[key] = ((states, tuple(adcs)), setup)
        return setup

    def _kernel_path(
        self,
        adcs: Optional[List[object]],
        noise: Optional[TrialNoiseStates],
    ) -> str:
        """The datapath :meth:`_matmul_fast_trials` takes for a conversion.

        * ``"identity"`` — ideal conversion without noise, observed or not:
          one exact integer GEMM (:meth:`_matmul_identity`);
        * ``"pair"`` / ``"separate"`` — LUT conversion of unperturbed bit
          lines (no noise, or a pure value map folded into the LUTs)
          through the pair or the plane matrix;
        * ``"column"`` — a static stack folded into per-column tables;
        * ``"perturbed"`` — a static stack applied per element, when the
          column tables exceed :attr:`_COLUMN_MAX_BINS` or the conversion
          is ideal;
        * ``"continuous"`` — any other noise ahead of converters with an
          integer level grid (``convert_levels``, ``level_scale`` and
          ``max_level``), drawn, clamped and converted in the kernel;
        * ``"fallback"`` — converters without a level grid, and ideal
          conversion under non-static noise
          (:meth:`_matmul_fast_trials_fallback`).
        """
        luts, value_mapped, gather = self._conversion_setup(adcs, noise)
        if gather is not None:
            if gather.column_shape is not None:
                return "column"
            if gather.pair_base is not None:
                return "pair"
            return "separate" if noise is None or value_mapped else "perturbed"
        if adcs is None:
            if noise is None:
                return "identity"
            return "perturbed" if _static_noise(noise) else "fallback"
        level_grid = all(hasattr(adc, "convert_levels") for adc in adcs)
        return "continuous" if level_grid else "fallback"

    #: Elements per ``convert_levels`` tile of the continuous path; sized so
    #: the converter's float64 temporaries stay in one core's L2 cache.
    _CONVERT_TILE = 1 << 14

    def _continuous_differences(
        self,
        raw: np.ndarray,
        adcs: List[object],
        noise: Optional[TrialNoiseStates],
        segment_index: int,
        diff: np.ndarray,
        total_ops: List[int],
    ) -> None:
        """Draw, clamp and convert one segment's blocks in the kernel.

        ``raw`` is the segment's ``(cycles, eff, batch, columns)`` bit-line
        block.  Each (cycle, trial) block runs its trial's whole stack
        through one reused float64 buffer
        (:meth:`~repro.nonideal.stack.LayerNoiseState.perturb_block` with
        ``out``): the keys and the ``(batch, columns)`` shape of every
        draw are the reference loop's, so the noisy values are its values
        bit for bit.  The converter's own ``convert_levels`` then runs on
        cache-sized row tiles, and ``L⁺ − L⁻`` goes into ``diff``
        (``(trials, cycles, batch, width)``, exact integers) for the
        integer merge.  The per-tile statistics sum to the reference's.
        """
        num_cycles, eff, batch, cols = raw.shape
        width = cols // 2
        noisy = self._fast_buffer("noisy", (batch, cols), np.float64)
        tile_rows = max(1, self._CONVERT_TILE // max(1, cols))
        for cycle_index in range(num_cycles):
            for t, adc in enumerate(adcs):
                block = raw[cycle_index, 0 if eff == 1 else t]
                if noise is None:
                    np.copyto(noisy, block)
                else:
                    noise.states[t].perturb_block(block, segment_index, cycle_index, out=noisy)
                for start in range(0, batch, tile_rows):
                    stop = min(start + tile_rows, batch)
                    levels, ops = adc.convert_levels(noisy[start:stop])
                    total_ops[t] += int(ops)
                    np.subtract(
                        levels[:, :width], levels[:, width:],
                        out=diff[t, cycle_index, start:stop], casting="unsafe",
                    )

    def _matmul_fast_trials(
        self,
        input_codes: np.ndarray,
        adcs: Optional[List[object]],
        noise: Optional[TrialNoiseStates],
        partial_observer: Optional[Callable[[np.ndarray], None]] = None,
    ) -> Tuple[np.ndarray, List[int]]:
        """The fused kernel: one matmul per segment, integer-domain conversion.

        All input cycles are stacked into a single ``(cycles · rows,
        in_features)`` operand, so the matmul count drops from ``cycles ×
        segments`` to ``segments``.  :meth:`_kernel_path` picks how the
        bit lines are converted:

        * **identity** — ideal conversion without noise (the ideal-ADC
          baselines and every bit-line capture) skips the bit lines: one
          exact integer GEMM (:meth:`_matmul_identity`).
        * **pair** — when :meth:`_use_pair_layout` holds (every noise-free
          or value-mapped LUT run with ``B²`` in bound, which covers every
          figure and Algorithm 1 evaluation), each segment
          multiplies by the half-width pair matrix ``B·W⁺ + W⁻``, whose
          outputs are the exact pair codes ``B·v⁺ + v⁻``.  One ``astype``,
          one ``bincount`` into ``B²`` joint bins and one ``take`` from each
          trial's difference table ``L[i] − L[j]`` replace the two
          conversions of a column pair, and the folded joint histogram
          gives exactly the per-value statistics.
        * **separate** — the plane matrix, one LUT gather per column and
          one ``L⁺ − L⁻`` subtraction, for whatever the pair layout does
          not cover.
        * **column** — static integer-domain noise (quantized variation,
          stuck-at faults) folded into per-(trial, segment) column tables
          ``L[g(c, v)]``: one gather of the ideal ``c·B + v`` applies the
          noise and converts, and its histogram folds back through ``g``
          into the exact per-value statistics.
        * **perturbed** — the same static noise applied per element by
          :meth:`~repro.nonideal.stack.TrialNoiseStates.perturb_trials`
          (one batched pass covers a row block's whole cycle axis), then
          the separate layout; for tables over :attr:`_COLUMN_MAX_BINS`
          and for ideal conversion.
        * **continuous** — read noise, analog variation, IR drop and mixed
          stacks ahead of TRQ or uniform converters: each (trial, cycle)
          block is drawn, clamped and converted in the kernel
          (:meth:`_continuous_differences`).

        Every path merges the signed level differences by exact integer
        Horner arithmetic (:meth:`_merge_differences`): every factor is a
        power of two and the accumulators are sized from the layer's exact
        bounds (the continuous path's from the converters' ``max_level``),
        so the result is bit-identical to the reference loop regardless of
        order.  Converters without a level grid and ideal conversion under
        non-static noise take :meth:`_matmul_fast_trials_fallback`.

        The leading trial axis rides through the same integer-exact
        datapath, which is why every trial is bit-identical to a solo run:

        * the stacked-cycle matmul computes exact small integers, so its
          results do not depend on operand blocking (a ``(trials · batch)``
          row block equals the per-trial rows); when every trial receives
          the same input rows (always for one trial, and for the first MVM
          layer) the matmul runs once and is broadcast — the column
          layout then takes one histogram for all trials;
        * noise is keyed per trial: column tables and per-element passes
          slice per trial exactly, and continuous draws are each trial's
          own solo draws;
        * the trials' (differently sized) tables gather through one
          combined :class:`~repro.adc.lut.TrialLutGather` table and merge
          with the same order-free exact integer arithmetic.

        Only the identity route takes a ``partial_observer``.
        """
        trials, batch = input_codes.shape[0], input_codes.shape[1]
        num_cycles = self.num_input_cycles
        if trials == 1:
            shared_input = True
        elif not np.array_equal(input_codes[0], input_codes[1]):
            # Diverged trials almost always differ in the first pair; one
            # short-circuit compare settles the common case.
            shared_input = False
        else:
            shared_input = trials == 2 or bool(
                (input_codes[2:] == input_codes[:1]).all()
            )
        path = self._kernel_path(adcs, noise)
        if path == "identity":
            return self._matmul_identity(input_codes, shared_input, partial_observer)
        if path == "fallback":
            return self._matmul_fast_trials_fallback(input_codes, adcs, noise, shared_input)
        luts, _, gather = self._conversion_setup(adcs, noise)

        eff = 1 if shared_input else trials
        stacked = self._stack_cycles(
            input_codes[0]
            if shared_input
            else input_codes.reshape(trials * batch, self.in_features)
        )
        pair = path == "pair"
        continuous = path == "continuous"
        perturbed = path == "perturbed"
        matrix = self._pair_matrix() if pair else self._plane_matrix
        cols = matrix.shape[1]
        width = self.num_weight_planes * self.out_features
        if continuous:
            level_bound = max(int(adc.max_level) for adc in adcs)
        elif luts is not None:
            level_bound = gather.level_bound
        else:
            # Ideal conversion under static noise.
            level_bound = max(noise.lut_bounds)
        diff_dtype, sum_dtype, cycle_dtype, plane_dtype = self._merge_dtypes(level_bound)
        # Cache blocking: the per-trial loop incidentally works on small,
        # cache-resident blocks; a naive trial batch would drag every
        # element-wise pass to DRAM-sized arrays and *lose* to the loop.
        # The per-element path tiles the batch (MVM-row) axis so one
        # ``(trials, cycles, rows, cols)`` block of the perturb → gather →
        # merge chain stays near ``_FAST_TILE`` elements.  The other paths
        # convert and merge a segment's contiguous buffers in one pass each,
        # tiling inside the gather or conversion instead: one unperturbed
        # trial, the column layout (one histogram fold per segment) and the
        # continuous path (its per-read draws are shaped by the whole chunk).
        if perturbed or (path in ("pair", "separate") and trials > 1):
            row_blk = max(1, self._FAST_TILE // max(1, trials * num_cycles * cols))
        else:
            row_blk = max(1, batch)
        outputs = np.zeros((trials, batch, self.out_features), dtype=np.float64)
        partials_buf = self._fast_buffer(
            "partials", (num_cycles * eff * batch, cols), np.float32
        )
        if luts is not None:
            counts = gather.new_counts()
            levels_buf = self._fast_buffer(
                "levels", (trials * num_cycles * min(row_blk, batch), cols), gather.levels.dtype
            )
        total_ops = [0] * trials
        # Several segments first sum their differences (exact integers),
        # so the shift-and-add merge runs once per row block, not once per
        # segment and row block.
        multi_segment = self.num_segments > 1
        if multi_segment:
            diff_sum = self._fast_buffer(
                "diff_sum", (trials, num_cycles, batch, width), sum_dtype
            )

        for segment_index, segment in enumerate(self._segments):
            np.matmul(stacked[:, segment], matrix[segment], out=partials_buf)
            raw = partials_buf.reshape(num_cycles, eff, batch, cols)
            for start in range(0, batch, row_blk):
                stop = min(start + row_blk, batch)
                rows = stop - start
                # The segment's ideal values with the trial axis leading
                # (one shared entry when every trial has the same input).
                source = raw[:, :, start:stop].transpose(1, 0, 2, 3)
                if continuous:
                    diff = self._fast_buffer(
                        "diff", (trials, num_cycles, rows, width), diff_dtype
                    )
                    self._continuous_differences(
                        raw, adcs, noise, segment_index, diff, total_ops
                    )
                    source = diff
                elif perturbed:
                    # Static stacks perturb every input cycle identically,
                    # so one batched pass covers the block's whole cycle
                    # axis — the models are row-count-agnostic, making each
                    # row's result equal the per-cycle chain bit for bit.
                    if eff == 1:
                        values = np.broadcast_to(
                            source.reshape(num_cycles * rows, cols),
                            (trials, num_cycles * rows, cols),
                        )
                    else:
                        values = source.reshape(trials, num_cycles * rows, cols)
                    source = noise.perturb_trials(
                        values, segment_index, 0
                    ).reshape(trials, num_cycles, rows, cols)
                elif eff == 1 and path != "column":
                    source = np.broadcast_to(source, (trials, num_cycles, rows, cols))
                if luts is not None:
                    levels = levels_buf[: trials * num_cycles * rows].reshape(
                        trials, num_cycles, rows, cols
                    )
                    gather.gather(source, counts, levels, segment=segment_index)
                    source = levels
                if not pair and not continuous:
                    # One L⁺ − L⁻ subtraction per column pair (exact: both
                    # operands are integers in bound).
                    halves = source.reshape(trials, num_cycles, rows, 2, width)
                    diff = self._fast_buffer(
                        "diff", (trials, num_cycles, rows, width), diff_dtype
                    )
                    np.subtract(
                        halves[:, :, :, 0], halves[:, :, :, 1],
                        out=diff, dtype=diff.dtype, casting="unsafe",
                    )
                    source = diff
                if not multi_segment:
                    self._merge_differences(
                        source, outputs[:, start:stop], cycle_dtype, plane_dtype
                    )
                elif segment_index == 0:
                    np.copyto(diff_sum[:, :, start:stop], source)
                else:
                    diff_sum[:, :, start:stop] += source
        if multi_segment:
            for start in range(0, batch, row_blk):
                stop = min(start + row_blk, batch)
                self._merge_differences(
                    diff_sum[:, :, start:stop], outputs[:, start:stop], cycle_dtype, plane_dtype
                )

        if continuous:
            scales = [float(adc.level_scale) for adc in adcs]
        elif luts is not None:
            total_ops = gather.record_trials(counts, adcs)
            scales = [lut.scale for lut in luts]
        else:
            # Ideal conversion charges the full-resolution baseline.
            return outputs, [self._baseline_ops(batch)] * trials
        for t, scale in enumerate(scales):
            if scale != 1.0:
                outputs[t] *= scale
        return outputs, total_ops

    def _merge_dtypes(self, level_bound: int) -> tuple:
        """Exact dtypes of the merge: ``(difference, segment sum, cycle sum,
        plane sum)``.

        Sized from the exact bounds — ``level_bound`` on ``|L⁺ − L⁻|``,
        times ``num_segments`` after the segment sum, times ``Σ_c
        2^(c·RDA)`` after the cycle sum, times ``Σ_p 2^(p·Rcell)`` after the
        plane sum — by :func:`~repro.adc.lut.signed_dtype_for`, which raises
        rather than let an accumulator wrap.  A bound of at least 1 keeps
        every cycle and plane factor representable too.
        """
        cache = self.__dict__.setdefault("_merge_dtype_cache", {})
        dtypes = cache.get(level_bound)
        if dtypes is None:
            cycle_sum, plane_sum = self._factor_sums
            sum_bound = max(1, level_bound) * self.num_segments
            cycle_bound = sum_bound * cycle_sum
            plane_bound = cycle_bound * plane_sum
            dtypes = cache[level_bound] = tuple(
                signed_dtype_for(bound)
                for bound in (level_bound, sum_bound, cycle_bound, plane_bound)
            )
        return dtypes

    #: Blocks of at most this many differences merge as two weighted
    #: reductions instead of Horner steps: below it numpy's per-call
    #: overhead dominates (a one-row block of 8 cycles × 14 columns took
    #: 8 µs instead of 24 µs), above it Horner's in-place passes win
    #: (a 1170-row block of 8 × 28: 111 µs instead of 234 µs).
    _SMALL_MERGE = 1 << 16

    def _merge_differences(
        self, diff: np.ndarray, out: np.ndarray, cycle_dtype, plane_dtype
    ) -> None:
        """Shift-and-add merge of signed level differences, in place.

        ``diff`` is ``(trials, cycles, rows, planes · out_features)`` with
        entries ``L⁺ − L⁻``; adds ``Σ_c Σ_p 2^(c·RDA + p·Rcell) · diff[:, c,
        :, p]`` to ``out`` (``(trials, rows, out_features)`` float64).
        Horner's scheme runs over cycles, then over planes, in integers of
        the exact dtypes of :meth:`_merge_dtypes`: every factor is a power
        of two and nothing can wrap, so the result is the exact integer
        whatever the order — the same number the reference loop sums in
        float64.  Blocks up to :attr:`_SMALL_MERGE` differences take the
        same sums as one weighted reduction per axis.
        """
        trials, num_cycles, rows, _ = diff.shape
        planes = self.num_weight_planes
        by_plane_shape = (trials, rows, planes, self.out_features)
        if diff.size <= self._SMALL_MERGE:
            by_cycle = np.multiply(
                diff, self._cycle_factors[:, None, None], dtype=cycle_dtype
            ).sum(axis=1, dtype=cycle_dtype)
            out += np.multiply(
                by_cycle.reshape(by_plane_shape), self._plane_factors[:, None],
                dtype=plane_dtype,
            ).sum(axis=2, dtype=plane_dtype)
            return
        # Multiplying by a 0-d power of two of the accumulator's dtype is an
        # exact shift that numpy runs faster than ``<<=``.
        by_cycle = self._fast_buffer(
            "cycle_acc", diff.shape[:1] + diff.shape[2:], cycle_dtype
        )
        np.copyto(by_cycle, diff[:, num_cycles - 1])
        if num_cycles > 1:
            cycle_step = np.array(self._cycle_factors[1], dtype=cycle_dtype)
        for cycle_index in range(num_cycles - 2, -1, -1):
            by_cycle *= cycle_step
            by_cycle += diff[:, cycle_index]
        by_plane = by_cycle.reshape(by_plane_shape)
        merged = self._fast_buffer("plane_acc", (trials, rows, self.out_features), plane_dtype)
        np.copyto(merged, by_plane[:, :, planes - 1])
        if planes > 1:
            plane_step = np.array(self._plane_factors[1], dtype=plane_dtype)
        for plane in range(planes - 2, -1, -1):
            merged *= plane_step
            merged += by_plane[:, :, plane]
        out += merged

    def _matmul_fast_trials_fallback(
        self,
        input_codes: np.ndarray,
        adcs: Optional[List[object]],
        noise: Optional[TrialNoiseStates],
        shared_input: bool,
    ) -> Tuple[np.ndarray, List[int]]:
        """Fused-GEMM path for converters without a level grid (e.g. the
        non-uniform baseline) and for ideal conversion under non-static noise.

        One matmul per segment is kept, shared across trials whenever the
        inputs are; conversion runs per (trial, cycle, segment) block — the
        same blocks, values and keyed noise draws as the reference loop — so
        every trial matches the loop bit for bit whenever the converter is
        deterministic.  Keyed noise runs as one ``(trials, rows, cols)``
        batched pass per block (per segment for cycle-invariant stacks).
        These conversions merge floats, where summation order matters, so
        the ``cycles × segments`` contributions are replayed in the
        reference (cycle-major) order, trading memory for bit-parity at
        large ``chunk_size`` — shrink the chunk if that matters.
        """
        trials, batch = input_codes.shape[0], input_codes.shape[1]
        num_cycles = self.num_input_cycles
        cols = 2 * self.num_weight_planes * self.out_features
        eff = 1 if shared_input else trials
        stacked = self._stack_cycles(
            input_codes[0]
            if shared_input
            else input_codes.reshape(trials * batch, self.in_features)
        )
        baseline_ops = self.topology.ideal_adc_resolution
        outputs = np.zeros((trials, batch, self.out_features), dtype=np.float64)
        total_ops = [0] * trials
        contributions: List[List[List[np.ndarray]]] = [
            [[] for _ in range(num_cycles)] for _ in range(trials)
        ]
        for segment_index, segment in enumerate(self._segments):
            partials = np.matmul(stacked[:, segment], self._plane_matrix[segment])
            blocks = partials.reshape(num_cycles, eff, batch, cols)
            noisy_all = None
            if noise is not None and noise.cycle_invariant:
                # Same cycle-axis fold as the LUT path: static stacks
                # perturb the segment's cycles in one batched pass.
                if eff == 1:
                    values = np.broadcast_to(
                        blocks.reshape(num_cycles * batch, cols),
                        (trials, num_cycles * batch, cols),
                    )
                else:
                    values = blocks.transpose(1, 0, 2, 3).reshape(
                        trials, num_cycles * batch, cols
                    )
                noisy_all = noise.perturb_trials(values, segment_index, 0).reshape(
                    trials, num_cycles, batch, cols
                )
            for cycle_index in range(num_cycles):
                if noisy_all is not None:
                    noisy = noisy_all[:, cycle_index]
                else:
                    noisy = blocks[cycle_index]
                    if eff == 1:
                        noisy = np.broadcast_to(noisy[0], (trials, batch, cols))
                    if noise is not None:
                        noisy = noise.perturb_trials(noisy, segment_index, cycle_index)
                cycle_factor = float(1 << (cycle_index * self.topology.dac_bits))
                for t in range(trials):
                    block = noisy[t]
                    if adcs is None:
                        quantized = block
                        total_ops[t] += block.size * baseline_ops
                    else:
                        quantized, ops = adcs[t].convert(block)
                        total_ops[t] += int(ops)
                    contributions[t][cycle_index].append(
                        cycle_factor * self.merge_partials(quantized)
                    )
        for t in range(trials):
            for per_cycle in contributions[t]:
                for contribution in per_cycle:
                    outputs[t] += contribution
        return outputs, total_ops

    def _fast_buffer(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A reusable scratch buffer (avoids large re-allocations per chunk).

        Returns a contiguous ``shape`` view of a flat buffer that is only
        reallocated when it is too small or of another dtype, so a shorter
        last chunk or row block reuses the same memory.
        """
        cache = getattr(self, "_fast_buffers", None)
        if cache is None:
            cache = self._fast_buffers = {}
        size = math.prod(shape)
        buffer = cache.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = cache[name] = np.empty(size, dtype=dtype)
        if buffer.size != size:
            buffer = buffer[:size]
        return buffer.reshape(shape)

    def release_scratch(self) -> None:
        """Free the fast engine's scratch buffers.

        The buffers (stacked cycles, bit-line or pair codes, gathered levels
        or pair differences, and the merge accumulators) hold at most
        ``num_input_cycles · batch × total_columns`` elements each and are
        kept between ``matmul`` calls so consecutive chunks of one execution
        reuse them; call this after a run to return the memory (the backend
        does so after each layer execution).
        """
        self._fast_buffers = None
