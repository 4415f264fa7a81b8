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
  region/op totals from ``np.bincount`` instead of per-element float math.

There is exactly one fused kernel, and it carries a leading Monte Carlo
``trials`` axis (:meth:`MappedMVMLayer.matmul_trials`): a solo
``matmul(engine="fast")`` is a one-trial call into it.

Bit-reproducibility rests on the **integer-domain invariant**: every quantity
the datapath merges is an exact small integer.  ADCs with a uniform level
grid expose integer *output levels* ``k`` (quantized value = ``scale · k``
exactly), the shift-and-add factors and DAC cycle weights are signed powers
of two, and every partial sum stays far below ``2^53`` — so float64
accumulation is exact in *any* order.  Both engines therefore compute the
same exact integers, scale them once per output, and produce bit-identical
results with identical operation counts (asserted by the test suite and by
``benchmarks/bench_engine_fastpath.py``).  Converters without a level grid
(e.g. the non-uniform baseline) take an element-wise fallback inside the
fused kernel that replays the reference merge semantics.

Device non-idealities (the optional ``noise`` argument, a
:class:`repro.nonideal.stack.LayerNoiseState`) perturb the raw bit-line
blocks before conversion.  Because every perturbation is a *keyed,
counter-based* function of the block's logical coordinates (chunk, segment,
input cycle) rather than a shared RNG stream, both engines reconstruct the
same noise sample for sample and remain bit-identical under noise.
Integer-domain perturbations (stuck-at faults, quantized variation,
retention drift) keep the fused LUT conversion path — pure per-value maps
are even folded into the transfer LUT itself
(:func:`repro.adc.lut.compose_transfer_lut`) — while continuous
perturbations (read noise, analog variation, IR drop) route the fused
kernel through the element-wise fallback.

Observable differences are limited to the optional ``partial_observer``
(one trial only): the reference engine emits blocks cycle-major, the fast
engine segment-major with the input cycle innermost (block shapes, values
and dtypes are identical), and fast-engine blocks are transient views into
reused scratch buffers — observers must copy what they keep.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.adc.lut import TrialLutGather, compose_transfer_lut
from repro.backend import active_ops
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
        # Fused (cycle, sign, plane) factors of the fast engine: every entry is
        # an exact (signed) power of two, so multiplying integer levels by it
        # and summing in float64 is exact arithmetic.
        cycle_shifts = np.array(
            [1 << (c * topology.dac_bits) for c in range(self.num_input_cycles)],
            dtype=np.float64,
        )
        self._fused_factors = cycle_shifts[:, None, None] * self._merge_factors[None, :, :]

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
            Optional callable receiving every raw bit-line block (used to
            capture the value distributions of paper Fig. 3a).  Observers see
            the *ideal* (pre-noise) values.
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

    def _stack_cycles(self, input_codes: np.ndarray) -> np.ndarray:
        """Temporal slicing fused with cycle stacking for the fast engine.

        Writes the ``num_cycles`` DAC slices directly into one reused
        ``(cycles · batch, in_features)`` float32 operand (cycle-major), with
        the same range validation and slice values as
        :func:`repro.crossbar.slicing.slice_inputs_temporal`.
        """
        activation_bits = self.quant_config.activation_bits
        dac_bits = self.topology.dac_bits
        batch = input_codes.shape[0]
        codes = input_codes.astype(np.int64, copy=False)
        if codes.size:
            if codes.min() < 0:
                raise ValueError("bit_slice expects non-negative integers")
            if codes.max() >= (1 << activation_bits):
                raise ValueError(
                    f"values exceed {activation_bits} bits (max={codes.max()})"
                )
        stacked = self._fast_buffer(
            "stacked", (self.num_input_cycles * batch, self.in_features), np.float32
        )
        view = stacked.reshape(self.num_input_cycles, batch, self.in_features)
        mask = (1 << dac_bits) - 1
        for cycle_index in range(self.num_input_cycles):
            np.copyto(
                view[cycle_index],
                (codes >> (cycle_index * dac_bits)) & mask,
                casting="unsafe",
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
        given, perturbs each raw block after the observer and before
        conversion, via the keyed sampling that both engines share.
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
                    partial_observer(partials)
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
            trial can be observed.

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

    def _conversion_setup(
        self,
        adcs: Optional[List[object]],
        noise: Optional[TrialNoiseStates],
    ) -> tuple:
        """Per-trial transfer LUTs: ``(luts, value_mapped, gather)``.

        ``luts`` is ``None`` when a converter has no integer level grid or
        the noise leaves the integer domain.  The setup — value maps,
        per-trial transfer LUTs, the combined gather table — is a pure
        function of the per-trial noise states and ADC instances, both
        stable across the chunks of one run.  It is cached on exactly those
        objects (never on a :class:`TrialNoiseStates` wrapper, which a solo
        :meth:`matmul` builds afresh per call), making it a per-run cost
        instead of a per-chunk one; in the overhead-bound small-row regime
        this setup would otherwise rival the kernel work itself.
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
        if lut_capable and (noise is None or noise.integer_domain):
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
        setup = (luts, value_mapped, None if luts is None else TrialLutGather(luts))
        if len(cache) >= 64:
            cache.clear()
        # The entry holds strong references to the keyed objects, so their
        # ids cannot be recycled while the entry lives.
        cache[key] = ((states, tuple(adcs)), setup)
        return setup

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
        segments`` to ``segments``.  ADCs with an integer level grid (see
        :mod:`repro.adc.lut`) are applied as a tiled integer gather of output
        *levels*; the cycle/plane/sign merge then collapses into a single
        contraction whose factors are exact powers of two, making every
        partial sum exact integer arithmetic in float64 — bit-identical to
        the reference loop regardless of summation order.  Exact operation
        and region totals come from ``np.bincount`` on the same codes.
        Converters without a level grid (e.g. the non-uniform baseline) and
        continuous noise take :meth:`_matmul_fast_trials_fallback`.

        The leading trial axis rides through the same integer-exact
        datapath, which is why every trial is bit-identical to a solo run:

        * the stacked-cycle matmul computes exact small integers, so its
          results do not depend on operand blocking (a ``(trials · batch)``
          row block equals the per-trial rows); when every trial receives
          the same input rows (always for one trial, and for the first MVM
          layer) the matmul runs once and is broadcast;
        * integer-domain noise is applied through
          :meth:`~repro.nonideal.stack.TrialNoiseStates.perturb_trials`,
          whose per-trial slices equal the solo keyed draws exactly, with
          each LUT sized to its trial's perturbed bound — pure per-value
          maps are folded into the transfer LUTs instead (zero per-element
          cost);
        * the trials' (differently sized) LUTs gather through one combined
          :class:`~repro.adc.lut.TrialLutGather` table and merge with the
          same order-free exact power-of-two contraction.

        Blocks handed to ``partial_observer`` are transient views into a
        reused buffer — observers must copy what they keep (the
        distribution collector does).
        """
        trials, batch = input_codes.shape[0], input_codes.shape[1]
        num_cycles = self.num_input_cycles
        cols = 2 * self.num_weight_planes * self.out_features
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
        luts, value_mapped, gather = self._conversion_setup(adcs, noise)
        integer_noise = noise is None or noise.integer_domain
        if luts is None and (adcs is not None or not integer_noise):
            # Ideal conversion under continuous noise merges floats, where
            # summation order matters; like non-LUT converters it replays
            # the reference order.
            return self._matmul_fast_trials_fallback(
                input_codes, adcs, noise, shared_input, partial_observer
            )

        ops_shim = active_ops()
        eff = 1 if shared_input else trials
        stacked = self._stack_cycles(
            input_codes[0]
            if shared_input
            else input_codes.reshape(trials * batch, self.in_features)
        )
        perturb_blocks = noise is not None and not value_mapped
        invariant_perturb = perturb_blocks and noise.cycle_invariant
        # One unperturbed trial converts its contiguous segment buffer in a
        # single gather; only the contraction is row-blocked.
        whole_segment = trials == 1 and not perturb_blocks
        fused_factors = self._fused_factors.reshape(num_cycles, -1)
        # Cache blocking: the per-trial loop incidentally works on small,
        # cache-resident blocks; a naive trial batch would drag every
        # element-wise pass to DRAM-sized arrays and *lose* to the loop.
        # Tile the batch (MVM-row) axis so one ``(trials, cycles, rows,
        # cols)`` block of the perturb → gather → merge chain stays near
        # ``_FAST_TILE`` elements.  Blocking the row axis is bit-safe only
        # for cycle-invariant (row-count-agnostic) noise; per-read draws
        # are shaped by the full chunk, so that path materializes the
        # whole chunk first and the blocking only covers gather + merge.
        row_blk = max(1, self._FAST_TILE // max(1, trials * num_cycles * cols))
        outputs = np.zeros((trials, batch, self.out_features), dtype=np.float64)
        partials_buf = self._fast_buffer(
            "partials", (num_cycles * eff * batch, cols), np.float32
        )
        if perturb_blocks and not invariant_perturb:
            noisy_buf = self._fast_buffer(
                "noisy", (trials * num_cycles * batch, cols), np.float64
            )
        if luts is not None:
            counts = gather.new_counts()
            level_rows = batch if whole_segment else min(row_blk, batch)
            levels_buf = self._fast_buffer(
                "levels", (trials * num_cycles * level_rows, cols), gather.levels.dtype
            )

        for segment_index, segment in enumerate(self._segments):
            ops_shim.matmul(
                stacked[:, segment], self._plane_matrix[segment], out=partials_buf
            )
            raw = partials_buf.reshape(num_cycles, eff, batch, cols)
            if partial_observer is not None:
                for cycle_index in range(num_cycles):
                    partial_observer(raw[cycle_index, 0])
            converted = None
            if whole_segment:
                converted = partials_buf.reshape(1, num_cycles, batch, cols)
                if luts is not None:
                    levels = levels_buf.reshape(1, num_cycles, batch, cols)
                    gather.gather(converted, counts, levels)
                    converted = levels
            elif perturb_blocks and not invariant_perturb:
                # Per-read draws are shaped by the whole chunk: one batched
                # keyed-noise pass per (cycle, segment) block, materialized
                # before the blocked gather/merge below.  The per-trial
                # slices equal the solo perturb_block calls.
                converted = noisy_buf.reshape(trials, num_cycles, batch, cols)
                for cycle_index in range(num_cycles):
                    values = raw[cycle_index]
                    if eff == 1:
                        values = np.broadcast_to(values[0], (trials, batch, cols))
                    np.copyto(
                        converted[:, cycle_index],
                        noise.perturb_trials(values, segment_index, cycle_index),
                    )
            for start in range(0, batch, row_blk):
                stop = min(start + row_blk, batch)
                rows = stop - start
                if converted is not None:
                    source = converted[:, :, start:stop]
                elif invariant_perturb:
                    # Static stacks perturb every input cycle identically,
                    # so one batched pass covers the block's whole cycle
                    # axis — the models are row-count-agnostic, making each
                    # row's result equal the per-cycle chain bit for bit.
                    block = raw[:, :, start:stop]
                    if eff == 1:
                        values = np.broadcast_to(
                            block.reshape(num_cycles * rows, cols),
                            (trials, num_cycles * rows, cols),
                        )
                    else:
                        values = block.transpose(1, 0, 2, 3).reshape(
                            trials, num_cycles * rows, cols
                        )
                    source = noise.perturb_trials(
                        values, segment_index, 0
                    ).reshape(trials, num_cycles, rows, cols)
                elif eff == 1:
                    source = np.broadcast_to(
                        raw[:, 0, start:stop], (trials, num_cycles, rows, cols)
                    )
                else:
                    source = raw[:, :, start:stop].transpose(1, 0, 2, 3)
                if luts is not None and not whole_segment:
                    levels = levels_buf[: trials * num_cycles * rows].reshape(
                        trials, num_cycles, rows, cols
                    )
                    gather.gather(source, counts, levels)
                    source = levels
                # Contract the (cycle, sign·plane) axes with the fused
                # power-of-two factors — exact float64 accumulation, one
                # cache-sized block at a time.
                outputs[:, start:stop] += np.tensordot(
                    source.reshape(
                        trials,
                        num_cycles,
                        rows,
                        2 * self.num_weight_planes,
                        self.out_features,
                    ),
                    fused_factors,
                    axes=([1, 3], [0, 1]),
                )

        if luts is None:
            # Ideal conversion charges the full-resolution baseline.
            conversions = self.num_segments * num_cycles * batch * cols
            return outputs, [conversions * self.topology.ideal_adc_resolution] * trials
        total_ops = gather.record_trials(counts, adcs)
        for t, lut in enumerate(luts):
            if lut.scale != 1.0:
                outputs[t] *= lut.scale
        return outputs, total_ops

    def _matmul_fast_trials_fallback(
        self,
        input_codes: np.ndarray,
        adcs: Optional[List[object]],
        noise: Optional[TrialNoiseStates],
        shared_input: bool,
        partial_observer: Optional[Callable[[np.ndarray], None]] = None,
    ) -> Tuple[np.ndarray, List[int]]:
        """Fused-GEMM path for element-wise (non-LUT) conversion.

        One matmul per segment is kept, shared across trials whenever the
        inputs are; conversion runs per (trial, cycle, segment) block — the
        same blocks, values and keyed noise draws as the reference loop — so
        every trial matches the loop bit for bit whenever the converter is
        deterministic.  Keyed noise runs as one ``(trials, rows, cols)``
        batched pass per block (per segment for cycle-invariant stacks).
        Converters with an integer level grid merge integer levels (scale
        applied once per output), which is order-free exact arithmetic and
        is accumulated directly.  Converters without one (and ideal
        conversion of continuous-noise floats) merge floats, where order
        matters: their ``cycles × segments`` contributions are replayed in
        the reference (cycle-major) order, trading memory for bit-parity at
        large ``chunk_size`` — shrink the chunk if that matters.
        """
        trials, batch = input_codes.shape[0], input_codes.shape[1]
        num_cycles = self.num_input_cycles
        cols = 2 * self.num_weight_planes * self.out_features
        ops_shim = active_ops()
        eff = 1 if shared_input else trials
        stacked = self._stack_cycles(
            input_codes[0]
            if shared_input
            else input_codes.reshape(trials * batch, self.in_features)
        )
        baseline_ops = self.topology.ideal_adc_resolution
        if adcs is None:
            converters = [None] * trials
        else:
            converters = [getattr(adc, "convert_levels", None) for adc in adcs]
        scale = (
            float(adcs[0].level_scale) if converters[0] is not None else 1.0
        )
        preserve_order = converters[0] is None
        outputs = np.zeros((trials, batch, self.out_features), dtype=np.float64)
        total_ops = [0] * trials
        contributions: List[List[List[np.ndarray]]] = [
            [[] for _ in range(num_cycles)] for _ in range(trials)
        ]
        for segment_index, segment in enumerate(self._segments):
            partials = ops_shim.matmul(stacked[:, segment], self._plane_matrix[segment])
            blocks = partials.reshape(num_cycles, eff, batch, cols)
            if partial_observer is not None:
                for cycle_index in range(num_cycles):
                    partial_observer(blocks[cycle_index, 0])
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
                    elif converters[t] is not None:
                        quantized, ops = converters[t](block)
                        total_ops[t] += int(ops)
                    else:
                        quantized, ops = adcs[t].convert(block)
                        total_ops[t] += int(ops)
                    contribution = cycle_factor * self.merge_partials(quantized)
                    if preserve_order:
                        contributions[t][cycle_index].append(contribution)
                    else:
                        outputs[t] += contribution
        for t in range(trials):
            for per_cycle in contributions[t]:
                for contribution in per_cycle:
                    outputs[t] += contribution
        if scale != 1.0:
            outputs *= scale
        return outputs, total_ops

    def _fast_buffer(self, name: str, shape: Tuple[int, int], dtype) -> np.ndarray:
        """A reusable scratch buffer (avoids large re-allocations per chunk)."""
        cache = getattr(self, "_fast_buffers", None)
        if cache is None:
            cache = self._fast_buffers = {}
        buffer = cache.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != np.dtype(dtype):
            buffer = cache[name] = np.empty(shape, dtype=dtype)
        return buffer

    def release_scratch(self) -> None:
        """Free the fast engine's scratch buffers.

        The buffers are sized ``num_input_cycles · batch × total_columns``
        and are kept between ``matmul`` calls so consecutive chunks of one
        execution reuse them; call this after a run to return the memory
        (the backend does so after each layer execution).
        """
        self._fast_buffers = None
