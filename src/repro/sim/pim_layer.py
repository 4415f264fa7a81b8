"""PIM compute backend: executes Conv2d/Linear layers on the crossbar + ADC
models instead of the NumPy fast path.

The backend implements the :class:`repro.nn.layers.ComputeBackend` protocol,
so attaching it to a model's MVM layers (``layer.compute_backend = backend``)
re-routes inference through the full bit-sliced datapath:

    quantize inputs → im2col → temporal input slicing → per-segment bit-line
    partial sums → device non-idealities (optional) → ADC conversion
    (uniform / twin-range / ideal) → shift-and-add merge → dequantize →
    bias add

while accumulating per-layer conversion statistics and, optionally, feeding a
:class:`repro.sim.capture.DistributionCollector` with the counts of the
ideal bit-line values.  Inputs are quantized before im2col, once per
activation rather than once per window that copies it: quantization works
element by element and im2col only copies elements (padding with the code
of 0.0), so the codes are the same.  They travel in the narrowest unsigned
dtype that holds the layer's ``qmax`` (uint8 for 8-bit activations).

Engines
-------
The backend executes the crossbar datapath with one of two engines (see the
:mod:`repro.crossbar.mapping` module docstring for the full contract):

* ``engine="fast"`` (default) — the fused cycle/segment kernel with
  integer-domain LUT conversion.  Relies on the invariant that bit-line
  values are exact non-negative integers, so LUT-capable ADCs replace float
  round/clip/compare math with an integer gather plus ``np.bincount``.
* ``engine="reference"`` — the per-(cycle, segment) Python loop, kept as the
  verification oracle.

Both engines produce bit-identical outputs and identical A/D-operation and
region statistics — including under device noise: non-ideality models from
:mod:`repro.nonideal` draw every perturbation from counter-based keyed
streams (per layer / chunk / segment / cycle), so the engines reconstruct
identical noise despite traversing blocks in different orders.

Trials
------
Every execution is a group of Monte Carlo trials — one per noise stack, and
a noise-free run is a single trial.  Each layer call receives the trials'
inputs tiled trial-major and runs them through one
:meth:`~repro.crossbar.mapping.MappedMVMLayer.matmul_trials` kernel call
per chunk (per trial sub-group for large groups).  Every trial carries its
own noise replica, ADC instances and statistics, so its outputs are
bit-identical to a run of that trial alone.  A bit-line collector observes
a single ideal, noise-free trial: it receives one count vector per kernel
call on the fast engine, and one per (cycle, segment) block on the
reference engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adc.config import AdcConfig
from repro.adc.trq import build_adc
from repro.crossbar.mapping import DEFAULT_TOPOLOGY, CrossbarTopology, MappedMVMLayer
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear
from repro.nonideal.stack import NonIdealityStack, TrialNoiseStates
from repro.quantization.ptq import QuantizedModel, find_mvm_layers
from repro.sim.capture import DistributionCollector
from repro.sim.stats import LayerSimStats
from repro.utils.validation import check_in_range, check_integer

#: Bounds of the fast engine's throughput chunking (``chunk_size=None``).
#: The sweet spot is workload-dependent: per-chunk Python/LUT overhead argues
#: for large chunks, while the fused kernel's scratch buffers
#: (``cycles · chunk × columns``) must stay cache-resident or the per-segment
#: matmul and gather turn memory-bound.  The adaptive default below holds the
#: scratch footprint near ``_CHUNK_ELEMENT_BUDGET`` elements, clamped to
#: these bounds — measured faster than any fixed chunk across the LeNet
#: layer shapes (see ``bench_ablation_calibration.py``).
MAX_CHUNK_SIZE = 16_384
MIN_CHUNK_SIZE = 512
_CHUNK_ELEMENT_BUDGET = 1 << 21


def throughput_chunk_size(num_input_cycles: int, total_columns: int) -> int:
    """The fast engine's throughput chunk for one mapped layer's geometry.

    Chosen so the fused kernel's per-chunk scratch (``cycles · chunk ×
    columns`` partials plus the level/noise gather buffers) stays within the
    element budget; wide conv layers get smaller chunks, narrow FC layers the
    maximum.  Used wherever ``chunk_size=None`` is passed — in particular by
    the calibration search's accuracy oracle, whose wall-time is dominated by
    these chunks.  The chunk grid is per trial: chunk indices key the noise
    draws, so every trial of a Monte Carlo group walks this same grid.
    """
    per_row = max(1, int(num_input_cycles) * int(total_columns))
    return max(MIN_CHUNK_SIZE, min(MAX_CHUNK_SIZE, _CHUNK_ELEMENT_BUDGET // per_row))


class PimBackend:
    """Crossbar + ADC execution backend for the MVM layers of one model.

    Parameters
    ----------
    quantized:
        PTQ artefacts of the model (integer weights, input/weight scales).
    topology:
        Crossbar geometry (128×128, 1-bit cells, 1-bit DAC by default).
    adc_configs:
        Per-layer ADC configuration.  Layers missing from the mapping (or the
        whole argument being ``None``) are converted *ideally*: the partial
        sums pass through unquantized and the operation count assumes the
        full-resolution baseline.
    chunk_size:
        Number of MVMs (output positions) processed per inner batch; bounds
        peak memory for large feature maps.  ``None`` (default) selects the
        adaptive per-layer throughput chunking
        (:func:`throughput_chunk_size`).
    collector:
        Optional bit-line value collector (paper Fig. 3a / calibration) for
        an ideal, noise-free single-trial run; any other run raises
        ``ValueError``.  It receives count vectors of the bit-line values.
    noise:
        One :class:`repro.nonideal.NonIdealityStack` per Monte Carlo trial,
        applied to bit-line values before conversion, or ``None`` for a
        noise-free single trial.  Inputs arrive tiled trial-major (``trials
        × rows``) and per-trial statistics accumulate in
        :attr:`trial_layer_stats`.
    engine:
        ``"fast"`` (fused kernel + LUT ADCs, default) or ``"reference"``
        (per-cycle/segment loop oracle).  Outputs and statistics are
        bit-identical between the two, with or without noise.
    """

    _ENGINES = ("fast", "reference")

    def __init__(
        self,
        quantized: QuantizedModel,
        topology: CrossbarTopology = DEFAULT_TOPOLOGY,
        adc_configs: Optional[Dict[str, AdcConfig]] = None,
        chunk_size: Optional[int] = None,
        collector: Optional[DistributionCollector] = None,
        noise: Optional[Sequence[NonIdealityStack]] = None,
        engine: str = "fast",
    ) -> None:
        if chunk_size is not None:
            check_in_range(check_integer(chunk_size, "chunk_size"), "chunk_size", low=1)
        if engine not in self._ENGINES:
            raise ValueError(f"unknown engine {engine!r} (expected one of {self._ENGINES})")
        self._stacks: Optional[Tuple[NonIdealityStack, ...]] = None
        if noise is not None:
            self._stacks = tuple(noise)
            if not self._stacks:
                raise ValueError("noise must contain at least one stack")
        self.trials = 1 if self._stacks is None else len(self._stacks)
        if collector is not None and self.trials != 1:
            raise ValueError("bit-line collection needs a single-trial run")
        self.engine = engine
        self.quantized = quantized
        self.topology = topology
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self.collector = collector
        self._adc_configs = dict(adc_configs) if adc_configs else {}

        self._layer_names: Dict[int, str] = {
            id(layer): name for name, layer in find_mvm_layers(quantized.model)
        }
        self._mapped: Dict[str, MappedMVMLayer] = {}
        self._trial_noise: Dict[str, Optional[TrialNoiseStates]] = {}
        self._trial_adcs: Dict[str, Optional[List[object]]] = {}
        self.trial_layer_stats: List[Dict[str, LayerSimStats]] = [
            {} for _ in range(self.trials)
        ]

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _layer_name(self, layer) -> str:
        name = self._layer_names.get(id(layer))
        if name is None:
            raise KeyError(
                "layer is not part of the quantized model this backend was built from"
            )
        return name

    def _mapped_layer(self, name: str, kind: str) -> MappedMVMLayer:
        if name not in self._mapped:
            lq = self.quantized.layer(name)
            if kind == "conv":
                out_channels = lq.weight_codes.shape[0]
                weight_matrix = lq.weight_codes.reshape(out_channels, -1).T
            else:
                weight_matrix = lq.weight_codes.T
            self._mapped[name] = MappedMVMLayer(
                weight_matrix, self.quantized.config, self.topology
            )
        return self._mapped[name]

    def _trial_noise_for(
        self, name: str, mapped: MappedMVMLayer
    ) -> Optional[TrialNoiseStates]:
        """The layer's per-trial bound noise states (``None`` when noise-free).

        Bound once per layer per backend: static draws (variation factors,
        fault maps) model one physical device for the whole run, and the
        chunk counters advance identically in both engines.
        """
        if self._stacks is None:
            return None
        states = self._trial_noise.get(name)
        if states is None:
            states = self._trial_noise[name] = TrialNoiseStates(
                [stack.bind_mapped(name, mapped) for stack in self._stacks]
            )
        return states

    def _trial_adcs_for(self, name: str) -> Optional[List[object]]:
        """Per-trial ADC instances for one layer (``None`` when ideal).

        Each trial needs its own converter — the perturbed LUT bound and the
        accumulated statistics are trial-specific — but the transfer-LUT
        cache is shared across the siblings: LUT content is a pure function
        of (config, max_value), so trials re-use each other's tabulations.
        """
        if name not in self._trial_adcs:
            config = self._adc_configs.get(name)
            if config is None:
                self._trial_adcs[name] = None
            else:
                shared_cache: Dict[int, object] = {}
                adcs = []
                for _ in range(self.trials):
                    adc = build_adc(config)
                    if hasattr(adc, "transfer_lut"):
                        adc._lut_cache = shared_cache
                    adcs.append(adc)
                self._trial_adcs[name] = adcs
        return self._trial_adcs[name]

    def _trial_stats_for(
        self, trial: int, name: str, kind: str, mapped: MappedMVMLayer
    ) -> LayerSimStats:
        stats = self.trial_layer_stats[trial].get(name)
        if stats is None:
            footprint = mapped.footprint()
            stats = self.trial_layer_stats[trial][name] = LayerSimStats(
                name=name,
                kind=kind,
                crossbar_pairs=footprint.num_crossbar_pairs,
                conversions_per_mvm=footprint.conversions_per_mvm,
            )
        return stats

    # ------------------------------------------------------------------ #
    # core execution
    # ------------------------------------------------------------------ #
    def _input_codes(self, name: str, x: np.ndarray) -> Tuple[np.ndarray, int]:
        """Quantize a layer's input activations: ``(codes, padding code)``.

        The codes are in the narrowest unsigned dtype holding the input
        grid's ``qmax``; the padding code is ``quantize(0.0)``, the code
        im2col pads with.  Signed inputs raise before anything is computed.
        """
        params = self.quantized.layer(name).input_params
        if params.signed:
            raise NotImplementedError(
                f"layer '{name}' has signed inputs; the differential crossbar "
                "mapping implemented here expects non-negative MVM inputs "
                "(images or post-ReLU activations)"
            )
        codes = params.quantize(x).astype(np.min_scalar_type(params.qmax))
        return codes, int(params.quantize(0.0))

    def _execute(self, name: str, kind: str, codes: np.ndarray) -> np.ndarray:
        """Run ``codes`` (MVM input codes, one vector per row) through the
        datapath.

        ``codes`` is the trial-major tiling of the per-trial rows: rows
        ``[t·R, (t+1)·R)`` are what a run of trial ``t`` alone would see.
        Every trial walks the same chunk grid — chunk indices key the noise
        draws — with the trials' chunk counters advancing in lockstep.
        Within a chunk, trials run in sub-groups sized so the kernel's
        ``(trials, cycles · chunk, columns)`` scratch stays within the
        element budget.  Per-trial outputs, operation counts and region
        statistics are bit-identical to running each trial alone.
        """
        lq = self.quantized.layer(name)
        mapped = self._mapped_layer(name, kind)
        adcs = self._trial_adcs_for(name)
        noise = self._trial_noise_for(name, mapped)
        if self.collector is not None:
            self.collector.set_layer(name)
        trials = self.trials
        rows = codes.shape[0]
        if rows % trials:
            raise ValueError(
                f"input rows ({rows}) are not divisible by the trial count ({trials})"
            )
        solo_rows = rows // trials

        codes = codes.reshape(trials, solo_rows, mapped.in_features)
        outputs = np.empty(
            (trials, solo_rows, mapped.out_features), dtype=np.float64
        )
        total_columns = 2 * mapped.num_weight_planes * mapped.out_features
        chunk_size = self.chunk_size
        if chunk_size is None:
            chunk_size = throughput_chunk_size(mapped.num_input_cycles, total_columns)
        # Trial sub-groups: one kernel call carries ``group`` trials, so its
        # ``group · rows × cycles · columns`` scratch stays within the same
        # element budget as one throughput chunk (without the chunk clamps).
        # Sized on the chunk's actual rows (a small layer execution never
        # fills ``chunk_size``), so small batches keep the whole group in
        # one kernel call.
        rows_per_chunk = min(chunk_size, solo_rows)
        per_row = max(1, mapped.num_input_cycles * total_columns)
        budget_rows = max(1, _CHUNK_ELEMENT_BUDGET // per_row)
        group = max(1, min(trials, budget_rows // max(1, rows_per_chunk)))

        stats = [self._trial_stats_for(t, name, kind, mapped) for t in range(trials)]
        prev_regions = [
            self._region_counters(adc) for adc in (adcs or [None] * trials)
        ]
        conversions_per_mvm = mapped.footprint().conversions_per_mvm
        try:
            for start in range(0, solo_rows, chunk_size):
                stop = min(start + chunk_size, solo_rows)
                if noise is not None:
                    noise.next_chunk()
                chunk = codes[:, start:stop]
                for g in range(0, trials, group):
                    g_stop = min(g + group, trials)
                    merged, ops = mapped.matmul_trials(
                        chunk[g:g_stop],
                        None if adcs is None else adcs[g:g_stop],
                        None if noise is None else TrialNoiseStates(noise.states[g:g_stop]),
                        engine=self.engine,
                        partial_observer=self.collector,
                    )
                    outputs[g:g_stop, start:stop] = merged
                    for offset, t in enumerate(range(g, g_stop)):
                        stats[t].mvm_count += stop - start
                        stats[t].conversions += (stop - start) * conversions_per_mvm
                        stats[t].operations += int(ops[offset])
        finally:
            # Scratch buffers are reused across the chunks above; free them so
            # peak memory is bounded by one layer's working set at a time.
            mapped.release_scratch()
        for t, adc in enumerate(adcs or [None] * trials):
            new_r1, new_r2 = self._region_counters(adc)
            stats[t].in_r1 += new_r1 - prev_regions[t][0]
            stats[t].in_r2 += new_r2 - prev_regions[t][1]

        return outputs.reshape(rows, mapped.out_features) * lq.output_scale

    @staticmethod
    def _region_counters(adc) -> Tuple[int, int]:
        stats = getattr(adc, "stats", None)
        if stats is None:
            return 0, 0
        return stats.in_r1, stats.in_r2

    # ------------------------------------------------------------------ #
    # ComputeBackend protocol
    # ------------------------------------------------------------------ #
    def conv2d(
        self,
        layer: Conv2d,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> np.ndarray:
        name = self._layer_name(layer)
        codes, pad_code = self._input_codes(name, x)
        cols, (oh, ow) = F.im2col(codes, layer.kernel_size, stride, padding, pad_code)
        out = self._execute(name, "conv", cols)
        if bias is not None:
            out = out + bias
        n = x.shape[0]
        return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

    def linear(
        self,
        layer: Linear,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
    ) -> np.ndarray:
        name = self._layer_name(layer)
        out = self._execute(name, "linear", self._input_codes(name, x)[0])
        if bias is not None:
            out = out + bias
        return out

    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        """Clear all accumulated per-layer statistics."""
        for stats in self.trial_layer_stats:
            stats.clear()
        for adcs in self._trial_adcs.values():
            for adc in adcs or ():
                adc.reset_stats()

    def mapping_footprints(self) -> Dict[str, object]:
        """Resource footprint of every layer mapped so far."""
        return {name: mapped.footprint() for name, mapped in self._mapped.items()}
