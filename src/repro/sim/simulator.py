"""End-to-end PIM simulator.

:class:`PimSimulator` evaluates a quantized model on the crossbar + ADC
datapath, producing the quantities the paper's evaluation reports: inference
accuracy under a given per-layer ADC configuration, total and per-layer A/D
operation counts (Fig. 6c), and the bit-line value distributions used by the
calibration search (Fig. 3a).  It plays the role DNN+NeuroSim plays in the
paper's experimental setup.

On top of the single-run API, :meth:`PimSimulator.run_monte_carlo` runs
multi-seed robustness trials under a device non-ideality stack
(:mod:`repro.nonideal`): each trial re-draws the device state from a derived
per-trial seed, runs the (fast-engine, chunked) evaluation, and the
aggregate reports mean/std/confidence-interval accuracy plus per-layer
degradation statistics.  Trials are exactly reproducible under a fixed seed.

:meth:`PimSimulator.evaluate`, :meth:`~PimSimulator.collect_bitline_distributions`
and :meth:`~PimSimulator.monte_carlo_trial_results` share one forward loop:
every run is a group of trials through one backend and one fused kernel
with a leading trials axis, and a single evaluation or capture is a group
of one (the capture's collector receives one count vector of the ideal
bit-line values per kernel call).
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.adc.config import AdcConfig
from repro.crossbar.mapping import DEFAULT_TOPOLOGY, CrossbarTopology
from repro.nn.metrics import top1_accuracy
from repro.nonideal.stack import NonIdealityStack, as_stack
from repro.quantization.ptq import QuantizedModel, find_mvm_layers
from repro.sim.capture import DistributionCollector
from repro.sim.pim_layer import PimBackend
from repro.sim.stats import (
    LayerRobustnessStats,
    LayerSimStats,
    MonteCarloResult,
    SimulationResult,
)
from repro.utils.logging import get_logger
from repro.utils.validation import check_in_range, check_integer

logger = get_logger("sim.simulator")

#: Images per forward batch of a bit-line capture.  A histogram is the same
#: at every batch size, so this only sets the capture's working set.
CAPTURE_BATCH_SIZE = 8


class PimSimulator:
    """Simulate inference of a PTQ-quantized model on the ReRAM accelerator.

    Parameters
    ----------
    quantized:
        Output of :func:`repro.quantization.quantize_model`.
    topology:
        Crossbar geometry (defaults to the paper's 128×128 / 1-bit setup).
    chunk_size:
        MVMs per inner batch inside the backend (memory knob); ``None``
        (default) selects the fast engine's adaptive per-layer throughput
        chunking (:func:`repro.sim.pim_layer.throughput_chunk_size`).
    engine:
        Datapath engine: ``"fast"`` (fused cycle/segment kernel with
        integer-domain LUT ADCs, default) or ``"reference"`` (the
        per-(cycle, segment) loop kept as verification oracle).  The two are
        bit-identical in outputs and operation statistics, with or without a
        :mod:`repro.nonideal` noise stack.
    """

    def __init__(
        self,
        quantized: QuantizedModel,
        topology: CrossbarTopology = DEFAULT_TOPOLOGY,
        chunk_size: Optional[int] = None,
        engine: str = "fast",
    ) -> None:
        if engine not in PimBackend._ENGINES:
            raise ValueError(
                f"unknown engine {engine!r} (expected one of {PimBackend._ENGINES})"
            )
        self.quantized = quantized
        self.topology = topology
        self.chunk_size = chunk_size if chunk_size is None else int(chunk_size)
        self.engine = engine

    # ------------------------------------------------------------------ #
    @property
    def baseline_ops_per_conversion(self) -> int:
        """A/D operations per conversion of the full-resolution baseline."""
        return self.topology.ideal_adc_resolution

    def layer_names(self) -> list:
        """Names of the MVM layers in forward order."""
        return [name for name, _ in find_mvm_layers(self.quantized.model)]

    # ------------------------------------------------------------------ #
    def _forward(
        self,
        images: np.ndarray,
        labels: Optional[np.ndarray],
        adc_configs: Optional[Dict[str, AdcConfig]],
        batch_size: int,
        stacks: Optional[Sequence[NonIdealityStack]] = None,
        collector: Optional[DistributionCollector] = None,
    ) -> List[SimulationResult]:
        """The one forward loop: a group of trials through one backend.

        ``stacks[t]`` is trial ``t``'s noise stack; ``stacks=None`` runs a
        single noise-free trial.  Each forward batch is tiled trial-major
        (``trials × batch``), so every trial's rows traverse exactly the
        chunk grid of a run of that trial alone — each returned result is
        **bit-identical** (logits, accuracy, per-layer statistics) to its
        trial evaluated alone.
        """
        check_in_range(check_integer(batch_size, "batch_size"), "batch_size", low=1)
        model = self.quantized.model
        backend = PimBackend(
            self.quantized,
            topology=self.topology,
            adc_configs=adc_configs,
            chunk_size=self.chunk_size,
            collector=collector,
            noise=stacks,
            engine=self.engine,
        )
        trials = backend.trials
        mvm_layers = find_mvm_layers(model)
        model.eval()
        for _, layer in mvm_layers:
            layer.compute_backend = backend
        trial_logits: List[List[np.ndarray]] = [[] for _ in range(trials)]
        try:
            for start in range(0, images.shape[0], batch_size):
                batch = images[start : start + batch_size]
                logits = model(np.concatenate([batch] * trials, axis=0))
                rows = batch.shape[0]
                for t in range(trials):
                    trial_logits[t].append(logits[t * rows : (t + 1) * rows])
        finally:
            for _, layer in mvm_layers:
                layer.compute_backend = None

        labels_arr = None if labels is None else np.asarray(labels)
        results = []
        for t in range(trials):
            logits = np.concatenate(trial_logits[t], axis=0)
            accuracy = (
                top1_accuracy(logits, labels) if labels is not None else float("nan")
            )
            results.append(
                SimulationResult(
                    accuracy=accuracy,
                    num_images=int(images.shape[0]),
                    layer_stats={
                        k: copy.deepcopy(v)
                        for k, v in backend.trial_layer_stats[t].items()
                    },
                    baseline_ops_per_conversion=self.baseline_ops_per_conversion,
                    logits=logits,
                    labels=labels_arr,
                )
            )
        return results

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        adc_configs: Optional[Dict[str, AdcConfig]] = None,
        batch_size: int = 16,
        noise=None,
    ) -> SimulationResult:
        """Run inference with the given per-layer ADC configuration.

        ``adc_configs=None`` gives the ideal-conversion reference (no ADC
        quantization error, baseline operation counts).  ``noise`` accepts
        anything :func:`repro.nonideal.as_stack` does: a stack, a model or
        a list of models/spec dicts.
        """
        stack = as_stack(noise)
        stacks = None if stack is None else [stack]
        return self._forward(images, labels, adc_configs, batch_size, stacks)[0]

    def monte_carlo_trial_results(
        self,
        images: np.ndarray,
        labels: Optional[np.ndarray],
        stacks: Sequence[NonIdealityStack],
        adc_configs: Optional[Dict[str, AdcConfig]] = None,
        batch_size: int = 16,
    ) -> List[SimulationResult]:
        """Evaluate several noise-stack replicas in one batched execution.

        ``stacks[t]`` plays the role of one Monte Carlo trial's reseeded
        stack; all trials run through one backend, which executes every
        fused-kernel invocation once for the whole group instead of once per
        trial.  The returned results are **bit-identical** (logits,
        accuracies, per-layer statistics) to ``len(stacks)`` separate
        :meth:`evaluate` calls under the same stacks; a single stack is a
        group of one through the same kernel.
        """
        stacks = list(stacks)
        if not stacks:
            raise ValueError("monte_carlo_trial_results needs at least one stack")
        return self._forward(images, labels, adc_configs, batch_size, stacks)

    def run_monte_carlo(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        noise,
        adc_configs: Optional[Dict[str, AdcConfig]] = None,
        trials: int = 16,
        batch_size: int = 16,
        seed: int = 0,
        confidence: float = 0.95,
        clean: Optional[SimulationResult] = None,
        trial_batch: int = 1,
    ) -> MonteCarloResult:
        """Multi-seed robustness trials under a device non-ideality stack.

        Runs one clean (noise-free) evaluation as the reference, then
        ``trials`` noisy evaluations whose stacks are reseeded with seeds
        derived from ``(stack seed, seed, trial)`` — every trial therefore
        sees an independent device (fresh variation factors, fault maps and
        read noise) while the whole experiment reproduces exactly under the
        same seeds.  Each trial runs batched over the configured engine (the
        fast engine by default) with the backend's throughput chunking.

        Sweeps that call this repeatedly with the same images and
        ``adc_configs`` can pass the deterministic clean run once via
        ``clean`` (it must come from ``evaluate`` on the same inputs) to
        skip recomputing it per grid point.  A clean result restored from
        disk (``SimulationResult.from_payload`` with its NPZ logits, as the
        experiment result store does) is equally valid — the round-trip is
        bit-exact, so flip rates and per-layer degradation match the
        in-process reference exactly.

        ``trial_batch`` sets how many trials execute per kernel invocation:
        trials run in groups of ``trial_batch`` through the fused kernel
        (:meth:`monte_carlo_trial_results`), and ``1`` (default) is a group
        of one through the same kernel.  Every ``trial_batch`` produces
        bit-identical results; it is purely a throughput knob.  The
        independent oracle is the reference engine.

        Returns a :class:`~repro.sim.stats.MonteCarloResult` with the trial
        accuracies, their mean/std and normal-approximation confidence
        interval, per-trial prediction flip rates against the clean run, and
        per-layer degradation statistics of the A/D operation and region
        counters.
        """
        check_in_range(check_integer(trials, "trials"), "trials", low=1)
        check_in_range(
            check_integer(trial_batch, "trial_batch"), "trial_batch", low=1
        )
        check_in_range(float(confidence), "confidence", low=0.0, high=1.0, inclusive=False)
        stack = as_stack(noise)
        if stack is None or not stack.models:
            raise ValueError("run_monte_carlo requires a non-empty noise stack")

        clean = self._clean_reference(clean, images, labels, adc_configs, batch_size)

        trial_results: List[SimulationResult] = []
        for group_start in range(0, trials, trial_batch):
            group = range(group_start, min(group_start + trial_batch, trials))
            trial_results.extend(
                self.monte_carlo_trial_results(
                    images,
                    labels,
                    [stack.derive_trial(seed, trial) for trial in group],
                    adc_configs,
                    batch_size,
                )
            )

        clean_predictions = np.argmax(clean.logits, axis=1)
        accuracies = np.empty(trials, dtype=np.float64)
        flip_rates = np.empty(trials, dtype=np.float64)
        trial_layer_stats: Dict[str, list] = {name: [] for name in clean.layer_stats}
        for trial, result in enumerate(trial_results):
            accuracies[trial] = result.accuracy
            predictions = np.argmax(result.logits, axis=1)
            flip_rates[trial] = float(np.mean(predictions != clean_predictions))
            for name, stats in result.layer_stats.items():
                trial_layer_stats.setdefault(name, []).append(stats)
            logger.debug(
                "MC trial %d/%d: accuracy %.4f flip %.4f",
                trial + 1, trials, accuracies[trial], flip_rates[trial],
            )

        layer_stats = {
            name: LayerRobustnessStats.from_trials(
                name,
                clean.layer_stats.get(name),
                rows,
                self.baseline_ops_per_conversion,
            )
            for name, rows in trial_layer_stats.items()
        }
        return MonteCarloResult(
            trials=trials,
            seed=int(seed),
            confidence=float(confidence),
            accuracies=accuracies,
            flip_rates=flip_rates,
            clean_accuracy=clean.accuracy,
            layer_stats=layer_stats,
            noise_specs=_safe_specs(stack),
            baseline_ops_per_conversion=self.baseline_ops_per_conversion,
        )

    def _clean_reference(
        self,
        clean: Optional[SimulationResult],
        images: np.ndarray,
        labels: np.ndarray,
        adc_configs: Optional[Dict[str, AdcConfig]],
        batch_size: int,
    ) -> SimulationResult:
        """Validate (or compute) the reusable noise-free reference run.

        Accepts results produced in-process by :meth:`evaluate` and results
        restored from an artifact store via
        :meth:`~repro.sim.stats.SimulationResult.to_payload` /
        ``from_payload`` — both carry the exact logits and per-layer
        counters the Monte Carlo aggregation compares against.
        """
        if clean is None:
            return self.evaluate(images, labels, adc_configs, batch_size=batch_size)
        if clean.logits is None or clean.logits.shape[0] != images.shape[0]:
            raise ValueError(
                "clean= must be an evaluate() result (with logits) over the "
                "same images as this Monte Carlo run"
            )
        if labels is not None and clean.labels is not None and not np.array_equal(
            np.asarray(labels), clean.labels
        ):
            raise ValueError(
                "clean= was computed against different labels than this "
                "Monte Carlo run"
            )
        return clean

    def collect_bitline_distributions(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-layer histograms of the bit-line values under ideal conversion.

        This is the data behind paper Fig. 3a and the input to Algorithm 1.
        Entry ``v`` of a layer's ``np.bincount`` vector counts every
        occurrence of the value ``v`` on ``images`` (nothing is subsampled),
        and the counts do not depend on the engine or the batch size, so the
        capture runs at the fixed :data:`CAPTURE_BATCH_SIZE`.
        """
        collector = DistributionCollector()
        self._forward(images, None, None, CAPTURE_BATCH_SIZE, collector=collector)
        return collector.histograms()

    def accuracy_evaluator(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 16,
    ) -> Callable[[Optional[Dict[str, AdcConfig]]], float]:
        """A closure mapping per-layer ADC configs to end-to-end accuracy.

        This is the ``Acc'`` oracle of Algorithm 1's outer loop; the
        calibration search calls it once per candidate ``Nmax``.  The oracle
        runs on this simulator's engine and chunking — with the defaults,
        the fast engine at its throughput chunk size, which is what makes
        the accuracy-constrained loop affordable.
        """

        def evaluate(adc_configs: Optional[Dict[str, AdcConfig]]) -> float:
            result = self.evaluate(images, labels, adc_configs, batch_size=batch_size)
            return result.accuracy

        return evaluate

    # ------------------------------------------------------------------ #
    def mapping_summary(self) -> Dict[str, object]:
        """Per-layer crossbar footprints (used by the architecture model)."""
        backend = PimBackend(self.quantized, topology=self.topology, chunk_size=self.chunk_size)
        footprints = {}
        for name, layer in find_mvm_layers(self.quantized.model):
            lq = self.quantized.layer(name)
            kind = lq.kind
            footprints[name] = backend._mapped_layer(name, kind).footprint()
        return footprints


def _safe_specs(stack) -> Optional[list]:
    """Registry specs of the stack, or ``None`` for unserializable models."""
    try:
        return stack.specs()
    except TypeError:
        return None


__all__ = [
    "LayerRobustnessStats",
    "LayerSimStats",
    "MonteCarloResult",
    "PimSimulator",
    "SimulationResult",
]
