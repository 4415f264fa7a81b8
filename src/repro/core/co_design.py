"""Algorithm-hardware co-design orchestration (paper Section IV).

This module glues the pieces together into the pipeline a user actually runs:

1. post-training quantize a trained model on a few calibration images,
2. collect bit-line value distributions with the PIM simulator,
3. run the Algorithm 1 parameter search under an accuracy constraint,
4. translate the per-layer decisions into ADC configuration registers,
5. evaluate the final configuration (accuracy, remaining A/D operations).

The heavy dependencies (:mod:`repro.adc`, :mod:`repro.sim`,
:mod:`repro.quantization`) are imported lazily inside the functions because
those packages themselves import :mod:`repro.core` for the TRQ math; keeping
the top level of this module dependency-free avoids circular imports no
matter which subpackage a user imports first.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.core.calibration import (
    CalibrationResult,
    LayerAdcSetting,
    TwinRangeCalibrator,
)
from repro.core.search_space import DEFAULT_SEARCH_SPACE, SearchSpaceConfig
from repro.utils.logging import get_logger

logger = get_logger("core.co_design")

#: The bit-line capture :meth:`CoDesignOptimizer.run` searches over: a
#: per-layer reservoir of ``DISTRIBUTION_CAPACITY`` values, seeded with
#: ``CODESIGN_SEED``, filled in batches of ``capture_batch_size(batch_size)``.
#: The experiments layer schedules exactly this capture as a shared stored
#: job (:meth:`repro.experiments.JobSpec.capture_job`), so these constants
#: have this one definition.
DISTRIBUTION_CAPACITY = 50_000
CODESIGN_SEED = 0
MAX_CAPTURE_BATCH = 8


def capture_batch_size(batch_size: int) -> int:
    """Batch size of the capture behind a co-design run at ``batch_size``."""
    return min(int(batch_size), MAX_CAPTURE_BATCH)


# --------------------------------------------------------------------- #
# setting -> hardware configuration register
# --------------------------------------------------------------------- #
def setting_to_adc_config(setting: LayerAdcSetting, resolution: int = 8):
    """Translate one layer's calibration decision into an :class:`AdcConfig`."""
    from repro.adc.config import AdcConfig, AdcMode  # local import, see module docstring

    if setting.use_trq:
        assert setting.trq is not None
        return AdcConfig(
            resolution=resolution,
            mode=AdcMode.TWIN_RANGE,
            v_grid=setting.trq.delta_r1,
            trq=setting.trq,
        )
    assert setting.uniform_bits is not None and setting.uniform_delta is not None
    # A k-bit uniform sensing on an RADC-bit converter has LSB
    # ``v_grid · 2^(RADC − k)``; invert that to recover the register value.
    v_grid = setting.uniform_delta / (1 << (resolution - setting.uniform_bits))
    return AdcConfig(
        resolution=resolution,
        mode=AdcMode.UNIFORM,
        v_grid=v_grid,
        uniform_bits=setting.uniform_bits,
    )


def settings_to_adc_configs(
    settings: Dict[str, LayerAdcSetting], resolution: int = 8
) -> Dict[str, object]:
    """Vectorised version of :func:`setting_to_adc_config` over all layers."""
    return {name: setting_to_adc_config(s, resolution) for name, s in settings.items()}


def uniform_adc_configs(
    layer_samples: Dict[str, np.ndarray], bits: int, resolution: int = 8
) -> Dict[str, object]:
    """Range-calibrated uniform ADC configs (the Fig. 6a baseline).

    Each layer gets a ``bits``-bit uniform quantizer whose full scale matches
    the maximum bit-line value observed on the calibration set.
    """
    from repro.adc.config import uniform_config  # local import, see module docstring

    configs = {}
    for name, samples in layer_samples.items():
        samples = np.asarray(samples, dtype=np.float64)
        y_max = float(samples.max()) if samples.size else 1.0
        delta = y_max / ((1 << bits) - 1) if y_max > 0 else 1.0
        v_grid = delta / (1 << (resolution - bits))
        configs[name] = uniform_config(resolution=resolution, bits=bits, v_grid=v_grid)
    return configs


# --------------------------------------------------------------------- #
# the full pipeline
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class CoDesignResult:
    """Outcome of :meth:`CoDesignOptimizer.run`.

    ``evaluation`` is the full :class:`~repro.sim.stats.SimulationResult` of
    the final configuration (per-layer A/D operation counters included), so
    downstream consumers — the Fig. 6c per-layer table, the Fig. 7 power
    model — don't have to re-run the evaluation the optimizer already did.
    """

    calibration: CalibrationResult
    adc_configs: Dict[str, object]
    baseline_accuracy: float
    final_accuracy: float
    remaining_ops_fraction: float
    ops_reduction_factor: float
    evaluation_summary: Dict[str, float]
    evaluation: Optional[object] = None  # SimulationResult (lazy import type)

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.final_accuracy


class CoDesignOptimizer:
    """End-to-end co-design pipeline on top of a trained float model.

    Parameters
    ----------
    model:
        Trained float model (any :class:`repro.nn.Module` with Conv2d/Linear
        layers and non-negative MVM inputs).
    calibration_images:
        Small image set used for PTQ scaling, distribution collection and the
        search's accuracy oracle (the paper uses 32 training images).
    search_space, accuracy_threshold, ...:
        Forwarded to :class:`TwinRangeCalibrator`.
    chunk_size:
        MVMs per inner chunk of the simulator backing the accuracy oracle.
        ``None`` (default) selects the fast engine's adaptive per-layer
        throughput chunking
        (:func:`repro.sim.pim_layer.throughput_chunk_size`), which is what
        makes the outer accuracy-constrained loop of Algorithm 1 — one full
        evaluation per candidate ``Nmax`` — cheap enough to leave enabled.
    quantized:
        ``model`` already PTQ-quantized on ``calibration_images``; skips the
        (deterministic, hence identical) re-quantization.
    """

    def __init__(
        self,
        model,
        calibration_images: np.ndarray,
        calibration_labels: Optional[np.ndarray] = None,
        search_space: SearchSpaceConfig = DEFAULT_SEARCH_SPACE,
        accuracy_threshold: float = 0.01,
        min_n_max: int = 2,
        max_samples_per_layer: int = 16384,
        chunk_size: Optional[int] = None,
        distribution_capacity: int = DISTRIBUTION_CAPACITY,
        seed: int = CODESIGN_SEED,
        quantized=None,
    ) -> None:
        from repro.quantization.ptq import quantize_model  # local import
        from repro.sim.simulator import PimSimulator  # local import

        self.model = model
        self.calibration_images = np.asarray(calibration_images, dtype=np.float64)
        self.calibration_labels = (
            None if calibration_labels is None else np.asarray(calibration_labels)
        )
        self.search_space = search_space
        self.calibrator = TwinRangeCalibrator(
            search_space=search_space,
            accuracy_threshold=accuracy_threshold,
            min_n_max=min_n_max,
            max_samples_per_layer=max_samples_per_layer,
            seed=seed,
        )
        self.quantized = (
            quantized if quantized is not None
            else quantize_model(model, self.calibration_images)
        )
        self.simulator = PimSimulator(self.quantized, chunk_size=chunk_size)
        self.distribution_capacity = int(distribution_capacity)
        self._seed = int(seed)

    # ------------------------------------------------------------------ #
    def collect_distributions(
        self, batch_size: int = MAX_CAPTURE_BATCH
    ) -> Dict[str, np.ndarray]:
        """Bit-line value samples per layer on the calibration images."""
        return self.simulator.collect_bitline_distributions(
            self.calibration_images,
            batch_size=batch_size,
            capacity_per_layer=self.distribution_capacity,
            seed=self._seed,
        )

    def run(
        self,
        eval_images: Optional[np.ndarray] = None,
        eval_labels: Optional[np.ndarray] = None,
        batch_size: int = 16,
        use_accuracy_loop: bool = True,
        initial_n_max: Optional[int] = None,
        layer_samples: Optional[Dict[str, np.ndarray]] = None,
        baseline_accuracy: Optional[float] = None,
    ) -> CoDesignResult:
        """Execute the full co-design flow.

        Parameters
        ----------
        eval_images, eval_labels:
            Images used for the accuracy oracle and the final report; default
            to the calibration images/labels (the paper checks end-to-end
            accuracy on held-out data — pass the test split here for that).
        use_accuracy_loop:
            When False the outer Nmax loop is skipped (single iteration),
            which is much faster and useful for sweeps that fix Nmax via
            ``initial_n_max``.
        layer_samples, baseline_accuracy:
            Precomputed inputs that replace the run's own bit-line capture
            (:meth:`collect_distributions` at
            ``capture_batch_size(batch_size)``) and ideal-ADC baseline
            evaluation.  The result is bit-identical only if they come from
            the same PTQ model, images, batch size, reservoir capacity and
            seed as the computation they replace — and ``layer_samples``
            must keep the capture's layer order, because the search draws
            every layer's subsample from one RNG in that order.  ``None``
            (default) computes them here.
        """
        if eval_images is None:
            eval_images = self.calibration_images
            eval_labels = self.calibration_labels
        if eval_labels is None:
            raise ValueError("labels are required to evaluate accuracy")
        eval_images = np.asarray(eval_images, dtype=np.float64)
        eval_labels = np.asarray(eval_labels)

        resolution = self.search_space.adc_resolution
        if baseline_accuracy is None:
            baseline_accuracy = self.simulator.evaluate(
                eval_images, eval_labels, adc_configs=None, batch_size=batch_size
            ).accuracy
        logger.debug("baseline (ideal ADC) accuracy: %.4f", baseline_accuracy)

        if layer_samples is None:
            layer_samples = self.collect_distributions(
                batch_size=capture_batch_size(batch_size)
            )

        accuracy_fn = None
        if use_accuracy_loop:
            evaluator = self.simulator.accuracy_evaluator(
                eval_images, eval_labels, batch_size=batch_size
            )

            def accuracy_fn(settings: Dict[str, LayerAdcSetting]) -> float:
                return evaluator(settings_to_adc_configs(settings, resolution))

        calibration = self.calibrator.calibrate(
            layer_samples,
            accuracy_fn=accuracy_fn,
            baseline_accuracy=baseline_accuracy if use_accuracy_loop else None,
            initial_n_max=initial_n_max,
        )
        adc_configs = settings_to_adc_configs(calibration.settings, resolution)

        final = self.simulator.evaluate(
            eval_images, eval_labels, adc_configs=adc_configs, batch_size=batch_size
        )
        return CoDesignResult(
            calibration=calibration,
            adc_configs=adc_configs,
            baseline_accuracy=baseline_accuracy,
            final_accuracy=final.accuracy,
            remaining_ops_fraction=final.remaining_ops_fraction,
            ops_reduction_factor=final.ops_reduction_factor,
            evaluation_summary=final.summary(),
            evaluation=final,
        )
