"""Layer-by-layer parameter search (paper Algorithm 1).

Given per-layer histograms of the bit-line values (captured by the simulator
on a small calibration set), the calibrator

1. classifies each layer's distribution (Section IV-B),
2. sweeps the grid-step candidates ``Vgrid`` and the legal twin-range
   parameters, minimising the energy objective Eq. 9 per grid and selecting
   the grid with minimum reconstruction MSE (Eq. 10),
3. compares the winning twin-range setting against a plain uniform quantizer
   with the same bit budget (Algorithm 1 line 23), and
4. runs an outer accuracy-constrained loop that lowers the bit-budget cap
   ``Nmax`` until the end-to-end accuracy drop would exceed the threshold
   ``θ``, then keeps the last acceptable configuration.

The module is deliberately independent of the simulator: it consumes plain
count vectors (or, per layer, weighted ``(values, counts)`` distributions)
and an opaque accuracy callback, which keeps it unit-testable on synthetic
distributions and avoids import cycles.  A histogram holds every value the
capture saw, so the search reads the whole calibration set, in a few dozen
distinct values per layer, with no subsampling.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.distribution import (
    DistributionSummary,
    histogram_values,
    summarize_distribution,
)
from repro.core.objectives import (
    CandidateEvaluation,
    evaluate_trq_candidate,
    evaluate_uniform_candidate,
    select_candidate,
)
from repro.core.search_space import (
    DEFAULT_SEARCH_SPACE,
    SearchSpaceConfig,
    candidate_params,
    uniform_fallback_bits,
    uniform_step,
    v_grid_candidates,
)
from repro.core.trq import TRQParams
from repro.utils.logging import get_logger
from repro.utils.validation import check_in_range, check_integer

logger = get_logger("core.calibration")


@dataclasses.dataclass(frozen=True)
class LayerAdcSetting:
    """The decision Algorithm 1 makes for one layer.

    Either a twin-range configuration (``use_trq=True`` with ``trq`` set) or a
    plain uniform quantizer of ``uniform_bits`` bits with step
    ``uniform_delta``.
    """

    use_trq: bool
    trq: Optional[TRQParams] = None
    uniform_bits: Optional[int] = None
    uniform_delta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.use_trq and self.trq is None:
            raise ValueError("use_trq=True requires trq parameters")
        if not self.use_trq and (self.uniform_bits is None or self.uniform_delta is None):
            raise ValueError("uniform setting requires uniform_bits and uniform_delta")

    @property
    def sensing_bits(self) -> int:
        """Worst-case payload bits produced per conversion."""
        if self.use_trq:
            assert self.trq is not None
            return max(self.trq.n_r1, self.trq.n_r2)
        assert self.uniform_bits is not None
        return self.uniform_bits


@dataclasses.dataclass
class LayerCalibrationResult:
    """Everything the search learned about one layer."""

    name: str
    setting: LayerAdcSetting
    summary: DistributionSummary
    trq_evaluation: Optional[CandidateEvaluation]
    uniform_evaluation: Optional[CandidateEvaluation]
    selected_evaluation: CandidateEvaluation

    @property
    def predicted_mean_ops(self) -> float:
        return self.selected_evaluation.mean_ops_per_conversion

    @property
    def predicted_mse(self) -> float:
        return self.selected_evaluation.mse


@dataclasses.dataclass
class CalibrationResult:
    """Output of the full Algorithm 1 run."""

    layers: Dict[str, LayerCalibrationResult]
    n_max: int
    baseline_accuracy: Optional[float]
    final_accuracy: Optional[float]
    accuracy_history: List[Tuple[int, float]] = dataclasses.field(default_factory=list)

    @property
    def settings(self) -> Dict[str, LayerAdcSetting]:
        return {name: result.setting for name, result in self.layers.items()}

    @property
    def mean_predicted_ops(self) -> float:
        if not self.layers:
            return 0.0
        return float(np.mean([r.predicted_mean_ops for r in self.layers.values()]))

    def predicted_remaining_fraction(self, baseline_ops: int) -> float:
        """Calibration-set estimate of the Fig. 6c metric."""
        if baseline_ops <= 0:
            raise ValueError("baseline_ops must be positive")
        if not self.layers:
            return 0.0
        return self.mean_predicted_ops / baseline_ops


AccuracyFn = Callable[[Dict[str, LayerAdcSetting]], float]


class TwinRangeCalibrator:
    """Runs Algorithm 1 over a set of layers.

    Parameters
    ----------
    search_space:
        Candidate-generation knobs (``α``, ``β``, ``C``, M range...).
    accuracy_threshold:
        ``θ`` — maximum tolerated end-to-end accuracy drop (absolute).
    min_n_max:
        Lowest bit budget the outer loop will try.
    mse_tolerance:
        Slack used when arbitrating between TRQ and the uniform fallback.
    """

    def __init__(
        self,
        search_space: SearchSpaceConfig = DEFAULT_SEARCH_SPACE,
        accuracy_threshold: float = 0.01,
        min_n_max: int = 2,
        mse_tolerance: float = 0.05,
    ) -> None:
        check_in_range(accuracy_threshold, "accuracy_threshold", low=0.0)
        check_in_range(check_integer(min_n_max, "min_n_max"), "min_n_max", low=1)
        self.search_space = search_space
        self.accuracy_threshold = float(accuracy_threshold)
        self.min_n_max = int(min_n_max)
        self.mse_tolerance = float(mse_tolerance)

    # ------------------------------------------------------------------ #
    # per-layer search
    # ------------------------------------------------------------------ #
    @staticmethod
    def _energy_ops_sorted(
        values: List[float], cumulative: List[int], params: TRQParams
    ) -> float:
        """Eq. 9 evaluated with two binary searches on the ascending
        ``values``; ``cumulative[i]`` counts the conversions of the values
        before ``values[i]`` (``cumulative[-1]`` is their total).  Plain
        lists: a histogram holds a few dozen values, so the search costs
        less than a NumPy call."""
        n = cumulative[-1]
        lo = bisect.bisect_left(values, params.r1_low)
        hi = bisect.bisect_left(values, params.r1_high)
        num_r1 = cumulative[hi] - cumulative[lo]
        num_r2 = n - num_r1
        return float(n * params.detection_ops + num_r1 * params.n_r1 + num_r2 * params.n_r2)

    def calibrate_layer(
        self, values: np.ndarray, counts: np.ndarray, n_max: int
    ) -> Tuple[DistributionSummary, Optional[CandidateEvaluation], CandidateEvaluation]:
        """Search the best twin-range and uniform settings for one layer.

        ``values`` and ``counts`` are the layer's bit-line distribution: each
        value and how often it occurs (positive counts;
        :func:`~repro.core.distribution.histogram_values` of a captured
        histogram, or ones for a plain sample).  Returns ``(summary,
        best_trq_evaluation, uniform_evaluation)``; the TRQ evaluation is
        ``None`` only for degenerate (empty) distributions.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        counts = np.asarray(counts).ravel()
        if counts.shape != values.shape:
            raise ValueError(f"{counts.size} counts for {values.size} values")
        if values.size == 0:
            raise ValueError("cannot calibrate a layer with no bit-line samples")
        # The binary searches of Eq. 9 read the values in ascending order.
        order = np.argsort(values, kind="stable")
        values, counts = values[order], counts[order]
        summary = summarize_distribution(values, counts)
        sorted_values = values.tolist()
        cumulative = [0] + np.cumsum(counts).tolist()

        best_overall: Optional[CandidateEvaluation] = None
        for v_grid in v_grid_candidates(summary.maximum, self.search_space):
            # Inner minimisation (Eq. 9): pick the candidate with the fewest
            # A/D operations for this grid step; energy only needs the R1
            # population, so it is evaluated with binary searches.
            best_params: Optional[TRQParams] = None
            best_energy = np.inf
            for params in candidate_params(summary, values, float(v_grid), n_max,
                                           self.search_space):
                energy = self._energy_ops_sorted(sorted_values, cumulative, params)
                if energy < best_energy:
                    best_energy = energy
                    best_params = params
            if best_params is None:
                continue
            # Outer selection (Eq. 10): across grids, keep the minimum-MSE
            # one.  MSEs that differ only by float rounding (relative 1e-12:
            # a sum over distinct values and one over every sample round
            # differently) tie, and the tie goes to fewer A/D operations,
            # then to the earlier grid.
            evaluation = evaluate_trq_candidate(values, counts, best_params)
            if best_overall is None or (
                evaluation.energy_ops < best_overall.energy_ops
                if np.isclose(evaluation.mse, best_overall.mse, rtol=1e-12, atol=0.0)
                else evaluation.mse < best_overall.mse
            ):
                best_overall = evaluation

        bits, delta = uniform_fallback_bits(values, v_grid=1.0, n_max=n_max)
        uniform_evaluation = evaluate_uniform_candidate(values, counts, bits, delta)
        return summary, best_overall, uniform_evaluation

    def _layer_result(
        self, name: str, values: np.ndarray, counts: np.ndarray, n_max: int
    ) -> LayerCalibrationResult:
        summary, trq_eval, uniform_eval = self.calibrate_layer(values, counts, n_max)
        if trq_eval is None:
            selected = uniform_eval
        else:
            # Arbitrate on relative MSE only: a candidate may win on energy
            # only if its reconstruction error is essentially as good as the
            # other's.  (An absolute slack via ``mse_scale`` is available for
            # callers that want a more aggressive energy-first policy, but the
            # layer-level default stays conservative — the outer loop of
            # Algorithm 1 is the place where accuracy is deliberately traded.)
            selected = select_candidate(trq_eval, uniform_eval, self.mse_tolerance)
        if selected.is_uniform:
            setting = LayerAdcSetting(
                use_trq=False,
                uniform_bits=selected.uniform_bits,
                uniform_delta=uniform_step(summary.maximum, selected.uniform_bits),
            )
        else:
            setting = LayerAdcSetting(use_trq=True, trq=selected.params)
        return LayerCalibrationResult(
            name=name,
            setting=setting,
            summary=summary,
            trq_evaluation=trq_eval,
            uniform_evaluation=uniform_eval,
            selected_evaluation=selected,
        )

    # ------------------------------------------------------------------ #
    # outer accuracy-constrained loop
    # ------------------------------------------------------------------ #
    def calibrate(
        self,
        layer_histograms: Dict[str, np.ndarray],
        accuracy_fn: Optional[AccuracyFn] = None,
        baseline_accuracy: Optional[float] = None,
        initial_n_max: Optional[int] = None,
    ) -> CalibrationResult:
        """Run the full search over all layers.

        Parameters
        ----------
        layer_histograms:
            Mapping of layer name to its bit-line histogram: entry ``v``
            counts the occurrences of the value ``v`` (the ``np.bincount``
            vectors :meth:`repro.sim.PimSimulator.collect_bitline_distributions`
            returns).
        accuracy_fn:
            End-to-end accuracy oracle taking the per-layer settings; when
            omitted the outer loop runs exactly one iteration at the initial
            ``Nmax`` (useful for unit tests and quick sweeps).
        baseline_accuracy:
            Reference accuracy used for the drop check; required when
            ``accuracy_fn`` is given.
        initial_n_max:
            Starting bit budget; defaults to ``RADC − 1`` (Algorithm 1 line 1).
        """
        if not layer_histograms:
            raise ValueError("layer_histograms is empty")
        if accuracy_fn is not None and baseline_accuracy is None:
            raise ValueError("baseline_accuracy is required when accuracy_fn is given")

        resolution = self.search_space.adc_resolution
        n_max = initial_n_max if initial_n_max is not None else resolution - 1
        check_in_range(check_integer(n_max, "initial_n_max"), "initial_n_max",
                       low=self.min_n_max, high=resolution)

        distributions = {
            name: histogram_values(histogram) for name, histogram in layer_histograms.items()
        }
        accepted: Optional[Tuple[int, Dict[str, LayerCalibrationResult], Optional[float]]] = None
        history: List[Tuple[int, float]] = []

        while n_max >= self.min_n_max:
            layers = {
                name: self._layer_result(name, values, counts, n_max)
                for name, (values, counts) in distributions.items()
            }
            if accuracy_fn is None:
                accepted = (n_max, layers, None)
                break
            accuracy = accuracy_fn({name: r.setting for name, r in layers.items()})
            history.append((n_max, accuracy))
            logger.debug("Nmax=%d -> accuracy %.4f", n_max, accuracy)
            drop = (baseline_accuracy or 0.0) - accuracy
            if drop > self.accuracy_threshold:
                # Accuracy constraint violated: keep the previous (acceptable)
                # configuration, or this one if even the first try violates it
                # (Algorithm 1 terminates here either way).
                if accepted is None:
                    accepted = (n_max, layers, accuracy)
                break
            accepted = (n_max, layers, accuracy)
            n_max -= 1

        assert accepted is not None
        final_n_max, final_layers, final_accuracy = accepted
        return CalibrationResult(
            layers=final_layers,
            n_max=final_n_max,
            baseline_accuracy=baseline_accuracy,
            final_accuracy=final_accuracy,
            accuracy_history=history,
        )
