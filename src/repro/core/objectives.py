"""Objective functions of the co-design search (paper Eq. 9 and Eq. 10).

Algorithm 1 tunes each layer's ADC configuration with two coupled
objectives:

* **Energy** (Eq. 9) — the number of A/D operations needed to convert the
  calibration samples, including the per-conversion detection overhead
  ``ν``: ``eop · (N · ν + Σ_i N_A/D_ops,i)``.
* **Quantization error** (Eq. 10) — the MSE between the raw bit-line values
  and their TRQ reconstruction, used to pick the grid step ``Vgrid``.

These are pure functions over a weighted distribution — values and how
often each occurs (:func:`repro.core.distribution.histogram_values` of a
captured histogram; ones for a plain sample array) — so that the search can
evaluate hundreds of candidates cheaply and deterministically.  A captured
bit-line histogram holds a few dozen distinct values, however many were
observed.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.core.trq import TRQParams, classify_regions, twin_range_quantize
from repro.core.trq import uniform_reference_quantize


@dataclasses.dataclass(frozen=True)
class CandidateEvaluation:
    """Metrics of one candidate configuration evaluated on calibration samples."""

    params: Optional[TRQParams]
    uniform_bits: Optional[int]
    energy_ops: float
    mse: float
    mean_ops_per_conversion: float
    r1_fraction: float

    @property
    def is_uniform(self) -> bool:
        return self.params is None


def _weighted(values, counts) -> Tuple[np.ndarray, np.ndarray]:
    return np.asarray(values, dtype=np.float64), np.asarray(counts)


def _trq_operations(
    values: np.ndarray, counts: np.ndarray, params: TRQParams
) -> Tuple[float, int, int]:
    """Eq. 9 of a weighted distribution: ``(A/D operations, conversions,
    conversions resolved by R1)``."""
    n = int(counts.sum())
    num_r1 = int(counts[classify_regions(values, params)].sum())
    energy = n * params.detection_ops + num_r1 * params.n_r1 + (n - num_r1) * params.n_r2
    return float(energy), n, num_r1


def _mse(values: np.ndarray, counts: np.ndarray, reconstructed: np.ndarray) -> float:
    total = int(counts.sum())
    return float(counts @ (values - reconstructed) ** 2) / total if total else 0.0


def trq_energy_ops(values: np.ndarray, counts: np.ndarray, params: TRQParams) -> float:
    """Paper Eq. 9 without the ``eop`` constant: total A/D operations.

    ``N · ν`` detection operations plus ``NR1`` per dense-range sample and
    ``NR2`` per coarse-range sample; ``counts[i]`` samples hold ``values[i]``.
    """
    return _trq_operations(*_weighted(values, counts), params)[0]


def trq_mse(values: np.ndarray, counts: np.ndarray, params: TRQParams) -> float:
    """Paper Eq. 10: MSE of the TRQ reconstruction of the distribution."""
    values, counts = _weighted(values, counts)
    return _mse(values, counts, twin_range_quantize(values, params)[0])


def evaluate_trq_candidate(
    values: np.ndarray, counts: np.ndarray, params: TRQParams
) -> CandidateEvaluation:
    """Evaluate one twin-range candidate on the calibration distribution."""
    values, counts = _weighted(values, counts)
    energy, n, num_r1 = _trq_operations(values, counts, params)
    n = max(1, n)
    return CandidateEvaluation(
        params=params,
        uniform_bits=None,
        energy_ops=energy,
        mse=trq_mse(values, counts, params),
        mean_ops_per_conversion=energy / n,
        r1_fraction=num_r1 / n,
    )


def evaluate_uniform_candidate(
    values: np.ndarray, counts: np.ndarray, num_bits: int, delta: float
) -> CandidateEvaluation:
    """Evaluate the plain uniform quantizer Algorithm 1 compares against
    (line 23): ``num_bits`` operations per conversion, no detection phase."""
    values, counts = _weighted(values, counts)
    total = int(counts.sum())
    energy = float(total * num_bits)
    return CandidateEvaluation(
        params=None,
        uniform_bits=int(num_bits),
        energy_ops=energy,
        mse=_mse(values, counts, uniform_reference_quantize(values, num_bits, delta)),
        mean_ops_per_conversion=energy / max(1, total),
        r1_fraction=0.0,
    )


def select_candidate(
    trq: CandidateEvaluation,
    uniform: CandidateEvaluation,
    mse_tolerance: float = 0.05,
    mse_scale: float = 0.0,
) -> CandidateEvaluation:
    """Pick between the best TRQ candidate and the uniform fallback.

    The paper keeps whichever approach is "best" per layer (Algorithm 1 line
    23) without formalising the tie-break; the rule implemented here is:

    1. prefer the candidate with lower energy if its MSE is within the
       tolerance band of the other's — relative slack ``(1 + mse_tolerance)``
       plus an absolute slack ``mse_tolerance · mse_scale`` (``mse_scale`` is
       the mean squared magnitude of the calibration samples, so the band is
       meaningful even when the competitor's MSE is exactly zero);
    2. otherwise prefer the candidate with the lower MSE.

    Energy is the optimisation target once end-to-end accuracy is protected
    by Algorithm 1's outer loop, which is why a bounded amount of extra
    quantization error is accepted in exchange for fewer A/D operations.
    """
    if mse_tolerance < 0:
        raise ValueError(f"mse_tolerance must be non-negative, got {mse_tolerance}")
    if mse_scale < 0:
        raise ValueError(f"mse_scale must be non-negative, got {mse_scale}")
    lower_energy, other = (trq, uniform) if trq.energy_ops <= uniform.energy_ops else (uniform, trq)
    slack = (1.0 + mse_tolerance) * max(other.mse, 1e-12) + mse_tolerance * mse_scale
    if lower_energy.mse <= slack:
        return lower_energy
    return trq if trq.mse <= uniform.mse else uniform
