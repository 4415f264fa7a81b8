"""ReRAM cell behavioural model.

The paper's evaluation uses single-bit cells with device parameters from a
fabricated memristor CNN chip [19].  Because no physical device is available
here, the cell is modelled behaviourally: a cell stores a small integer code
and presents a conductance on a linear grid between ``g_off`` and ``g_on``;
optional log-normal programming variation and additive read noise reproduce
the dominant analog non-idealities.  The default (ideal) configuration keeps
the datapath integer-exact, matching the paper's accuracy evaluation which
attributes all error to ADC quantization.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_in_range, check_integer, check_positive


@dataclasses.dataclass(frozen=True)
class CellConfig:
    """Device parameters of one ReRAM cell.

    Attributes
    ----------
    bits_per_cell:
        ``Rcell`` — number of bits one cell stores (1 in the paper's setup).
    g_on, g_off:
        On/off conductance in Siemens; defaults follow the ~µS-range devices
        of [19] with an on/off ratio of 50.
    programming_sigma:
        Relative log-normal programming variation (0 disables it).  For
        datapath simulations this knob is realised by
        ``repro.nonideal.NonIdealityStack.from_cell_config``, which maps it
        to a keyed :class:`~repro.nonideal.ConductanceVariation` model.
    read_noise_sigma:
        Relative additive Gaussian read noise per access (0 disables it);
        mapped to a relative :class:`~repro.nonideal.GaussianReadNoise` by
        ``from_cell_config``.
    """

    bits_per_cell: int = 1
    g_on: float = 100e-6
    g_off: float = 2e-6
    programming_sigma: float = 0.0
    read_noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        check_integer(self.bits_per_cell, "bits_per_cell")
        check_in_range(self.bits_per_cell, "bits_per_cell", low=1, high=4)
        check_positive(self.g_on, "g_on")
        check_positive(self.g_off, "g_off")
        if self.g_on <= self.g_off:
            raise ValueError("g_on must exceed g_off")
        check_in_range(self.programming_sigma, "programming_sigma", low=0.0)
        check_in_range(self.read_noise_sigma, "read_noise_sigma", low=0.0)

    @property
    def levels(self) -> int:
        """Number of programmable conductance levels."""
        return 1 << self.bits_per_cell

    @property
    def on_off_ratio(self) -> float:
        return self.g_on / self.g_off

    @property
    def is_ideal(self) -> bool:
        """True when no stochastic non-ideality is configured."""
        return self.programming_sigma == 0.0 and self.read_noise_sigma == 0.0


DEFAULT_CELL_CONFIG = CellConfig()


class ReRAMCellModel:
    """Maps cell codes to conductances and back, with optional non-idealities.

    The ``programming_sigma`` / ``read_noise_sigma`` draws here serve only
    the standalone :class:`repro.crossbar.array.CrossbarArray` analog mode.
    Datapath simulations realise those knobs as keyed :mod:`repro.nonideal`
    models (``NonIdealityStack.from_cell_config(config)``), which keep the
    fast and reference engines bit-identical.
    """

    def __init__(
        self,
        config: CellConfig = DEFAULT_CELL_CONFIG,
        rng: SeedLike = None,
    ) -> None:
        self.config = config
        self._rng = new_rng(rng)

    def code_to_conductance(self, codes: np.ndarray) -> np.ndarray:
        """Programme integer codes into conductances (with variation if set)."""
        codes = np.asarray(codes)
        if codes.size and (codes.min() < 0 or codes.max() >= self.config.levels):
            raise ValueError(
                f"cell codes must be in [0, {self.config.levels - 1}], "
                f"got range [{codes.min()}, {codes.max()}]"
            )
        span = self.config.g_on - self.config.g_off
        conductance = self.config.g_off + codes.astype(np.float64) * span / (
            self.config.levels - 1
        )
        if self.config.programming_sigma > 0.0:
            variation = self._rng.lognormal(
                mean=0.0, sigma=self.config.programming_sigma, size=conductance.shape
            )
            conductance = conductance * variation
        return conductance

    def read_currents(self, conductance: np.ndarray, voltages: np.ndarray) -> np.ndarray:
        """Ohm's law per cell (``I = G·V``) with optional read noise."""
        currents = conductance * voltages
        if self.config.read_noise_sigma > 0.0:
            noise = self._rng.normal(
                0.0, self.config.read_noise_sigma * np.abs(currents).max(initial=0.0) or 1e-30,
                size=currents.shape,
            )
            currents = currents + noise
        return currents

    def effective_levels_from_conductance(self, conductance: np.ndarray) -> np.ndarray:
        """Invert :meth:`code_to_conductance` to fractional level values."""
        span = self.config.g_on - self.config.g_off
        return (conductance - self.config.g_off) * (self.config.levels - 1) / span
