"""A single ReRAM crossbar array.

The crossbar performs the analog MVM ``I_i = Σ_j G_ij · V_j`` along its bit
lines (paper Section II-A).  Two fidelity modes are provided:

* **ideal** — the bit-line value is the exact integer dot product of the
  input slice and the stored cell codes.  This is the default and matches
  the paper's assumption that all conversion error comes from the ADC.
* **analog** — cell codes are programmed into conductances (with optional
  variation), word-line voltages are applied, currents are summed and then
  re-normalised to "level" units so the rest of the datapath is unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.crossbar.cell import DEFAULT_CELL_CONFIG, CellConfig, ReRAMCellModel
from repro.crossbar.dac import DEFAULT_DAC_CONFIG, DacConfig, DacModel
from repro.utils.rng import SeedLike
from repro.utils.validation import check_in_range, check_integer


class CrossbarArray:
    """An ``S × S`` (rows × columns) array of ReRAM cells.

    Parameters
    ----------
    size:
        Number of word lines / bit lines (128 in the paper's evaluation).
    cell_config, dac_config:
        Device and DAC parameters.
    analog:
        Select the analog fidelity mode (see module docstring).
    """

    def __init__(
        self,
        size: int = 128,
        cell_config: CellConfig = DEFAULT_CELL_CONFIG,
        dac_config: DacConfig = DEFAULT_DAC_CONFIG,
        analog: bool = False,
        rng: SeedLike = None,
    ) -> None:
        check_integer(size, "size")
        check_in_range(size, "size", low=1)
        self.size = int(size)
        self.cell_config = cell_config
        self.dac_config = dac_config
        self.analog = bool(analog)
        self._cell_model = ReRAMCellModel(cell_config, rng=rng)
        self._dac = DacModel(dac_config)
        self._codes: Optional[np.ndarray] = None
        self._conductance: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def program(self, codes: np.ndarray) -> None:
        """Programme cell codes into the array.

        ``codes`` may be smaller than ``size × size``; the remaining cells are
        left at code 0 (off state), mirroring partially-used arrays at the
        edges of a layer mapping.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
        rows, cols = codes.shape
        if rows > self.size or cols > self.size:
            raise ValueError(
                f"codes of shape {codes.shape} do not fit a {self.size}x{self.size} array"
            )
        full = np.zeros((self.size, self.size), dtype=np.int64)
        full[:rows, :cols] = codes
        self._codes = full
        self._conductance = self._cell_model.code_to_conductance(full) if self.analog else None

    @property
    def codes(self) -> np.ndarray:
        if self._codes is None:
            raise RuntimeError("crossbar has not been programmed")
        return self._codes

    @property
    def utilisation(self) -> float:
        """Fraction of cells holding a non-zero code."""
        return float(np.count_nonzero(self.codes)) / float(self.size * self.size)

    # ------------------------------------------------------------------ #
    def bitline_values(self, input_slices: np.ndarray) -> np.ndarray:
        """Analog bit-line values for a batch of input slices.

        Parameters
        ----------
        input_slices:
            ``(batch, rows_used)`` or ``(rows_used,)`` array of DAC codes for
            the active word lines (unused rows are treated as zero).

        Returns
        -------
        values:
            ``(batch, size)`` array of bit-line results in *level* units (the
            exact integer dot product in ideal mode).
        """
        input_slices = np.atleast_2d(np.asarray(input_slices))
        batch, rows_used = input_slices.shape
        if rows_used > self.size:
            raise ValueError(
                f"input has {rows_used} rows but the array only has {self.size}"
            )
        padded = np.zeros((batch, self.size), dtype=np.float64)
        padded[:, :rows_used] = input_slices

        if not self.analog:
            return padded @ self.codes.astype(np.float64)

        voltages = self._dac.to_voltages(padded.astype(np.int64))
        conductance = self._conductance
        currents = voltages @ conductance
        # Re-normalise: one fully-on cell driven at full scale contributes one
        # "level"; subtract the off-state pedestal contributed by every driven
        # cell so the ideal and analog modes agree when non-idealities are off.
        v_read = self.dac_config.v_read
        span = self.cell_config.g_on - self.cell_config.g_off
        pedestal = voltages.sum(axis=1, keepdims=True) * self.cell_config.g_off
        per_level = (
            v_read
            * span
            / ((self.cell_config.levels - 1) * (self.dac_config.levels - 1))
        )
        return (currents - pedestal) / per_level
