"""Capture of bit-line value distributions (paper Fig. 3a).

The calibration search and the distribution figure both need the
distribution of the raw values appearing at the crossbar bit lines: the
ideal, pre-noise partial sums of 1-bit weight cells over DAC-sliced inputs,
exact integers in ``[0, max_bitline_value]``.  A full network produces
hundreds of millions of them even for a few images, but only a few dozen
distinct values, so the collector keeps one count vector per layer: entry
``v`` counts every occurrence of the value ``v``.  The datapath hands it
count vectors, never the values (the observer contract of
:mod:`repro.crossbar.mapping`), so nothing is subsampled, and the
histogram does not depend on the order in which counts arrive (engine,
batch size or chunking).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np


class DistributionCollector:
    """Per-layer histograms of bit-line values.

    An instance is handed to the PIM backend as the ``partial_observer``; the
    backend tags the count vectors with the active layer name via
    :meth:`set_layer`.
    """

    def __init__(self) -> None:
        self._histograms: Dict[str, np.ndarray] = {}
        self._active_layer: Optional[str] = None

    def set_layer(self, name: str) -> None:
        """Select which layer subsequent count vectors belong to."""
        self._active_layer = name
        self._histograms.setdefault(name, np.zeros(0, dtype=np.int64))

    def __call__(self, counts: np.ndarray) -> None:
        """Add one count vector (entry ``v`` counts the value ``v``).

        Trailing zeros are trimmed, so each histogram ends at the highest
        value observed in its layer.
        """
        if self._active_layer is None:
            raise RuntimeError("DistributionCollector used before set_layer()")
        counts = np.asarray(counts)
        if counts.ndim != 1 or (counts.size and counts.min() < 0):
            raise ValueError("expected a 1-D vector of non-negative counts")
        nonzero = np.flatnonzero(counts)
        size = int(nonzero[-1]) + 1 if nonzero.size else 0
        histogram = self._histograms[self._active_layer]
        if size > histogram.size:
            grown = counts[:size].astype(np.int64)
            grown[: histogram.size] += histogram
            self._histograms[self._active_layer] = grown
        else:
            histogram[:size] += counts[:size]

    # ------------------------------------------------------------------ #
    @property
    def layer_names(self) -> List[str]:
        return list(self._histograms)

    def histogram(self, layer: str) -> np.ndarray:
        """The count vector of ``layer``: entry ``v`` counts the value ``v``."""
        if layer not in self._histograms:
            raise KeyError(f"no bit-line values collected for layer '{layer}'")
        return self._histograms[layer]

    def histograms(self) -> Dict[str, np.ndarray]:
        """Every layer's count vector, in the order the layers ran."""
        return dict(self._histograms)
