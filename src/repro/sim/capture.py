"""Capture of bit-line value distributions (paper Fig. 3a).

The calibration search and the distribution figure both need the
distribution of the raw values appearing at the crossbar bit lines.  Every
block the collector observes holds ideal, pre-noise partial sums of 1-bit
weight cells over DAC-sliced inputs (the datapath's observer contract, see
:mod:`repro.crossbar.mapping`): exact integers in ``[0,
max_bitline_value]``.  A full network produces hundreds of millions of them
even for a few images, but only a few dozen distinct values, so the
collector keeps one ``np.bincount`` count vector per layer: entry ``v``
counts every occurrence of the value ``v``.  Nothing is subsampled, and the
histogram does not depend on the order in which blocks arrive (engine,
batch size or chunking).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np


class DistributionCollector:
    """Per-layer histograms of bit-line values.

    An instance is handed to the PIM backend as the ``partial_observer``; the
    backend tags blocks with the active layer name via :meth:`set_layer`.
    """

    def __init__(self) -> None:
        self._histograms: Dict[str, np.ndarray] = {}
        self._active_layer: Optional[str] = None

    def set_layer(self, name: str) -> None:
        """Select which layer subsequent blocks belong to."""
        self._active_layer = name
        self._histograms.setdefault(name, np.zeros(0, dtype=np.int64))

    def __call__(self, values: np.ndarray) -> None:
        if self._active_layer is None:
            raise RuntimeError("DistributionCollector used before set_layer()")
        # Exact integers by the observer contract; a negative value raises.
        counts = np.bincount(np.asarray(values).astype(np.intp).ravel())
        histogram = self._histograms[self._active_layer]
        if counts.size > histogram.size:
            counts[: histogram.size] += histogram
            self._histograms[self._active_layer] = counts
        else:
            histogram[: counts.size] += counts

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
