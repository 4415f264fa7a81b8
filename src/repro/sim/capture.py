"""Capture of bit-line value distributions (paper Fig. 3a).

The calibration search and the distribution figure both need samples of the
raw analog values appearing at the crossbar bit lines.  A full network
produces hundreds of millions of such values even for a few images, so the
collector keeps a bounded reservoir per layer: every incoming block is
subsampled with a decaying acceptance probability such that the retained set
is an (approximately) uniform sample of everything seen.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.utils.rng import SeedLike, derive_seed, new_rng
from repro.utils.validation import check_in_range, check_integer


class ReservoirSampler:
    """Bounded uniform subsample of a stream of arrays."""

    def __init__(self, capacity: int = 100_000, seed: SeedLike = None) -> None:
        check_in_range(check_integer(capacity, "capacity"), "capacity", low=1)
        self.capacity = int(capacity)
        self._rng = new_rng(seed)
        self._chunks: List[np.ndarray] = []
        self._stored = 0
        self.total_seen = 0

    def add(self, values: np.ndarray) -> None:
        """Offer a block of values to the reservoir.

        Only what is kept is cast to float64 (one copy), and uniform
        subsamples are selected with a boolean mask in stream order rather
        than by sorting the drawn indices.
        """
        values = np.asarray(values).ravel()
        if values.size == 0:
            return
        self.total_seen += values.size
        remaining = self.capacity - self._stored
        if remaining >= values.size:
            self._chunks.append(values.astype(np.float64))
            self._stored += values.size
            return
        # Keep the acceptance rate proportional to capacity / total_seen so
        # early and late blocks end up equally represented.
        rate = self.capacity / self.total_seen
        mask = self._rng.random(values.size) < rate
        accepted = values[mask].astype(np.float64)
        if accepted.size == 0:
            return
        if accepted.size > self.capacity:
            # A block much larger than everything seen so far can be accepted
            # almost wholesale; clamp it to the capacity bound by a uniform
            # subsample before it displaces the current reservoir.
            keep = self._rng.choice(accepted.size, size=self.capacity, replace=False)
            accepted = accepted[_selection_mask(accepted.size, keep)]
        if self._stored + accepted.size > self.capacity:
            # Evict uniformly to make room.
            current = self.values
            keep = self._rng.choice(
                current.size, size=self.capacity - accepted.size, replace=False
            )
            self._chunks = [current[_selection_mask(current.size, keep)]]
            self._stored = self._chunks[0].size
        self._chunks.append(accepted)
        self._stored += accepted.size

    @property
    def values(self) -> np.ndarray:
        """Everything currently retained (concatenated copy)."""
        if not self._chunks:
            return np.empty(0, dtype=np.float64)
        if len(self._chunks) > 1:
            merged = np.concatenate(self._chunks)
            self._chunks = [merged]
        return self._chunks[0]

    def __len__(self) -> int:
        return self._stored


def _selection_mask(size: int, indices: np.ndarray) -> np.ndarray:
    """Boolean mask set at ``indices`` (distinct): indexing with it keeps the
    same elements, in the same order, as indexing with ``np.sort(indices)``."""
    mask = np.zeros(size, dtype=bool)
    mask[indices] = True
    return mask


class DistributionCollector:
    """Per-layer reservoirs of bit-line values.

    An instance is handed to the PIM backend as the ``partial_observer``; the
    backend tags blocks with the active layer name via :meth:`set_layer`.
    """

    def __init__(self, capacity_per_layer: int = 100_000, seed: SeedLike = None) -> None:
        self.capacity_per_layer = int(capacity_per_layer)
        self._seed = seed
        self._samplers: Dict[str, ReservoirSampler] = {}
        self._active_layer: Optional[str] = None

    def set_layer(self, name: str) -> None:
        """Select which layer subsequent blocks belong to."""
        self._active_layer = name
        if name not in self._samplers:
            self._samplers[name] = ReservoirSampler(
                self.capacity_per_layer, seed=self._layer_seed(name)
            )

    def _layer_seed(self, name: str) -> SeedLike:
        """Derive a per-layer seed so layers subsample *independently*.

        Handing every layer the same seed would make all reservoirs draw
        identical acceptance streams (correlated subsampling across layers);
        deriving a child seed per layer name keeps the overall collection
        reproducible while decorrelating the layers.
        """
        if isinstance(self._seed, np.random.Generator):
            return int(self._seed.integers(0, 2**63 - 1))
        base = 0 if self._seed is None else int(self._seed)
        return derive_seed(base, "collector", name)

    def __call__(self, values: np.ndarray) -> None:
        if self._active_layer is None:
            raise RuntimeError("DistributionCollector used before set_layer()")
        self._samplers[self._active_layer].add(values)

    # ------------------------------------------------------------------ #
    @property
    def layer_names(self) -> List[str]:
        return list(self._samplers)

    def samples(self, layer: str) -> np.ndarray:
        if layer not in self._samplers:
            raise KeyError(f"no samples collected for layer '{layer}'")
        return self._samplers[layer].values

    def all_samples(self) -> Dict[str, np.ndarray]:
        return {name: sampler.values for name, sampler in self._samplers.items()}

    def total_seen(self, layer: str) -> int:
        return self._samplers[layer].total_seen if layer in self._samplers else 0
