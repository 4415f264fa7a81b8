"""Deterministic random-number-generation helpers.

Every stochastic component in the library (dataset synthesis, weight
initialisation, device variation, sampling of calibration images) accepts
either an integer seed or a :class:`numpy.random.Generator`.  The helpers in
this module centralise how seeds are turned into generators and how child
seeds are derived, so that a single top-level seed makes an entire experiment
reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 0x5EED


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` uses a fixed library-wide default (experiments are
        reproducible out of the box), an ``int`` seeds a fresh PCG64
        generator, and an existing ``Generator`` is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be None, int or Generator, got {type(seed)!r}")
    return np.random.default_rng(int(seed))


def derive_seed(base_seed: int, *labels: Union[str, int]) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    The derivation is a stable hash, so the same ``(base_seed, labels)`` pair
    always yields the same child seed across processes and Python versions
    (unlike ``hash()``).  Use this to give independent streams to e.g. each
    layer's weight initialisation or each dataset split.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "little")


def keyed_normal_into(seed: int, sigma: float, out: np.ndarray) -> np.ndarray:
    """``new_rng(seed).normal(0, sigma, out.shape)`` drawn into ``out``.

    numpy computes each normal deviate as ``0.0 + sigma · z`` from the same
    standard-normal stream ``standard_normal(out=...)`` fills, so scaling in
    place and adding ``0.0`` (which turns ``−0.0`` into ``+0.0``) reproduces
    it bit for bit without allocating.
    """
    new_rng(seed).standard_normal(out=out)
    out *= sigma
    out += 0.0
    return out


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators from ``seed``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = new_rng(seed)
    seq = np.random.SeedSequence(root.integers(0, 2**63 - 1))
    return [np.random.default_rng(child) for child in seq.spawn(count)]


class RngMixin:
    """Mixin providing a lazily-created ``self.rng`` generator.

    Classes that occasionally need randomness (device variation, sampling)
    inherit from this mixin and call :meth:`_init_rng` in ``__init__``.
    """

    _rng: Optional[np.random.Generator] = None

    def _init_rng(self, seed: SeedLike = None) -> None:
        self._rng = new_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The generator backing this object's randomness."""
        if self._rng is None:
            self._rng = new_rng(None)
        return self._rng

    def reseed(self, seed: SeedLike) -> None:
        """Replace the generator, e.g. to replay a stochastic component."""
        self._rng = new_rng(seed)


def choice_without_replacement(
    rng: np.random.Generator, population: int, size: int
) -> np.ndarray:
    """Sample ``size`` distinct indices from ``range(population)``.

    Raises ``ValueError`` when ``size`` exceeds the population, which is a
    common silent bug when a calibration set is larger than the dataset.
    """
    if size > population:
        raise ValueError(
            f"cannot sample {size} items without replacement from {population}"
        )
    return rng.choice(population, size=size, replace=False)


def stable_shuffle(rng: np.random.Generator, items: Iterable) -> list:
    """Return a shuffled copy of ``items`` (the input is never mutated)."""
    items = list(items)
    order = rng.permutation(len(items))
    return [items[i] for i in order]
