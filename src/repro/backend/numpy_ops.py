"""The default numpy backend — the bit-exactness oracle.

Every method is the *very same* numpy call the fused kernels made before the
backend shim existed, so routing through this class changes nothing: outputs,
operation statistics and store artifact bytes are identical by construction.
All other backends are defined (and tested) against this one under the
``allclose`` tolerance contract documented in :mod:`repro.backend`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend import ArrayOps, keyed_normal_into
from repro.utils.numeric import round_half_up
from repro.utils.rng import new_rng


class NumpyOps(ArrayOps):
    name = "numpy"
    bit_exact = True

    def matmul(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return np.matmul(a, b, out=out) if out is not None else np.matmul(a, b)

    def take(
        self, table: np.ndarray, indices: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return np.take(table, indices, out=out)

    def bincount(self, codes: np.ndarray, minlength: int = 0) -> np.ndarray:
        return np.bincount(codes, minlength=minlength)

    def round_half_up(self, values: np.ndarray) -> np.ndarray:
        return round_half_up(values)

    def clip_min(self, values: np.ndarray, low: float) -> np.ndarray:
        return np.maximum(values, low)

    def keyed_normal(
        self,
        seed: int,
        sigma: float,
        shape: Tuple[int, ...],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if out is not None:
            return keyed_normal_into(seed, sigma, out)
        return new_rng(seed).normal(0.0, sigma, size=shape)
