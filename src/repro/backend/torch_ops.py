"""Optional torch backend (CPU tensors over zero-copy numpy views).

Importing this module requires torch; the registry only imports it when the
``torch`` backend is actually selected, so the rest of the package works on
machines without torch installed.

Contract: results satisfy ``np.allclose(torch_result, numpy_result,
rtol=repro.backend.BACKEND_RTOL)`` — see the tolerance contract in
:mod:`repro.backend`.  On the integer-domain datapath (exact small-integer
operands in float32/float64) torch's CPU kernels normally reproduce numpy
bit for bit, but only the numpy backend *guarantees* it; the keyed sampling
(:meth:`TorchOps.keyed_normal`) stays numpy-canonical by delegating to the
same PCG64 stream, because sampled noise feeds hash-relevant artifacts.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised only where torch is installed
    import torch
except ImportError as error:  # pragma: no cover
    raise ImportError(
        "the 'torch' array backend requires torch to be installed; "
        "install torch or select REPRO_BACKEND=numpy"
    ) from error

from repro.backend import ArrayOps, keyed_normal_into
from repro.utils.numeric import round_half_up
from repro.utils.rng import new_rng


def _tensor(array: np.ndarray) -> "torch.Tensor":
    # ``from_numpy`` is zero-copy for contiguous arrays; fall back to a copy
    # for strided views (torch rejects negative strides).
    return torch.from_numpy(np.ascontiguousarray(array))


class TorchOps(ArrayOps):
    name = "torch"
    bit_exact = False

    def matmul(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        result = torch.matmul(_tensor(a), _tensor(b)).numpy()
        if out is not None:
            np.copyto(out, result)
            return out
        return result

    def take(
        self, table: np.ndarray, indices: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        gathered = torch.take(
            _tensor(table), _tensor(np.asarray(indices, dtype=np.int64))
        ).numpy()
        if out is not None:
            np.copyto(out, gathered, casting="same_kind")
            return out
        return gathered

    def bincount(self, codes: np.ndarray, minlength: int = 0) -> np.ndarray:
        return torch.bincount(
            _tensor(np.asarray(codes, dtype=np.int64)), minlength=int(minlength)
        ).numpy()

    def round_half_up(self, values: np.ndarray) -> np.ndarray:
        # torch.floor matches numpy's; reuse the shared exact formula on a
        # tensor round-trip to keep the semantics identical.
        return round_half_up(np.asarray(values))

    def clip_min(self, values: np.ndarray, low: float) -> np.ndarray:
        return torch.clamp(_tensor(np.asarray(values)), min=low).numpy()

    def keyed_normal(
        self,
        seed: int,
        sigma: float,
        shape: Tuple[int, ...],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        # Numpy-canonical by contract: sampled noise is hash-relevant.
        if out is not None:
            return keyed_normal_into(seed, sigma, out)
        return new_rng(seed).normal(0.0, sigma, size=shape)
