"""Pluggable array-ops backends for the fused simulation kernels.

The fused cycle/segment kernel (:mod:`repro.crossbar.mapping`) and its
batched Monte Carlo variant spend essentially all of their time in a handful
of array primitives: the per-segment matmul, the integer LUT gather
(``take``), the exact code histogram (``bincount``), the integer rounding /
clipping of quantized non-idealities, and the keyed Gaussian sampling of the
read-noise model.  This package routes those primitives through a small
:class:`ArrayOps` protocol so alternative implementations (torch today,
CuPy-style GPU backends later) can slot in underneath the simulator without
touching the kernels.

Tolerance contract
------------------
Only the ``numpy`` backend is the **bit-exactness oracle**: every
reproducibility guarantee in this repository — fast/reference engine parity,
batched-vs-loop Monte Carlo identity, the content-addressed store's hash
contract — is stated for numpy and enforced by the test suite.  Non-numpy
backends are held to an ``allclose`` contract instead (relative tolerance
``1e-6``, see :data:`BACKEND_RTOL`): on the integer-domain datapath they
generally reproduce numpy bit for bit (IEEE-754 arithmetic on exact small
integers), but this is *not* guaranteed across BLAS implementations, so
their results must never be written into a store that numpy runs share.
The experiments runner therefore records the active backend name in
telemetry/meta/history records so ``trace regress`` never compares across
backends silently.

Keyed sampling is **always** numpy-canonical: every stochastic draw in the
simulator is a pure function of derived seeds through numpy's PCG64 stream
(:func:`repro.utils.rng.new_rng`), and :meth:`ArrayOps.keyed_normal` of
every backend must delegate to that stream.  A backend that re-sampled on
its own RNG would silently change the hash-relevant artifact bytes.

Selection
---------
The active backend defaults to ``numpy`` and can be chosen with the
``REPRO_BACKEND`` environment variable (read once, lazily) or explicitly via
:func:`set_backend` (the experiments CLI exposes ``--backend``).  Backends
with missing dependencies (e.g. ``torch`` without torch installed) raise a
clear error only when actually selected.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.rng import new_rng

#: Relative tolerance of the non-numpy backend contract (see module docstring).
BACKEND_RTOL = 1e-6


class ArrayOps:
    """The primitive array operations a simulation backend must provide.

    All arguments and results are numpy ``ndarray``\\ s at the boundary:
    backends convert internally (the kernels keep their scratch-buffer and
    integer-domain logic backend-agnostic).  ``matmul``/``take`` write into
    ``out`` when given, matching the numpy calls they replace.
    """

    #: Registry key of the backend.
    name: str = ""
    #: Whether results are guaranteed bit-identical to the numpy oracle.
    bit_exact: bool = False

    def matmul(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError

    def take(
        self, table: np.ndarray, indices: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError

    def bincount(self, codes: np.ndarray, minlength: int = 0) -> np.ndarray:
        raise NotImplementedError

    def round_half_up(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def clip_min(self, values: np.ndarray, low: float) -> np.ndarray:
        raise NotImplementedError

    def keyed_normal(
        self,
        seed: int,
        sigma: float,
        shape: Tuple[int, ...],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """A keyed Gaussian draw — **numpy-canonical for every backend**.

        ``seed`` comes from :func:`repro.utils.rng.derive_seed`; the draw is
        ``new_rng(seed).normal(0, sigma, shape)`` bit for bit, regardless of
        backend, because the sampled values are part of the store's hash
        contract (see the module docstring).  ``out`` (C-contiguous float64
        of ``shape``) receives the draw instead of a fresh array:
        :func:`keyed_normal_into` fills it with the same values, signs of
        zeros included.
        """
        raise NotImplementedError


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


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
_FACTORIES: Dict[str, Callable[[], ArrayOps]] = {}
_ACTIVE: Optional[ArrayOps] = None


def register_backend(name: str, factory: Callable[[], ArrayOps]) -> None:
    """Register a backend factory under ``name`` (last registration wins)."""
    _FACTORIES[str(name)] = factory


def available_backends() -> List[str]:
    """Registered backend names (availability of deps is checked on select)."""
    return sorted(_FACTORIES)


def set_backend(name: Optional[str]) -> ArrayOps:
    """Select the active backend by name (``None`` resets to the default).

    Raises ``ValueError`` for unknown names and ``ImportError`` when the
    backend's optional dependency is missing — at selection time, with a
    message naming the dependency, never at import time.
    """
    global _ACTIVE
    if name is None:
        name = os.environ.get("REPRO_BACKEND", "numpy")
    name = str(name)
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown array backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        )
    _ACTIVE = factory()
    return _ACTIVE


def active_ops() -> ArrayOps:
    """The active :class:`ArrayOps` (lazily resolved from ``REPRO_BACKEND``)."""
    global _ACTIVE
    if _ACTIVE is None:
        set_backend(None)
    return _ACTIVE


def active_backend_name() -> str:
    """Name of the active backend (resolving lazily like :func:`active_ops`)."""
    return active_ops().name


# Built-ins.  numpy is imported eagerly (it is the package's own hard
# dependency and the default); torch stays behind a lazy factory so this
# module imports cleanly on machines without torch.
from repro.backend.numpy_ops import NumpyOps  # noqa: E402

register_backend("numpy", NumpyOps)


def _torch_factory() -> ArrayOps:
    from repro.backend.torch_ops import TorchOps  # lazy optional import

    return TorchOps()


register_backend("torch", _torch_factory)


__all__ = [
    "ArrayOps",
    "BACKEND_RTOL",
    "NumpyOps",
    "active_backend_name",
    "active_ops",
    "available_backends",
    "keyed_normal_into",
    "register_backend",
    "set_backend",
]
