"""Hand the C heap's free memory back to the operating system.

Training frees its step arrays all at once when the model leaves training
mode.  Whether glibc then returns those pages to the kernel depends on its
dynamic trim threshold, which follows the process's allocation history, so
the next phase would start from one of two resident-set floors.
:func:`release_heap` returns the free memory explicitly, once, through
glibc's ``malloc_trim(0)``.  It changes no allocator setting, and it does
nothing where the C library has no such function.
"""

from __future__ import annotations

import ctypes
import ctypes.util
from typing import Callable, Optional


def _malloc_trim() -> Optional[Callable[[int], int]]:
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or None)
        trim = libc.malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc (macOS, musl, Windows)
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_TRIM = _malloc_trim()


def release_heap() -> bool:
    """Return the heap's free pages to the OS; ``True`` if any were."""
    return bool(_TRIM(0)) if _TRIM is not None else False
