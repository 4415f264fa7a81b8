"""Kernel threads: the fused kernel's continuous-noise blocks side by side.

The fused crossbar kernel converts continuous device noise in independent
(cycle, trial) blocks (:meth:`repro.crossbar.mapping.MappedMVMLayer.
_continuous_differences`).  Every block has its own keyed draw and writes
its own slice of the output, and the draws and conversions are numpy calls
that release the GIL, so the blocks run side by side on *lanes*
(:func:`run_lanes`): lane 0 is the calling thread, lanes ``1 … n − 1`` are
threads started for the call and joined before it returns.  No kernel
thread outlives a call, so a process forked between calls inherits none.

The thread budget is the number of CPUs the process may use
(:func:`available_cpus`).  A process that is one of ``N`` pool workers
(``--jobs N``) gets ``max(1, cpus // N)`` (:func:`init_pool_worker`); a
budget of 1 runs every block inline and never starts a thread.  Nothing
else sets it: no option, environment variable or constructor argument.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: How many processes share this process's CPUs: 1, or ``N`` in a
#: ``--jobs N`` pool worker (set by :func:`init_pool_worker`).
_sharers = 1


def available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one, else ``os.cpu_count()``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def thread_budget(sharers: int) -> int:
    """Kernel threads of each of ``sharers`` processes splitting the CPUs."""
    return max(1, available_cpus() // sharers)


def kernel_threads() -> int:
    """This process's kernel thread budget, the calling thread included."""
    return thread_budget(_sharers)


def init_pool_worker(jobs: int) -> None:
    """Process-pool initializer: one of ``jobs`` workers gets its share."""
    global _sharers
    _sharers = max(1, int(jobs))


def run_lanes(work: Callable[[int, T], R], items: Sequence[T], lanes: int) -> List[R]:
    """``[work(lane, item) for item in items]`` on ``lanes`` lanes.

    Lane ``k`` runs items ``k, k + lanes, …`` in order (the kernel's items
    are blocks of one size, so the static split balances them): lane 0 on
    the calling thread, every other lane on a thread started for this call.
    ``lane`` tells ``work`` which lane's scratch it may use.  The results
    come back in ``items`` order.  A lane stops at its first failed item,
    and every thread is joined before the earliest failed item's error is
    raised, so no straggler is left writing into memory the caller reuses.
    With one lane (or one item) the items run inline and no thread starts.
    """
    lanes = min(lanes, len(items))
    if lanes <= 1:
        return [work(0, item) for item in items]
    results: List[Optional[R]] = [None] * len(items)
    errors: Dict[int, BaseException] = {}

    def drain(lane: int) -> None:
        for index in range(lane, len(items), lanes):
            try:
                results[index] = work(lane, items[index])
            except BaseException as error:  # re-raised by the caller
                errors[index] = error
                return

    workers = [
        threading.Thread(target=drain, args=(lane,), name=f"repro-kernel-{lane}")
        for lane in range(1, lanes)
    ]
    for worker in workers:
        worker.start()
    try:
        drain(0)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[min(errors)]
    return results  # type: ignore[return-value]
