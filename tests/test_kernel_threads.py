"""Kernel threads (:mod:`repro.utils.threads`).

The fused kernel's continuous-noise blocks run on lanes: the calling thread
plus threads started for the call.  These tests pin the contract the kernel
relies on — results in item order, a static split of the items over the
lanes, every thread joined before an error is raised or the call returns,
no thread at a budget of one and never more than the budget — and the
budget rules (the CPUs the process may use, ``max(1, cpus // N)`` in each
of ``N`` pool workers).  No kernel thread outlives a call, so a process
forked between calls (a ``--jobs N`` pool worker) inherits none.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.experiments.executors import ProcessPoolExecutor
from repro.utils import threads

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture()
def started_threads(monkeypatch):
    """Every thread started during the test, in start order."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threads.threading, "Thread", Recorded)
    return started


class TestRunLanes:
    @pytest.mark.parametrize("lanes", [1, 2, 3, 5])
    def test_results_come_back_in_item_order(self, lanes):
        items = list(range(9))

        def work(lane, item):
            time.sleep(0.001 * (item % 3))
            return item * item

        assert threads.run_lanes(work, items, lanes) == [item * item for item in items]

    @pytest.mark.parametrize("lanes", [2, 3, 4])
    def test_lane_k_runs_items_k_mod_lanes_in_order(self, lanes):
        items = list(range(11))
        seen = {}
        threads.run_lanes(lambda lane, item: seen.setdefault(lane, []).append(item),
                          items, lanes)
        assert seen == {lane: items[lane::lanes] for lane in range(lanes)}

    def test_every_item_runs_once_under_contention(self):
        """More lanes than cores and a tiny switch interval: the lanes write
        their results into one list side by side, yet each item runs
        exactly once and lands in its slot."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                seen = []
                items = list(range(200))
                results = threads.run_lanes(
                    lambda lane, item: seen.append(item) or (item, lane), items, 6
                )
                assert sorted(seen) == items
                assert results == [(item, item % 6) for item in items]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_lanes_run_side_by_side_on_lanes_minus_one_new_threads(
        self, lanes, started_threads
    ):
        """Each lane's first item waits for every other lane's: they only
        all get there if ``lanes`` threads run at once — the caller as lane
        0 and exactly ``lanes − 1`` threads started for the call."""
        barrier = threading.Barrier(lanes, timeout=10.0)
        caller = threading.get_ident()

        def work(lane, item):
            if item < lanes:
                barrier.wait()
            return lane, threading.get_ident()

        ran_on = threads.run_lanes(work, list(range(3 * lanes)), lanes)
        owners = {}
        for lane, ident in ran_on:
            owners.setdefault(lane, set()).add(ident)
        assert owners[0] == {caller}
        others = [idents for lane, idents in owners.items() if lane]
        assert len(others) == lanes - 1 and all(len(idents) == 1 for idents in others)
        assert len(set.union(*owners.values())) == lanes
        assert len(started_threads) == lanes - 1

    def test_no_thread_outlives_the_call(self, started_threads):
        """The calling thread's lane finishes first, yet the call returns
        only once the slower lanes' threads have ended."""
        before = threading.active_count()

        def work(lane, item):
            time.sleep(0.05 if lane else 0.0)
            return item

        for lanes in (2, 3):
            assert threads.run_lanes(work, list(range(6)), lanes) == list(range(6))
            assert threading.active_count() == before
        assert len(started_threads) == 3
        assert not any(thread.is_alive() for thread in started_threads)

    @pytest.mark.parametrize("lanes,items", [(1, 4), (4, 1), (3, 0)])
    def test_one_lane_or_item_runs_inline_and_starts_no_thread(
        self, lanes, items, started_threads
    ):
        caller = threading.get_ident()
        ran_on = threads.run_lanes(lambda lane, item: (lane, threading.get_ident()),
                                   list(range(items)), lanes)
        assert ran_on == [(0, caller)] * items
        assert started_threads == []

    def test_errors_wait_for_every_lane(self, started_threads):
        """The earliest failed item's error is raised only after the item
        the other lane is still running has finished; a lane stops at its
        first failure (lane 0 runs 0, 2, 4 and lane 1 runs 1, 3, 5)."""
        started, finished = [], []
        failed = threading.Event()

        def work(lane, item):
            started.append(item)
            if item == 1:
                failed.wait(5.0)  # the slow item keeps lane 1 busy
                time.sleep(0.05)
                finished.append(item)
                return item
            failed.set()
            raise ValueError(f"item {item}")

        with pytest.raises(ValueError, match="^item 0$"):
            threads.run_lanes(work, list(range(6)), 2)
        assert finished == [1]
        assert sorted(started) == [0, 1, 3]
        assert not any(thread.is_alive() for thread in started_threads)


class TestBudget:
    def test_available_cpus_is_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert threads.available_cpus() == len(os.sched_getaffinity(0))
        else:
            assert threads.available_cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("jobs,budget", [(1, 4), (2, 2), (3, 1), (4, 1), (8, 1)])
    def test_a_pool_worker_gets_its_share(self, jobs, budget, monkeypatch):
        monkeypatch.setattr(threads, "available_cpus", lambda: 4)
        monkeypatch.setattr(threads, "_sharers", 1)
        assert threads.kernel_threads() == 4
        threads.init_pool_worker(jobs)
        assert threads.kernel_threads() == threads.thread_budget(jobs) == budget

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_jobs_n_workers_run_on_cpus_over_n(self, jobs, monkeypatch):
        """Each ``--jobs N`` worker's budget is ``max(1, cpus // N)``; the
        forked workers see this process's 4 CPUs."""
        monkeypatch.setattr(threads, "available_cpus", lambda: 4)
        with ProcessPoolExecutor(max_workers=jobs) as executor:
            budgets = {
                executor._pool.submit(threads.kernel_threads).result(timeout=60)
                for _ in range(2 * jobs)
            }
            assert executor.kernel_threads == max(1, 4 // jobs)
        assert budgets == {max(1, 4 // jobs)}
