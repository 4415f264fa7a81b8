"""Chaos tests of :class:`RemoteExecutor` and its pluggable transports.

Every scenario asserts the one invariant that matters: whatever the
transport does to the dispatched shards — drop them, SIGKILL them,
duplicate them, delay them — the sweep's aggregate record and the main
store's ``*.json`` listing end up byte-identical to an undisturbed
serial run.  The chaos transports live in ``tests/harness/chaos.py``.

Pinned here:

* The happy path dispatches one shard manifest per round-robin group per
  wave and matches serial byte-for-byte.
* A dropped shard (exits with no result file) is re-dispatched; only
  when ``max_dispatches`` attempts all vanish does the shard report
  failures — and a later healthy run heals the store completely.
* A worker SIGKILLed mid-shard is re-dispatched and the final store is
  untouched by its partial writes.
* Duplicate execution is harmless: an unsupervised shadow copy of every
  shard races the supervised one against the same worker store.
* A straggling shard gets a backup attempt (the shared
  ``exceeds_gates`` threshold), the first result wins, the loser is
  terminated.
* An injected job failure inside a worker is absorbed into the main
  store's failure log with the worker's real traceback, dependents are
  marked failed-with-cause, and a rerun heals everything.
"""

from __future__ import annotations

import json

import pytest

from harness.chaos import (
    CountingTransport,
    DelayingTransport,
    DroppingTransport,
    DuplicatingTransport,
    KillingTransport,
    tiny_flat_sweep,
    tiny_mc_sweep,
)
from repro.experiments import (
    FailureLog,
    RemoteExecutor,
    ResultStore,
    ShardJobFailed,
    job_key,
    resolve_executor,
    run_sweep,
)
from repro.experiments import runner as runner_module

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

# Fast-failure knobs for tests: no straggler backups unless a test asks.
CALM = dict(straggler_factor=100.0, straggler_min_gap_s=3600.0)


def record_json(run) -> str:
    return json.dumps(run.record.to_dict(), sort_keys=True)


def store_listing(store: ResultStore):
    return {
        path.name: path.read_bytes()
        for path in sorted(store.root.glob("*.json"))
    }


@pytest.fixture(scope="module")
def weights_cache(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("weights"))


@pytest.fixture(autouse=True)
def _cold_runner():
    runner_module.clear_runner_memos()
    yield


@pytest.fixture(scope="module")
def serial_mc(tmp_path_factory, weights_cache):
    """(record json, store listing) of an undisturbed serial MC run."""
    runner_module.clear_runner_memos()
    store = ResultStore(tmp_path_factory.mktemp("serial-mc"))
    run = run_sweep(tiny_mc_sweep(), store, weights_cache_dir=weights_cache)
    return record_json(run), store_listing(store)


@pytest.fixture(scope="module")
def serial_flat(tmp_path_factory, weights_cache):
    """(record json, store listing) of an undisturbed serial flat run."""
    runner_module.clear_runner_memos()
    store = ResultStore(tmp_path_factory.mktemp("serial-flat"))
    run = run_sweep(tiny_flat_sweep(), store, weights_cache_dir=weights_cache)
    return record_json(run), store_listing(store)


def remote_mc(store, weights_cache, transport, trial_batch=1, **executor_kwargs):
    executor = RemoteExecutor(
        workers=2, transport=transport, **{**CALM, **executor_kwargs},
    )
    return run_sweep(
        tiny_mc_sweep(), store, weights_cache_dir=weights_cache,
        executor=executor, trial_batch=trial_batch,
    )


# --------------------------------------------------------------------- #
# Happy path
# --------------------------------------------------------------------- #
class TestHappyPath:
    def test_remote_matches_serial_byte_for_byte(
        self, tmp_path, weights_cache, serial_mc,
    ):
        store = ResultStore(tmp_path / "store")
        transport = CountingTransport()
        run = remote_mc(store, weights_cache, transport)
        assert (record_json(run), store_listing(store)) == serial_mc
        # Wave 1 (the shared clean reference) is one group; wave 2's two
        # Monte Carlo nodes round-robin into two groups of one.
        assert len(transport.submissions) == 3

    def test_remote_batches_monte_carlo_trials(
        self, tmp_path, weights_cache, serial_mc,
    ):
        """Remote manifests carry the sweep's ``trial_batch``: every Monte
        Carlo job runs batched, byte-identical to the per-trial serial run."""
        store = ResultStore(tmp_path / "store")
        run = remote_mc(store, weights_cache, CountingTransport(), trial_batch=3)
        assert (record_json(run), store_listing(store)) == serial_mc
        mc_jobs = [job for job in tiny_mc_sweep().expand() if job.kind == "monte_carlo"]
        assert mc_jobs
        for job in mc_jobs:
            meta = json.loads(store.meta_path(job_key(job)).read_text())
            assert meta["trial_batch"] == 3

    def test_resolve_executor_knows_remote(self):
        executor = resolve_executor("remote", workers=3)
        assert isinstance(executor, RemoteExecutor)
        assert executor.workers == 3
        with pytest.raises(ValueError):
            RemoteExecutor(workers=0)
        with pytest.raises(ValueError):
            RemoteExecutor(max_dispatches=0)


# --------------------------------------------------------------------- #
# Dropped and killed shards
# --------------------------------------------------------------------- #
class TestLostShards:
    def test_dropped_shard_is_redispatched(
        self, tmp_path, weights_cache, serial_mc,
    ):
        store = ResultStore(tmp_path / "store")
        transport = DroppingTransport(drop=1)
        run = remote_mc(store, weights_cache, transport)
        assert (record_json(run), store_listing(store)) == serial_mc
        assert transport.dropped == 1
        assert len(transport.submissions) == 4  # 3 shards + 1 retry

    def test_killed_worker_is_redispatched(
        self, tmp_path, weights_cache, serial_mc,
    ):
        store = ResultStore(tmp_path / "store")
        # Kill the first worker process 50ms in — during interpreter
        # startup, long before it can produce a result file.
        transport = KillingTransport(kill=1, delay_s=0.05)
        run = remote_mc(store, weights_cache, transport)
        assert (record_json(run), store_listing(store)) == serial_mc
        assert transport.killed == 1
        assert len(transport.submissions) == 4

    def test_exhausted_dispatches_report_failure_then_heal(
        self, tmp_path, weights_cache, serial_mc,
    ):
        store = ResultStore(tmp_path / "store")
        transport = DroppingTransport(drop=10_000)  # the void: lose all
        with pytest.raises(ShardJobFailed):
            remote_mc(store, weights_cache, transport, max_dispatches=2)
        assert transport.dropped == 2  # both attempts of wave 1's shard
        clean_key = job_key(tiny_mc_sweep().expand()[0])
        failures = FailureLog(store)
        assert failures.has(clean_key)

        # A healthy rerun recomputes the lost shard and clears the log.
        run = remote_mc(store, weights_cache, CountingTransport())
        assert (record_json(run), store_listing(store)) == serial_mc
        assert len(failures) == 0


# --------------------------------------------------------------------- #
# Duplicate and straggling shards
# --------------------------------------------------------------------- #
class TestDuplicatesAndStragglers:
    def test_shadow_duplicates_of_every_shard_are_harmless(
        self, tmp_path, weights_cache, serial_flat,
    ):
        store = ResultStore(tmp_path / "store")
        transport = DuplicatingTransport()
        executor = RemoteExecutor(workers=2, transport=transport, **CALM)
        run = run_sweep(
            tiny_flat_sweep(), store, weights_cache_dir=weights_cache,
            executor=executor,
        )
        assert (record_json(run), store_listing(store)) == serial_flat
        assert len(transport.submissions) == 2  # one wave, two shards

    def test_straggler_gets_a_backup_and_the_backup_wins(
        self, tmp_path, weights_cache, serial_flat,
    ):
        store = ResultStore(tmp_path / "store")
        # The second shard sleeps far longer than the sweep; only the
        # backup attempt can finish it.
        transport = DelayingTransport(delay_submission=1, delay_s=300.0)
        executor = RemoteExecutor(
            workers=2, transport=transport,
            straggler_factor=1.5, straggler_min_gap_s=0.1,
            poll_interval_s=0.02,
        )
        run = run_sweep(
            tiny_flat_sweep(), store, weights_cache_dir=weights_cache,
            executor=executor,
        )
        assert (record_json(run), store_listing(store)) == serial_flat
        assert len(transport.submissions) == 3  # 2 shards + 1 backup

    def test_force_redispatch_duplicates_every_shard(
        self, tmp_path, weights_cache, serial_mc,
    ):
        store = ResultStore(tmp_path / "store")
        transport = CountingTransport()
        run = remote_mc(store, weights_cache, transport, force_redispatch=True)
        assert (record_json(run), store_listing(store)) == serial_mc
        assert len(transport.submissions) == 6  # every shard twice


# --------------------------------------------------------------------- #
# Worker-side failures are absorbed with their real tracebacks
# --------------------------------------------------------------------- #
class TestFailureAbsorption:
    def test_injected_worker_failure_is_absorbed_then_healed(
        self, tmp_path, weights_cache, serial_mc,
    ):
        store = ResultStore(tmp_path / "store")
        executor = RemoteExecutor(workers=2, **CALM)
        run = run_sweep(
            tiny_mc_sweep(), store, weights_cache_dir=weights_cache,
            executor=executor, inject_failures=[0], max_failures=1,
        )
        # The clean reference failed inside the worker; its dependents
        # are failed-with-cause; the worker's traceback travelled home.
        failures = FailureLog(store)
        clean_key = job_key(tiny_mc_sweep().expand()[0])
        assert failures.has(clean_key)
        entry = failures.load(clean_key)
        assert "injected failure" in entry["error"]
        assert "injected failure" in entry["traceback"]
        dependents = [e for e in failures.load_all() if "cause_key" in e]
        assert {e["cause_key"] for e in dependents} == {clean_key}
        assert run.stats.failed == 3

        executor = RemoteExecutor(workers=2, **CALM)
        healed = run_sweep(
            tiny_mc_sweep(), store, weights_cache_dir=weights_cache,
            executor=executor,
        )
        assert (record_json(healed), store_listing(store)) == serial_mc
        assert len(failures) == 0
