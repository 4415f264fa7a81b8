"""Fault-injection tests of the concurrent :class:`ResultStore`.

Driven by the reusable harness in ``tests/harness/chaos.py``.  The
contracts pinned here:

* **Write storms** — eight uncoordinated writer processes (five clean,
  three SIGKILLed at distinct points inside the commit protocol) leave a
  store whose ``*.json`` artifacts are byte-identical to a single serial
  writer's, with every NPZ sibling loadable; the only debris is staged
  ``.*.tmp-<pid>-*`` files, which :meth:`ResultStore.sweep_stale_tmps`
  removes exactly when the owning pid is dead.
* **Locking** — ``save`` and ``delete`` really serialise on the store's
  ``fcntl`` lock (a thread blocks while another holder is inside
  ``lock.held()``), and a key that is already committed is never
  re-committed (first-writer-wins, observable via the inode).
* **Crash-resume** — a real sweep SIGKILLed at the worst instant (NPZ
  published, JSON completion marker not, lock held) leaves every JSON
  document parseable, and a resumed run produces an aggregate record and
  store listing byte-identical to an undisturbed serial run.
* **Key stability** — ``job_key`` is invariant across processes and
  across arbitrary re-orderings of the spec's dict representation, the
  property the whole multi-writer story rests on.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from harness.chaos import (
    storm_arrays,
    storm_key,
    storm_payload,
    tiny_flat_sweep,
    tiny_mc_sweep,
    write_storm,
)
from repro.experiments import JobSpec, ResultStore, job_key, run_sweep
from repro.experiments import runner as runner_module

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

HARNESS = Path(__file__).parent / "harness" / "chaos.py"
SIGKILLED = -9


def _lock_required(store: ResultStore) -> None:
    if not store.lock.available:  # pragma: no cover - non-POSIX platforms
        pytest.skip("store locking unavailable on this platform")


def harness_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not extra else os.pathsep.join([src, extra])
    return env


def spawn_harness(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HARNESS), *argv],
        env=harness_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


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


# --------------------------------------------------------------------- #
# The 8-process write storm (with three SIGKILLed writers)
# --------------------------------------------------------------------- #
class TestWriteStorm:
    ITEMS = 12

    def test_storm_with_sigkills_leaves_a_serial_identical_store(self, tmp_path):
        store = ResultStore(tmp_path / "storm")
        _lock_required(store)
        items = str(self.ITEMS)

        # First, one writer dies at the worst instant: item 6's NPZ
        # published, its JSON completion marker not, the fcntl lock held
        # by the dying pid.  (It runs alone so the kill — which only
        # fires when this process wins the commit — is deterministic.)
        torn = spawn_harness(
            "storm", str(store.root), "--items", items,
            "--seed", "7", "--kill", "torn_pair", "--kill-item", "6",
        )
        assert torn.wait(timeout=120) == SIGKILLED
        assert store.npz_path(storm_key(6)).exists()
        assert not store.has(storm_key(6))

        # Then storm the wounded store: five clean writers plus two more
        # that SIGKILL themselves mid-stage.  They must acquire the dead
        # writer's lock (the kernel released it) and finish the job.
        workers = [
            spawn_harness("storm", str(store.root), "--items", items,
                          "--seed", str(seed))
            for seed in range(5)
        ] + [
            spawn_harness("storm", str(store.root), "--items", items,
                          "--seed", "5", "--kill", "mid_tmp", "--kill-item", "3"),
            spawn_harness("storm", str(store.root), "--items", items,
                          "--seed", "6", "--kill", "pre_commit", "--kill-item", "5"),
        ]
        codes = [proc.wait(timeout=120) for proc in workers]
        assert codes[:5] == [0] * 5, [p.communicate() for p in workers[:5]]
        assert codes[5:] == [SIGKILLED] * 2

        # Byte-identical to one undisturbed serial writer.
        reference = ResultStore(tmp_path / "reference")
        write_storm(reference, self.ITEMS, seed=99)
        assert store_listing(store) == store_listing(reference)

        # Every NPZ sibling is complete and loadable — no torn pair.
        for item in range(self.ITEMS):
            arrays = store.load_arrays(storm_key(item))
            expected = storm_arrays(item)
            if expected is None:
                assert arrays == {}
            else:
                np.testing.assert_array_equal(arrays["data"], expected["data"])

        # The dead writers' staging files are the only debris, and the
        # sweep removes all of them (their pids are gone).
        debris = list(store.root.glob(".*.tmp-*"))
        assert debris
        removed = store.sweep_stale_tmps()
        assert sorted(removed) == sorted(debris)
        assert list(store.root.glob(".*.tmp-*")) == []

    def test_store_stays_readable_while_a_storm_runs(self, tmp_path):
        """Readers take no lock: every observed artifact parses mid-storm."""
        store = ResultStore(tmp_path / "storm")
        _lock_required(store)
        workers = [
            spawn_harness("storm", str(store.root), "--items", "12",
                          "--seed", str(seed))
            for seed in range(3)
        ]
        observed = 0
        while any(proc.poll() is None for proc in workers):
            for path in list(store.root.glob("*.json")):
                payload = json.loads(path.read_text())
                assert payload["key"] == path.stem
                observed += 1
        assert all(proc.wait(timeout=60) == 0 for proc in workers)
        assert len(store) == 12


# --------------------------------------------------------------------- #
# The lock really serialises save/delete
# --------------------------------------------------------------------- #
class TestStoreLock:
    def test_save_blocks_until_the_lock_is_released(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        _lock_required(store)
        key = storm_key(0)
        committed = threading.Event()
        writer = threading.Thread(
            target=lambda: (store.save(key, storm_payload(0)), committed.set()),
        )
        with store.lock.held():
            writer.start()
            assert not committed.wait(0.3)
            assert not store.has(key)
        writer.join(timeout=30)
        assert committed.is_set()
        assert store.load(key) == storm_payload(0)

    def test_delete_blocks_until_the_lock_is_released(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        _lock_required(store)
        key = storm_key(2)
        store.save(key, storm_payload(2), storm_arrays(2))
        deleted = threading.Event()
        deleter = threading.Thread(
            target=lambda: (store.delete(key), deleted.set()),
        )
        with store.lock.held():
            deleter.start()
            assert not deleted.wait(0.3)
            assert store.has(key)  # delete is waiting, pair still whole
            assert store.npz_path(key).exists()
        deleter.join(timeout=30)
        assert deleted.is_set()
        assert not store.has(key)
        assert not store.npz_path(key).exists()

    def test_committed_keys_are_never_recommitted(self, tmp_path):
        """First-writer-wins: a racing save discards its staging."""
        store = ResultStore(tmp_path / "s")
        key = storm_key(4)
        store.save(key, storm_payload(4), storm_arrays(4))
        inode = os.stat(store.json_path(key)).st_ino
        store.save(key, storm_payload(4), storm_arrays(4))
        assert os.stat(store.json_path(key)).st_ino == inode
        assert list(store.root.glob(".*.tmp-*")) == []


# --------------------------------------------------------------------- #
# Stale-staging sweep
# --------------------------------------------------------------------- #
class TestSweepStaleTmps:
    def test_only_dead_writers_staging_is_removed(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        dead = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(dead.stdout)
        stale = store.root / f".{storm_key(0)}.json.tmp-{dead_pid}-0"
        live = store.root / f".{storm_key(1)}.json.tmp-{os.getpid()}-0"
        foreign = store.root / ".not-a-staging-file"
        for path in (stale, live, foreign):
            path.write_bytes(b"{}")
        removed = store.sweep_stale_tmps()
        assert removed == [stale]
        assert not stale.exists()
        assert live.exists() and foreign.exists()

    def test_sweeps_meta_and_failures_directories_too(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        dead = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(dead.stdout)
        (store.root / "meta").mkdir()
        (store.root / "failures").mkdir()
        tmps = [
            store.root / "meta" / f".{storm_key(0)}.json.tmp-{dead_pid}-1",
            store.root / "failures" / f".{storm_key(0)}.json.tmp-{dead_pid}-2",
        ]
        for path in tmps:
            path.write_bytes(b"{}")
        assert sorted(store.sweep_stale_tmps()) == sorted(tmps)


# --------------------------------------------------------------------- #
# Crash-resume of a real sweep (SIGKILL at the worst instant)
# --------------------------------------------------------------------- #
class TestCrashResume:
    def test_torn_pair_kill_then_resume_is_byte_identical(
        self, tmp_path, weights_cache,
    ):
        serial_store = ResultStore(tmp_path / "serial")
        _lock_required(serial_store)
        serial = run_sweep(
            tiny_mc_sweep(), serial_store, weights_cache_dir=weights_cache,
        )

        # The chaos run dies inside the locked commit: NPZ published,
        # JSON completion marker not, fcntl lock held by the dying pid.
        crashed_root = tmp_path / "crashed"
        proc = spawn_harness(
            "sweep", str(crashed_root), "--cache", weights_cache,
            "--kill", "torn_pair",
        )
        assert proc.wait(timeout=300) == SIGKILLED, proc.communicate()

        crashed = ResultStore(crashed_root)
        # No torn JSON: every committed document parses.
        for key in crashed.keys():
            assert crashed.load(key)["key"] == key
        # The kill tore a pair: some NPZ exists without its JSON marker.
        orphans = [
            path for path in crashed.root.glob("*.npz")
            if not crashed.has(path.stem)
        ]
        assert orphans

        runner_module.clear_runner_memos()
        resumed = run_sweep(
            tiny_mc_sweep(), crashed, weights_cache_dir=weights_cache,
        )
        serial_record = json.dumps(serial.record.to_dict(), sort_keys=True)
        resumed_record = json.dumps(resumed.record.to_dict(), sort_keys=True)
        assert resumed_record == serial_record
        assert store_listing(crashed) == store_listing(serial_store)
        assert list(crashed.root.glob(".*.tmp-*")) == []


# --------------------------------------------------------------------- #
# job_key stability across processes and dict orderings
# --------------------------------------------------------------------- #
def _shuffled(obj, rng: random.Random):
    if isinstance(obj, dict):
        items = [(key, _shuffled(value, rng)) for key, value in obj.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(obj, list):
        return [_shuffled(value, rng) for value in obj]
    return obj


class TestJobKeyStability:
    def test_keys_survive_subprocess_roundtrip_and_dict_shuffles(self):
        jobs = tiny_mc_sweep().expand() + tiny_flat_sweep().expand()
        assert len(jobs) >= 6
        expected, shuffled_dicts = [], []
        for seed in range(12):
            rng = random.Random(seed)
            for job in jobs:
                expected.append(job_key(job))
                shuffled_dicts.append(_shuffled(job.to_dict(), rng))

        # The shuffle must not round-trip to a different spec in-process...
        for spec_dict, key in zip(shuffled_dicts, expected):
            assert job_key(JobSpec.from_dict(spec_dict)) == key

        # ...nor hash differently in a fresh interpreter.
        proc = subprocess.run(
            [sys.executable, str(HARNESS), "hash"],
            input=json.dumps(shuffled_dicts),
            env=harness_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == expected
