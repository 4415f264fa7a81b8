"""Content-addressed result store (and its failure log).

**What addresses a result.**  Every atomic job's address is the SHA-256 of
its canonical resolved spec (:meth:`repro.experiments.spec.JobSpec.resolved`)
plus the *code-version salt*.  A stored result is therefore invalidated —
i.e. a fresh address is computed and the old artifact is simply never
looked up again — by editing **any input the job kind consumes**: the
workload fingerprint (model preset structure, dataset shape, training
budget, seed), the evaluation size/batching, the ADC configuration
(including a ``uniform_calibrated`` spec's capture parameters), the noise
scenario models/seed, trial counts, calibration knobs, distribution capture
parameters, resolved power-model constants — or the salt itself.  What can
*never* invalidate a result: labels and other reporting metadata, or fields
the kind does not consume (a calibration job's engine, a uniform spec's TRQ
knobs).  The salt bumps whenever the semantics of stored results change — a
new package version, a result-schema revision — so stale artifacts are
never served across incompatible code; CI keys its ``actions/cache`` of the
store on the same salt.

Artifacts are a JSON document (``<key>.json``: the job spec, the salt, and
the aggregate row) plus an optional NPZ sibling (``<key>.npz``) for exact
float arrays — the clean reference's logits and the Fig. 3 bit-line samples
travel this way so restored objects are bit-identical to the originals.
Writes are atomic (temp file + ``os.replace``), so a sweep killed mid-write
never leaves a truncated artifact for ``--resume`` to trip over.

**Concurrent writers.**  Multiple *uncoordinated* processes may write one
store: every commit (artifact pair, ``meta/`` sidecar, failure entry,
force-delete) happens under an advisory ``fcntl`` write lock on
``<store>/.lock`` (:class:`StoreLock`).  The lock scopes the *commit*, not
the computation — temp files are staged outside it, so writers only
serialise for the instant of the rename.  Because artifacts are
content-addressed, two writers racing on one key stage **identical
bytes**; the commit protocol keeps the first committed copy and discards
the loser's staging (last-writer-wins would be equally correct — the
winner's identity is unobservable).  The NPZ sibling and its JSON
completion marker commit under a single lock hold, so no reader ever
observes a JSON document whose arrays are missing, and ``delete`` takes
the same lock so a force-delete cannot interleave with a commit and leave
a half-deleted key.  ``fcntl`` locks die with their process (including
``SIGKILL``), so a crashed writer never wedges the store — at worst it
leaves a stale ``.*.tmp-<pid>-*`` staging file, swept by
:meth:`ResultStore.sweep_stale_tmps` once the owning pid is gone.  On
platforms without ``fcntl`` the lock degrades to a no-op and the store
keeps the historical single-coordinator contract.

**Failures.**  A job that raises leaves *no* artifact (the store only ever
sees completed results); instead the runner records the exception and its
traceback in a :class:`FailureLog` persisted next to the artifacts
(``<store>/failures/<key>.json``).  ``python -m repro.experiments show``
surfaces logged failures, and a later successful run of the same key clears
its entry.
"""

from __future__ import annotations

import contextlib
import datetime
import itertools
import json
import os
import traceback as traceback_module
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

try:  # POSIX advisory locking; degrades to a no-op elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import repro
from repro.experiments.spec import JobSpec
from repro.utils.config import stable_digest

#: Bump when the stored result schema (payload layout, row fields) changes.
#: v2: figure-pipeline kinds (distribution/power, datapaths, calibrated
#: uniform ADCs) and per-layer data in calibration payloads.
RESULT_SCHEMA_VERSION = 2


def code_version_salt() -> str:
    """The salt folded into every job address (and the CI cache key)."""
    return f"{repro.__version__}/schema-v{RESULT_SCHEMA_VERSION}"


def job_key(job: JobSpec, salt: Optional[str] = None) -> str:
    """Stable content address of one fully-resolved job."""
    return stable_digest(
        {"salt": salt if salt is not None else code_version_salt(),
         "job": job.resolved()},
        length=0,  # full 64-hex digest
    )


#: Name of the advisory lock file at a store's root.
LOCK_FILENAME = ".lock"

#: Distinguishes staged temp files from concurrent writers in one process
#: (threads, nested stores); the pid in the name distinguishes processes.
_TMP_COUNTER = itertools.count()


class StoreLock:
    """Advisory cross-process write lock over one store root.

    A thin context manager around ``fcntl.flock(LOCK_EX)`` on
    ``<root>/.lock``.  Each acquisition opens its own file descriptor, so
    the lock is safe to take from multiple threads of one process as well
    as from unrelated processes; the kernel releases it when the holder's
    descriptor closes — including on ``SIGKILL`` — so a dead writer can
    never wedge the store.  Readers take no lock: artifact commits are
    atomic renames, so a reader either sees a complete artifact or none.

    On platforms without ``fcntl`` (:attr:`available` is ``False``)
    :meth:`held` yields without locking and the store falls back to the
    historical single-coordinating-process contract.
    """

    def __init__(self, root: Union[str, Path], name: str = LOCK_FILENAME) -> None:
        self.path = Path(root) / name

    @property
    def available(self) -> bool:
        """Whether real cross-process locking is in effect."""
        return fcntl is not None

    @contextlib.contextmanager
    def held(self) -> Iterator[bool]:
        """Hold the exclusive lock for the duration of the ``with`` body.

        Yields ``True`` when the lock is really held, ``False`` on
        platforms where locking is unavailable.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield False
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield True
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _stage_tmp(path: Path, writer) -> Path:
    """Write ``path``'s future content to a uniquely-named sibling temp file.

    The name encodes the writing pid (for :meth:`sweep_stale_tmps`) plus a
    process-local counter (so threads never collide), and starts with a dot
    so no artifact glob ever matches it.
    """
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}-{next(_TMP_COUNTER)}")
    try:
        with open(tmp, "wb") as handle:
            writer(handle)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return tmp


def _tmp_owner_pid(path: Path) -> Optional[int]:
    """The pid encoded in a staged temp file's name (``None`` if foreign)."""
    try:
        return int(path.name.rsplit(".tmp-", 1)[1].split("-")[0])
    except (IndexError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


class ResultStore:
    """JSON/NPZ artifacts under one root directory, addressed by job key.

    Safe for concurrent cross-process writers: see the module docstring's
    *Concurrent writers* contract and :class:`StoreLock`.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.lock = StoreLock(self.root)

    # ------------------------------------------------------------------ #
    def json_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def has(self, key: str) -> bool:
        return self.json_path(key).exists()

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------ #
    def save(
        self,
        key: str,
        payload: Dict[str, object],
        arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> Path:
        """Atomically persist one job's payload (and optional exact arrays).

        The NPZ sibling commits first so a reader that sees the JSON
        document (the completion marker) always finds its arrays; both
        commits happen under **one** hold of the store's write lock, so a
        concurrent writer or force-delete can never interleave between
        them.  When another writer committed this key while we were
        staging, the staged copies are discarded: content addressing
        guarantees the committed bytes are identical to ours, so keeping
        the first commit and keeping the last are the same store.
        """
        path = self.json_path(key)
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        staged: List[tuple] = []
        try:
            if arrays:
                staged.append((
                    _stage_tmp(
                        self.npz_path(key),
                        lambda handle: np.savez_compressed(handle, **arrays),
                    ),
                    self.npz_path(key),
                ))
            staged.append((
                _stage_tmp(path, lambda handle: handle.write(text.encode("utf-8"))),
                path,
            ))
            with self.lock.held():
                if not self.has(key):
                    for tmp, target in staged:
                        self._commit(tmp, target)
                    staged = []
        finally:
            for tmp, _ in staged:  # writer raised, or we lost the race
                tmp.unlink(missing_ok=True)
        return path

    def load(self, key: str) -> Dict[str, object]:
        return json.loads(self.json_path(key).read_text())

    def load_arrays(self, key: str) -> Dict[str, np.ndarray]:
        path = self.npz_path(key)
        if not path.exists():
            return {}
        with np.load(path) as data:
            return {name: data[name] for name in data.files}

    def delete(self, key: str) -> None:
        """Remove one key's artifacts (JSON marker first, under the lock).

        Taking the write lock makes a concurrent ``--force`` delete and a
        racing commit serialise: either the commit lands first and the
        delete removes the whole pair, or the delete wins and the commit
        re-creates the pair — never a half-deleted key (a JSON document
        whose NPZ sibling is gone).
        """
        with self.lock.held():
            for path in (self.json_path(key), self.npz_path(key), self.meta_path(key)):
                path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    def meta_path(self, key: str) -> Path:
        return self.root / "meta" / f"{key}.json"

    def save_meta(self, key: str, meta: Dict[str, object]) -> Path:
        """Atomically persist a job's *non-hashed* execution metadata.

        Meta sidecars live under ``<store>/meta/`` — outside the artifact
        namespace — so they never participate in content addressing and
        never perturb the byte-identity of the ``<key>.json`` payloads
        (serial/process/sharded runs compare store roots byte-for-byte).
        Recording how a result was produced (``duration_s``, ``worker``)
        must not change what was produced.
        """
        path = self.meta_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(meta, indent=2, sort_keys=True)
        self._atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))
        return path

    def load_meta(self, key: str) -> Dict[str, object]:
        """The key's execution metadata (``{}`` when none was recorded)."""
        path = self.meta_path(key)
        if not path.exists():
            return {}
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError:
            return {}

    def sweep_stale_tmps(self) -> List[Path]:
        """Remove staging files abandoned by dead writers; returns them.

        A writer killed mid-stage (e.g. ``SIGKILL`` before its commit)
        leaves a ``.*.tmp-<pid>-*`` file behind.  Those never corrupt the
        store — commits are renames of *complete* temp files — but they
        accumulate, so sweeps call this at startup.  Only files whose
        owning pid is gone are removed; a live writer's staging is left
        alone.  Runs under the lock so a sweep cannot race a commit.
        """
        removed: List[Path] = []
        with self.lock.held():
            for directory in (self.root, self.root / "meta", self.root / "failures"):
                if not directory.is_dir():
                    continue
                for tmp in directory.glob(".*.tmp-*"):
                    pid = _tmp_owner_pid(tmp)
                    if pid is not None and pid != os.getpid() and not _pid_alive(pid):
                        tmp.unlink(missing_ok=True)
                        removed.append(tmp)
        return removed

    # ------------------------------------------------------------------ #
    def _commit(self, tmp: Path, path: Path) -> None:
        """Publish one staged temp file (call with the lock held)."""
        os.replace(tmp, path)

    def _atomic_write(self, path: Path, writer) -> None:
        tmp = _stage_tmp(path, writer)
        with self.lock.held():
            self._commit(tmp, path)


class FailureLog:
    """Per-job failure records persisted next to a store's artifacts.

    One JSON file per failed job key under ``<store>/failures/``, holding
    the job spec, the error and its full traceback.  Entries are written
    atomically (a crash while logging a crash never corrupts the log) and
    cleared when the same key later completes successfully, so the log
    always reflects the *current* set of unresolved failures.  Record and
    clear both take the owning store's write lock (the same ``.lock`` the
    artifact commits use), so uncoordinated workers logging failures
    serialise with commits and with each other.
    """

    def __init__(self, store: Union[ResultStore, str, Path]) -> None:
        root = store.root if isinstance(store, ResultStore) else Path(store)
        self.root = root / "failures"
        self.lock = (
            store.lock if isinstance(store, ResultStore) else StoreLock(root)
        )

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def has(self, key: str) -> bool:
        return self.path(key).exists()

    def keys(self) -> Iterator[str]:
        if not self.root.exists():
            return iter(())
        return iter(sorted(path.stem for path in self.root.glob("*.json")))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------ #
    def record(
        self,
        key: str,
        job: JobSpec,
        error: BaseException,
        index: Optional[int] = None,
        cause_key: Optional[str] = None,
    ) -> Dict[str, object]:
        """Persist one failure; returns the logged entry.

        ``cause_key`` marks a *propagated* failure: the job did not run
        because the artifact at ``cause_key`` failed upstream.  Retrying
        the root heals the whole subtree (successful reruns clear entries).
        """
        entry = {
            "key": key,
            "index": index,
            "kind": job.kind,
            "label": job.label_dict,
            "spec": job.to_dict(),
            "error": f"{type(error).__name__}: {error}",
            "traceback": "".join(
                traceback_module.format_exception(type(error), error, error.__traceback__)
            ),
            "logged_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        if cause_key is not None:
            entry["cause_key"] = cause_key
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        text = json.dumps(entry, indent=2, sort_keys=True)
        tmp = _stage_tmp(path, lambda handle: handle.write(text.encode("utf-8")))
        try:
            with self.lock.held():
                os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return entry

    def load(self, key: str) -> Dict[str, object]:
        return json.loads(self.path(key).read_text())

    def load_all(self) -> List[Dict[str, object]]:
        return [self.load(key) for key in self.keys()]

    def clear(self, key: str) -> None:
        with self.lock.held():
            self.path(key).unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    def age_seconds(self, key: str, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the entry was logged (``None`` if unparsable).

        ``now`` is a UNIX timestamp override for deterministic tests.
        """
        try:
            logged_at = datetime.datetime.fromisoformat(
                str(self.load(key).get("logged_at"))
            )
        except (OSError, ValueError, json.JSONDecodeError):
            return None
        if now is None:
            now = datetime.datetime.now(datetime.timezone.utc).timestamp()
        return now - logged_at.timestamp()

    def expire(
        self,
        max_age_seconds: float,
        now: Optional[float] = None,
        keys: Optional[Iterable[str]] = None,
    ) -> List[str]:
        """Drop entries older than ``max_age_seconds``; returns their keys.

        ``keys`` restricts the expiry to those entries (the CLI passes the
        shown sweep's artifact keys so one sweep's cleanup cannot destroy
        another's tracebacks in a shared store); ``None`` sweeps the whole
        log.  Entries whose timestamp cannot be parsed are left alone (they
        still describe an unresolved failure, just with a damaged clock).
        """
        candidates = list(self.keys()) if keys is None else [
            key for key in keys if self.has(key)
        ]
        dropped: List[str] = []
        for key in candidates:
            age = self.age_seconds(key, now=now)
            if age is not None and age > max_age_seconds:
                self.clear(key)
                dropped.append(key)
        return dropped
