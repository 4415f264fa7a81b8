"""The executor layer: pluggable strategies for running scheduled waves.

The scheduler (:mod:`repro.experiments.scheduler`) decides *what* runs and
in *which order*; an :class:`Executor` decides *where*.  Three built-ins:

* :class:`SerialExecutor` — in-process, one job at a time.  The per-process
  workload/artifact memos make consecutive jobs cheap; this is the
  byte-reference every other executor is tested against.
* :class:`ProcessPoolExecutor` — a ``concurrent.futures`` process pool.
  Derived-seed determinism makes worker results bit-identical to in-process
  ones; the store's atomic writes make concurrent completion safe.
* :class:`ShardedExecutor` — partitions each wave round-robin into N
  *shard manifests* (JSON job lists) and runs each as an independent
  ``python -m repro.experiments shard run`` subprocess against the same
  content-addressed store, re-dispatching dropped shards and backing up
  stragglers.  The same manifest format drives the explicit multi-machine
  flow (``shard emit`` → N × ``shard run`` → ``shard merge``): because
  artifacts are content-addressed and writes are atomic, shards never
  coordinate — at worst two shards (or two attempts of one shard) compute
  the same artifact and store identical bytes.

Executors are context managers, and **cancellation lives here**: leaving
the ``with`` block on an exception (Ctrl-C, first-failure abort,
``MaxFailuresExceeded``) is the one place pending work is torn down —
``shutdown(wait=False, cancel_futures=True)`` for the pool, terminated
subprocesses for the shards.  The runner used to repeat that handling
inline around every fan-out.

An executor's :meth:`~Executor.run_wave` receives mutually-independent
:class:`~repro.experiments.scheduler.ScheduledJob` nodes (the scheduler
guarantees their dependencies are already stored) and yields
``(node, error-or-None)`` as each completes.  Completion order is
irrelevant to results: rows are read back from the store in grid order.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.experiments.scheduler import ScheduledJob, UpstreamFailed
from repro.experiments.spec import ExperimentSpec, JobSpec, SweepSpec
from repro.experiments.store import (
    FailureLog,
    ResultStore,
    code_version_salt,
    job_key,
)
from repro.telemetry import events as telemetry_events
from repro.telemetry.resources import ensure_process_sampler
from repro.telemetry.tracer import NULL_TRACER, Tracer, process_tracer
from repro.utils.logging import get_logger

logger = get_logger("experiments.executors")

EXECUTOR_NAMES = ("serial", "process", "sharded")

#: Manifest schema marker (bump on incompatible manifest layout changes).
SHARD_MANIFEST_FORMAT = "repro-shard-manifest/v1"

WaveOutcome = Tuple[ScheduledJob, Optional[BaseException]]


class ShardJobFailed(RuntimeError):
    """A job failed inside a shard subprocess.

    ``logged`` tells the failure policy whether the shard already persisted
    the real traceback to the store's failure log (it did, unless the
    subprocess itself died before writing results).
    """

    def __init__(self, message: str, logged: bool = True) -> None:
        super().__init__(message)
        self.logged = logged


@dataclasses.dataclass
class ExecutionContext:
    """Everything an executor needs to run jobs against one store.

    The telemetry fields travel in two forms: ``tracer`` is the *live*
    tracer of the driving process (never pickled — executors that fan out
    to other processes must not ship it), while ``trace_dir`` /
    ``trace_run_id`` are the plain-string coordinates a worker or shard
    subprocess uses to open its **own** stream in the same run directory.
    ``wave`` is maintained by :func:`repro.experiments.runner.execute_graph`
    as it walks the topology; ``wave_override`` pins it instead when this
    context executes one wave of a *parent* graph (a ``ShardedExecutor``
    child), so shard-local wave numbering never shadows the parent's and
    wave lifecycle events are not emitted twice.
    """

    store: ResultStore
    weights_cache_dir: Optional[str] = None
    salt: Optional[str] = None
    inject: frozenset = frozenset()
    tracer: Tracer = NULL_TRACER
    trace_dir: Optional[str] = None
    trace_run_id: Optional[str] = None
    wave: Optional[int] = None
    shard: Optional[int] = None
    wave_override: Optional[int] = None
    #: Monte Carlo trials per batched kernel invocation.  ``1`` keeps the
    #: per-trial loop; every executor hands it to each job it runs, and
    #: ``N > 1`` additionally lets :class:`SerialExecutor` (which also runs
    #: every shard manifest) coalesce sibling per-seed MC jobs of one wave
    #: into a single batched execution.  Purely an execution knob — job
    #: hashes and store bytes are invariant under it.
    trial_batch: int = 1

    def should_inject(self, node: ScheduledJob) -> bool:
        return any(index in self.inject for index in node.indices)

    # ------------------------------------------------------------------ #
    def job_trace_fields(
        self, node: ScheduledJob, submitted_mono: Optional[float] = None
    ) -> Dict[str, object]:
        """The per-job event fields for an in-process ``execute_job`` call."""
        return {
            "index": node.index,
            "wave": self.wave,
            "shard": self.shard,
            "deps": list(node.dependencies),
            "submitted_mono": submitted_mono,
        }

    def worker_trace(
        self, node: ScheduledJob, submitted_mono: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """The picklable trace handle for an out-of-process worker.

        ``None`` when the run is untraced — workers then skip telemetry
        entirely.  ``submitted_mono`` lets the worker compute its
        ``queue_wait_s`` (its clock and ours are the same
        ``CLOCK_MONOTONIC``).
        """
        if self.trace_dir is None:
            return None
        return {
            "dir": self.trace_dir,
            "run_id": self.trace_run_id,
            **self.job_trace_fields(node, submitted_mono=submitted_mono),
        }


def _injected_error(job: JobSpec) -> RuntimeError:
    return RuntimeError(
        f"injected failure (--inject-failure) for {job.kind} job {job.label_dict}"
    )


# --------------------------------------------------------------------- #
# The protocol
# --------------------------------------------------------------------- #
class Executor:
    """Base executor: a context manager that runs waves of scheduled jobs.

    Subclasses implement :meth:`run_wave`; lifecycle (resource setup in
    ``__enter__``, teardown *and cancellation* in ``__exit__``) is the
    base contract the runner relies on.  The runner :meth:`bind`\\ s the
    execution context before entering, which lets an exceptional
    ``__exit__`` emit the terminal ``sweep_abort`` event — without it,
    a Ctrl-C'd trace would leave its in-flight jobs looking
    forever-running to ``trace watch``/``trace show``.
    """

    name: str = "executor"
    #: Whether worker processes benefit from the parent pre-training the
    #: workload weights into the on-disk cache before fan-out.
    needs_prewarm: bool = False
    _context: Optional[ExecutionContext] = None

    def bind(self, context: ExecutionContext) -> "Executor":
        """Attach the execution context for the duration of one graph run."""
        self._context = context
        return self

    def _emit_abort(self, exc_type, exc) -> None:
        """Record the abnormal unwind on the trace (once), then flush.

        Idempotent: the bound context is consumed, so a subclass calling
        this before its teardown suppresses the base ``__exit__``'s call.
        """
        context, self._context = self._context, None
        if exc_type is None or context is None:
            return
        tracer = context.tracer
        if not tracer.enabled:
            return
        tracer.emit(
            telemetry_events.SWEEP_ABORT,
            reason=exc_type.__name__,
            error=str(exc) or None,
        )
        tracer.flush()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._emit_abort(exc_type, exc)
        return False

    def run_wave(
        self,
        wave: Sequence[ScheduledJob],
        context: ExecutionContext,
    ) -> Iterator[WaveOutcome]:
        """Execute one wave of mutually-independent jobs.

        Yields ``(node, None)`` for each success and ``(node, error)`` for
        each failure, in completion order.  Must not raise for ordinary
        job failures — only for executor-level problems (and
        ``KeyboardInterrupt``, which the runner turns into cancellation
        via ``__exit__``).
        """
        raise NotImplementedError


def resolve_executor(
    executor: Union[str, Executor, None] = None,
    jobs: int = 1,
    shards: int = 2,
) -> Executor:
    """Resolve the ``run_sweep`` executor argument to an instance.

    ``None`` keeps the historical behaviour: a process pool when
    ``jobs > 1``, in-process otherwise.
    """
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        executor = "process" if jobs > 1 else "serial"
    if executor == "serial":
        return SerialExecutor()
    if executor == "process":
        return ProcessPoolExecutor(max_workers=jobs)
    if executor == "sharded":
        return ShardedExecutor(shards=shards)
    raise ValueError(
        f"unknown executor {executor!r} (expected one of {EXECUTOR_NAMES})"
    )


# --------------------------------------------------------------------- #
# Serial
# --------------------------------------------------------------------- #
class SerialExecutor(Executor):
    """In-process execution, one job at a time, in scheduler order.

    With ``context.trial_batch > 1``, sibling per-seed Monte Carlo jobs of
    one wave (same :func:`~repro.experiments.runner.mc_group_signature` —
    they differ only in ``mc_seed``) are coalesced into a single batched
    execution: one clean reference, one prepared workload, and all trials
    flattened through the batched trials kernel.  Store artifacts stay
    byte-identical to per-job execution; grouping only changes wall time.
    """

    name = "serial"

    def run_wave(
        self, wave: Sequence[ScheduledJob], context: ExecutionContext
    ) -> Iterator[WaveOutcome]:
        from repro.experiments.runner import (  # lazy: cycle
            execute_job,
            execute_mc_group_nodes,
            mc_group_signature,
        )

        # The whole wave is "submitted" when it is handed over, so a serial
        # job's queue wait honestly includes its predecessors' run time.
        submitted = time.monotonic()
        groups: Dict[str, List[ScheduledJob]] = {}
        if context.trial_batch > 1:
            for node in wave:
                signature = mc_group_signature(node.job)
                if signature is not None:
                    groups.setdefault(signature, []).append(node)
            groups = {
                signature: nodes
                for signature, nodes in groups.items()
                if len(nodes) > 1
            }
        grouped = {id(node) for nodes in groups.values() for node in nodes}
        for node in wave:
            if id(node) in grouped:
                continue
            try:
                if context.should_inject(node):
                    raise _injected_error(node.job)
                execute_job(
                    node.job, context.store, context.weights_cache_dir, context.salt,
                    tracer=context.tracer,
                    trace_fields=context.job_trace_fields(node, submitted_mono=submitted),
                    trial_batch=context.trial_batch,
                )
            except KeyboardInterrupt:
                raise
            except Exception as error:  # noqa: BLE001 - the policy decides
                yield node, error
            else:
                yield node, None
        for nodes in groups.values():
            yield from execute_mc_group_nodes(nodes, context, submitted_mono=submitted)


# --------------------------------------------------------------------- #
# Process pool
# --------------------------------------------------------------------- #
class ProcessPoolExecutor(Executor):
    """A ``concurrent.futures`` process-pool executor.

    The pool lives for the whole sweep (workers keep their workload memos
    warm across waves).  ``__exit__`` is the single cancellation point: a
    clean exit drains the pool, an exceptional one drops queued futures
    and abandons the workers (``wait=False, cancel_futures=True``).
    """

    name = "process"
    needs_prewarm = True

    def __init__(self, max_workers: int = 2) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def __enter__(self) -> "ProcessPoolExecutor":
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Abort is recorded before teardown so its timestamp marks the
        # unwind instant, not the (possibly slow) worker shutdown.
        self._emit_abort(exc_type, exc)
        pool, self._pool = self._pool, None
        if pool is not None:
            if exc_type is None:
                pool.shutdown(wait=True)
            else:
                # The one cancellation path: Ctrl-C, first-failure abort and
                # MaxFailuresExceeded all unwind through here.
                pool.shutdown(wait=False, cancel_futures=True)
        return False

    def run_wave(
        self, wave: Sequence[ScheduledJob], context: ExecutionContext
    ) -> Iterator[WaveOutcome]:
        from repro.experiments.runner import _worker_execute  # lazy: cycle

        if self._pool is None:
            raise RuntimeError("ProcessPoolExecutor used outside its context")
        submitted = time.monotonic()
        futures = {
            self._pool.submit(
                _worker_execute,
                node.job.to_dict(),
                str(context.store.root),
                context.weights_cache_dir,
                context.salt,
                context.should_inject(node),
                context.worker_trace(node, submitted_mono=submitted),
                context.trial_batch,
            ): node
            for node in wave
        }
        for future in concurrent.futures.as_completed(futures):
            node = futures[future]
            try:
                future.result()
            except Exception as error:  # noqa: BLE001 - the policy decides
                yield node, error
            else:
                yield node, None


# --------------------------------------------------------------------- #
# Shard manifests (shared by ShardedExecutor and the `shard` CLI)
# --------------------------------------------------------------------- #
def _round_robin(items: Sequence, shards: int) -> List[List]:
    """The one partition policy, shared by ``plan_shards`` (the
    emit/run/merge flow) and ``ShardedExecutor`` (per-wave groups), so the
    two sharding paths can never balance work differently."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return [list(items[i::shards]) for i in range(shards)]


def plan_shards(
    jobs: Sequence[JobSpec], shards: int
) -> List[List[Tuple[int, JobSpec]]]:
    """Partition a sweep's expanded jobs round-robin into ``shards`` groups.

    Round-robin over the expansion index balances the expensive kinds
    (which presets tend to list contiguously) across shards, and makes the
    partition a pure function of (sweep, shard count).
    """
    return _round_robin(list(enumerate(jobs)), shards)


def shard_manifest_dict(
    entries: Sequence[Tuple[Optional[int], JobSpec, bool]],
    shard_index: int,
    shard_count: int,
    salt: Optional[str] = None,
    sweep: Optional[SweepSpec] = None,
    experiment: Optional[ExperimentSpec] = None,
    telemetry: Optional[Dict[str, object]] = None,
    trial_batch: int = 1,
) -> Dict[str, object]:
    """The JSON manifest of one shard: a job-key list plus the specs.

    ``entries`` are ``(sweep index or None, job, inject_failure)``.  The
    resolved salt rides along so every shard (and the merge) addresses the
    same artifacts; the sweep spec and experiment identity are included
    when known so ``shard merge`` can rebuild the full aggregate —
    byte-identical to a single-process ``run`` — without the original
    command line.  ``telemetry`` (``{"dir", "run_id", "wave"}``) tells the
    ``shard run`` subprocess to append its own event stream to the
    parent's trace run — ``wave`` pins the parent's wave number so the
    shard's jobs attribute to the wave that scheduled them.  A
    ``trial_batch`` above 1 rides along as the shard's Monte Carlo batching
    knob; the default leaves the manifest as ``shard emit`` writes it.
    """
    manifest: Dict[str, object] = {
        "format": SHARD_MANIFEST_FORMAT,
        "shard_index": int(shard_index),
        "shard_count": int(shard_count),
        "salt": salt if salt is not None else code_version_salt(),
        "jobs": [
            {
                "index": index,
                "key": job_key(job, salt),
                "spec": job.to_dict(),
                "inject_failure": bool(inject),
            }
            for index, job, inject in entries
        ],
    }
    if trial_batch > 1:
        manifest["trial_batch"] = int(trial_batch)
    if telemetry is not None:
        manifest["telemetry"] = {
            key: value for key, value in telemetry.items() if value is not None
        }
    if sweep is not None:
        manifest["sweep"] = sweep.to_dict()
    if experiment is not None:
        manifest["experiment"] = {
            "experiment_id": experiment.experiment_id,
            "description": experiment.description,
            "paper_reference": experiment.paper_reference,
        }
    return manifest


def write_shard_manifests(
    sweep: SweepSpec,
    shards: int,
    directory: Union[str, Path],
    salt: Optional[str] = None,
    experiment: Optional[ExperimentSpec] = None,
) -> List[Path]:
    """Emit one manifest per shard for a full sweep (the ``shard emit`` CLI).

    Every shard is self-contained: ``shard run`` resolves dependencies
    through the scheduler at run time, loading shared siblings from the
    store when another shard (or an earlier run) already computed them and
    computing them itself otherwise — identical bytes either way.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = (experiment.experiment_id if experiment else sweep.name).replace("/", "_")
    paths: List[Path] = []
    for shard_index, group in enumerate(plan_shards(sweep.expand(), shards)):
        manifest = shard_manifest_dict(
            [(index, job, False) for index, job in group],
            shard_index,
            shards,
            salt=salt,
            sweep=sweep,
            experiment=experiment,
        )
        path = directory / f"{stem}-shard{shard_index}of{shards}.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        paths.append(path)
    return paths


def load_shard_manifest(path: Union[str, Path]) -> Dict[str, object]:
    """Read one shard manifest and check it before any store is touched.

    A manifest emitted under another code-version salt is refused: running
    it would store bytes made by this code under the old salt's addresses.
    The fields ``shard run`` reads are checked too; each ``ValueError``
    names the offending JSON path.
    """
    manifest = json.loads(Path(path).read_text())
    form = manifest.get("format") if isinstance(manifest, dict) else None
    if form != SHARD_MANIFEST_FORMAT:
        raise ValueError(
            f"{path} is not a shard manifest (format "
            f"{form!r}, expected {SHARD_MANIFEST_FORMAT!r})"
        )
    salt = code_version_salt()
    if manifest.get("salt") != salt:
        raise ValueError(
            f"{path} was emitted under salt {manifest.get('salt')!r}, not this "
            f"code's salt {salt!r}; re-emit it with 'shard emit'"
        )
    for field in ("shard_index", "shard_count"):
        value = manifest.get(field)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{path}: {field} must be an integer, got {value!r}")
    if not 0 <= manifest["shard_index"] < manifest["shard_count"]:
        raise ValueError(
            f"{path}: shard_index must satisfy 0 <= shard_index < shard_count, "
            f"got {manifest['shard_index']} and {manifest['shard_count']}"
        )
    jobs = manifest.get("jobs")
    if not isinstance(jobs, list):
        raise ValueError(f"{path}: jobs must be a list, got {jobs!r}")
    for position, entry in enumerate(jobs):
        if not isinstance(entry, dict) or not isinstance(entry.get("spec"), dict):
            raise ValueError(f"{path}: jobs[{position}].spec must be an object")
    return manifest


def manifest_result_path(manifest_path: Union[str, Path]) -> Path:
    """Where ``shard run`` persists its per-job statuses."""
    manifest_path = Path(manifest_path)
    return manifest_path.with_name(f"{manifest_path.stem}.result.json")


def shard_status_outcome(
    node: ScheduledJob,
    status: Optional[Dict[str, object]],
    returncode: Optional[int],
    stderr: bytes = b"",
) -> Optional[BaseException]:
    """Map one ``shard run`` status row to the runner-facing outcome.

    The one translation :class:`ShardedExecutor` applies to the winning
    attempt's result file.  ``None`` status means no attempt produced a
    row for this node (every subprocess died or the transport lost it):
    that is a *not-logged* failure — the shard never got to persist a
    traceback.
    """
    if status is None:
        detail = (stderr or b"").decode("utf-8", "replace").strip()
        return ShardJobFailed(
            f"shard subprocess exited {returncode} without a "
            f"result for {node.key[:12]}"
            + (f": {detail[-300:]}" if detail else ""),
            logged=False,
        )
    if status["status"] in ("done", "cached"):
        return None
    if status["status"] == "upstream_failed":
        upstream = UpstreamFailed(
            str(status.get("error", "upstream failed")),
            str(status.get("cause_key", node.key)),
        )
        upstream.logged = True  # the shard persisted the entry
        return upstream
    return ShardJobFailed(str(status.get("error", "failed")))


def run_shard_manifest(
    manifest: Dict[str, object],
    store: ResultStore,
    weights_cache_dir: Optional[str] = None,
    progress=None,
    trace_dir: Optional[Union[str, Path]] = None,
) -> List[Dict[str, object]]:
    """Execute one shard manifest's jobs serially against ``store``.

    Dependencies are resolved through the scheduler exactly like a normal
    run (stored siblings are loaded, missing ones computed), failures are
    tolerated — each is persisted to the store's failure log, dependents
    are marked ``upstream_failed`` with the root cause — and a status row
    per job (plus any extra shared artifacts) is returned for the caller
    to persist.  Budget enforcement (``--max-failures``) is the *parent's*
    responsibility: a shard cannot see its siblings' failures.

    Tracing: the manifest's ``telemetry`` block (written by a traced
    parent) or an explicit ``trace_dir`` (the standalone ``shard run
    --trace-dir`` flow) makes this process append its own event stream to
    that run directory.  Untraced manifests pay nothing.

    The manifest's ``trial_batch`` (default 1) is the Monte Carlo batching
    knob of every job it runs, seed-sibling coalescing included.
    """
    from repro.experiments.runner import execute_graph  # lazy: cycle
    from repro.experiments.scheduler import build_job_graph

    salt = manifest.get("salt")
    entries = list(manifest.get("jobs", ()))
    shard_index = manifest.get("shard_index")
    trial_batch = manifest.get("trial_batch", 1)
    if isinstance(trial_batch, bool) or not isinstance(trial_batch, int) or trial_batch < 1:
        raise ValueError(f"trial_batch must be an integer >= 1, got {trial_batch!r}")
    telemetry = dict(manifest.get("telemetry") or {})
    if trace_dir is not None:  # the explicit flag wins over the manifest
        telemetry["dir"] = str(trace_dir)
    tracer: Tracer = NULL_TRACER
    if telemetry.get("dir"):
        tracer = process_tracer(telemetry["dir"], telemetry.get("run_id"))
        # Each shard subprocess contributes its own resource_sample stream.
        ensure_process_sampler(tracer)
    failure_log = FailureLog(store)
    statuses: List[Dict[str, object]] = []
    pending: List[Tuple[Optional[int], JobSpec]] = []
    inject: set = set()
    synthetic = -1  # distinct negative pseudo-indices for index-less entries
    for entry in entries:
        job = JobSpec.from_dict(entry["spec"])
        index = entry.get("index")
        key = job_key(job, salt)
        if store.has(key):
            if failure_log.has(key):  # healed on an earlier (re)run
                failure_log.clear(key)
            statuses.append(
                {"key": key, "index": index, "kind": job.kind, "status": "cached"}
            )
            tracer.emit(
                telemetry_events.JOB_CACHED,
                key=key, kind=job.kind, index=index, shard=shard_index,
            )
            continue
        if index is None:
            index = synthetic
            synthetic -= 1
        if entry.get("inject_failure"):
            inject.add(index)
        pending.append((index, job))

    graph = build_job_graph(pending, store, salt)
    context = ExecutionContext(
        store=store,
        weights_cache_dir=weights_cache_dir,
        salt=salt,
        inject=frozenset(inject),
        tracer=tracer,
        trace_dir=telemetry.get("dir"),
        trace_run_id=telemetry.get("run_id"),
        shard=shard_index,
        wave_override=telemetry.get("wave"),
        trial_batch=trial_batch,
    )

    def on_result(node: ScheduledJob, error: Optional[BaseException]) -> None:
        index = node.index if (node.index is None or node.index >= 0) else None
        status = {
            "key": node.key,
            "index": index,
            "kind": node.job.kind,
            "status": "done",
        }
        if error is None and failure_log.has(node.key):
            failure_log.clear(node.key)  # a success heals the stale entry
        if error is not None:
            if isinstance(error, UpstreamFailed):
                status["status"] = "upstream_failed"
                status["cause_key"] = error.cause_key
            else:
                status["status"] = "failed"
            status["error"] = f"{type(error).__name__}: {error}"
            cause_key = getattr(error, "cause_key", None)
            failure_log.record(
                node.key, node.job, error, index=index, cause_key=cause_key
            )
        if progress is not None:
            progress(f"  shard job {node.describe()}: {status['status']}")
        statuses.append(status)

    execute_graph(graph, SerialExecutor(), context, on_result)
    return statuses


# --------------------------------------------------------------------- #
# The sharded executor
# --------------------------------------------------------------------- #
def _shard_subprocess_env() -> Dict[str, str]:
    """The child environment: the running ``repro`` package on PYTHONPATH."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


class LocalSubprocessTransport:
    """Starts each dispatched ``shard run`` command as a local subprocess.

    The executor's one seam: :meth:`submit` returns a handle exposing the
    small ``Popen`` surface the executor polls — ``poll()`` (the exit code
    once finished), ``wait(timeout)``, ``terminate()`` and a
    ``returncode`` attribute.  The chaos transports in ``tests/harness``
    subclass it to drop, kill, duplicate or delay shards, proving the
    executor's re-dispatch and backup paths.
    """

    name = "local"

    def submit(
        self,
        command: Sequence[str],
        stderr_path: Path,
        env: Dict[str, str],
    ) -> subprocess.Popen:
        """Start ``command`` with stderr captured to ``stderr_path``."""
        # stderr to a file, not a pipe: a verbose shard must never stall
        # on pipe backpressure while the coordinator is polling siblings.
        with open(stderr_path, "wb") as stderr_handle:
            return subprocess.Popen(
                list(command), env=env,
                stdout=subprocess.DEVNULL, stderr=stderr_handle,
            )

    def close(self) -> None:
        """Release what :meth:`submit` started beyond its handles; idempotent."""


@dataclasses.dataclass
class _ShardAttempt:
    """One dispatch of a shard manifest over the transport."""

    handle: object
    result_path: Path
    stderr_path: Path
    started: float
    live: bool = True


@dataclasses.dataclass
class _ShardTask:
    """One shard of a wave: its manifest and dispatch attempts."""

    shard_index: int
    group: List[ScheduledJob]
    manifest_path: Path
    attempts: List[_ShardAttempt] = dataclasses.field(default_factory=list)
    statuses: Optional[Dict[str, Dict[str, object]]] = None
    returncode: Optional[int] = None
    stderr: bytes = b""
    done: bool = False


class ShardedExecutor(Executor):
    """Run each wave as up to ``shards`` ``shard run`` subprocesses.

    Every wave is partitioned round-robin into at most ``shards``
    manifests — exactly what ``shard emit`` produces, one wave at a time —
    and each manifest is dispatched over the transport as ``shard run
    --store <store>``: every attempt executes its jobs serially against
    the sweep's own store and reports per-job statuses in its own result
    file.

    Fault tolerance, all proven by the chaos harness in ``tests/``:

    * **Dropped shards** — an attempt that exits without a readable
      result file is re-dispatched, up to ``max_dispatches`` attempts
      per shard; only then does the shard report not-logged failures.
    * **Stragglers** — once at least one shard of the wave has finished,
      a still-running shard whose elapsed time trips the shared two-gate
      threshold (:func:`repro.telemetry.analysis.exceeds_gates`:
      ``straggler_factor`` × the median finished duration **and**
      ``straggler_min_gap_s`` slower) gets a *backup* attempt dispatched
      while the original keeps running; first attempt to produce a
      result wins and the loser is terminated.  ``force_redispatch``
      dispatches the backup immediately for every shard — the CI smoke
      uses it to prove duplicate execution end to end.
    * **Duplicate execution is harmless** — two attempts of one manifest
      run concurrently against one store; content addressing plus the
      store's cross-process locking make their writes identical and
      atomic, so the store ends byte-identical to a serial run's.

    Subprocess teardown on an exceptional exit (Ctrl-C, budget exceeded)
    happens in ``__exit__`` — the same centralised cancellation contract as
    the process pool.

    Telemetry: dispatches emit ``shard_dispatch``/``shard_redispatch`` on
    the coordinator's stream, and each ``shard run`` process appends its
    own event stream to the same ``telemetry/<run-id>/`` directory.
    """

    name = "sharded"
    needs_prewarm = True

    def __init__(
        self,
        shards: int = 2,
        transport: Optional[LocalSubprocessTransport] = None,
        max_dispatches: int = 3,
        straggler_factor: float = 2.0,
        straggler_min_gap_s: float = 30.0,
        poll_interval_s: float = 0.05,
        force_redispatch: bool = False,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if max_dispatches < 1:
            raise ValueError(f"max_dispatches must be >= 1, got {max_dispatches}")
        self.shards = shards
        self.transport = transport if transport is not None else LocalSubprocessTransport()
        self.max_dispatches = max_dispatches
        self.straggler_factor = straggler_factor
        self.straggler_min_gap_s = straggler_min_gap_s
        self.poll_interval_s = poll_interval_s
        self.force_redispatch = force_redispatch
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._handles: List[object] = []
        self._wave = 0

    def __enter__(self) -> "ShardedExecutor":
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-shards-")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._emit_abort(exc_type, exc)
        handles, self._handles = self._handles, []
        if exc_type is not None:
            for handle in handles:
                if handle.poll() is None:
                    handle.terminate()
            for handle in handles:
                try:
                    handle.wait(timeout=5)
                except Exception:  # pragma: no cover - last resort
                    pass
        self.transport.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        return False

    # ------------------------------------------------------------------ #
    def _dispatch(
        self,
        task: _ShardTask,
        context: ExecutionContext,
        cache_dir: str,
        env: Dict[str, str],
        reason: Optional[str] = None,
    ) -> None:
        """Launch one (re-)attempt of a shard over the transport."""
        attempt_index = len(task.attempts)
        # Per-attempt result/stderr paths: two live attempts of one shard
        # must never race on their reporting files (the *store* is shared
        # on purpose — that race is the one the store resolves).
        stem = task.manifest_path.with_suffix("")
        result_path = Path(f"{stem}.attempt{attempt_index}.result.json")
        stderr_path = Path(f"{stem}.attempt{attempt_index}.stderr")
        command = [
            sys.executable, "-m", "repro.experiments", "shard", "run",
            str(task.manifest_path),
            "--store", str(context.store.root),
            "--cache-dir", cache_dir,
            "--result", str(result_path),
        ]
        handle = self.transport.submit(command, stderr_path, env)
        task.attempts.append(
            _ShardAttempt(
                handle=handle, result_path=result_path,
                stderr_path=stderr_path, started=time.monotonic(),
            )
        )
        self._handles.append(handle)
        context.tracer.emit(
            telemetry_events.SHARD_DISPATCH if reason is None
            else telemetry_events.SHARD_REDISPATCH,
            wave=context.wave, shard=task.shard_index, attempt=attempt_index,
            transport=self.transport.name, jobs=len(task.group),
            **({} if reason is None else {"reason": reason}),
        )
        if reason is not None:
            logger.info(
                "re-dispatching shard %d (attempt %d, reason=%s)",
                task.shard_index, attempt_index, reason,
            )

    @staticmethod
    def _read_statuses(attempt: _ShardAttempt) -> Optional[Dict[str, Dict[str, object]]]:
        """The attempt's status rows keyed by artifact, ``None`` if unusable.

        A missing or torn result file (the transport dropped the shard,
        its process died mid-write) is indistinguishable from "never ran"
        on purpose: both re-dispatch.
        """
        if not attempt.result_path.exists():
            return None
        try:
            rows = json.loads(attempt.result_path.read_text()).get("statuses")
        except json.JSONDecodeError:
            return None
        if rows is None:
            return None
        return {str(row["key"]): row for row in rows}

    def _finish_losers(self, task: _ShardTask) -> None:
        """Terminate a finished task's still-live backup attempts."""
        for attempt in task.attempts:
            if not attempt.live:
                continue
            attempt.live = False
            if attempt.handle.poll() is None:
                attempt.handle.terminate()
            try:
                attempt.handle.wait(timeout=5)
            except Exception:  # pragma: no cover - last resort
                pass

    def _poll(
        self,
        tasks: List[_ShardTask],
        context: ExecutionContext,
        cache_dir: str,
        env: Dict[str, str],
    ) -> None:
        """Drive every task to completion: reap, retry drops, back up stragglers."""
        durations: List[float] = []
        while True:
            pending = [task for task in tasks if not task.done]
            if not pending:
                return
            for task in pending:
                for attempt in task.attempts:
                    if not attempt.live:
                        continue
                    code = attempt.handle.poll()
                    if code is None:
                        continue
                    attempt.live = False
                    task.returncode = code
                    if attempt.stderr_path.exists():
                        task.stderr = attempt.stderr_path.read_bytes()
                    statuses = self._read_statuses(attempt)
                    if statuses is not None and task.statuses is None:
                        task.statuses = statuses
                        task.done = True
                        durations.append(time.monotonic() - attempt.started)
                if task.done:
                    self._finish_losers(task)
                    continue
                if not any(attempt.live for attempt in task.attempts):
                    # Every attempt died without a result: a dropped shard.
                    if len(task.attempts) < self.max_dispatches:
                        self._dispatch(task, context, cache_dir, env, reason="no_result")
                    else:
                        task.done = True  # exhausted: reported as failures
                    continue
                if (
                    durations
                    and len(task.attempts) < self.max_dispatches
                    and sum(1 for attempt in task.attempts if attempt.live) == 1
                ):
                    busy = time.monotonic() - min(
                        attempt.started for attempt in task.attempts if attempt.live
                    )
                    from repro.telemetry.analysis import exceeds_gates  # lazy: cycle-free but heavy

                    if exceeds_gates(
                        busy, statistics.median(durations),
                        self.straggler_factor, self.straggler_min_gap_s,
                    ):
                        self._dispatch(task, context, cache_dir, env, reason="straggler")
            time.sleep(self.poll_interval_s)

    # ------------------------------------------------------------------ #
    def run_wave(
        self, wave: Sequence[ScheduledJob], context: ExecutionContext
    ) -> Iterator[WaveOutcome]:
        if self._tmpdir is None:
            raise RuntimeError("ShardedExecutor used outside its context")
        self._wave += 1
        groups = [group for group in _round_robin(list(wave), self.shards) if group]
        env = _shard_subprocess_env()
        # Always pin --cache-dir: the child CLI's default is a path
        # relative to its cwd (benchmarks/.cache), which a library caller
        # with no cache configured must not inherit — a throwaway cache
        # inside the executor's tempdir keeps the subprocesses hermetic
        # (weights are deterministic either way).
        cache_dir = context.weights_cache_dir or str(
            Path(self._tmpdir.name) / "weights-cache"
        )
        tasks: List[_ShardTask] = []
        for shard_index, group in enumerate(groups):
            manifest = shard_manifest_dict(
                [
                    (node.index, node.job, context.should_inject(node))
                    for node in group
                ],
                shard_index,
                len(groups),
                salt=context.salt,
                telemetry=(
                    {
                        "dir": context.trace_dir,
                        "run_id": context.trace_run_id,
                        "wave": context.wave,
                    }
                    if context.trace_dir is not None
                    else None
                ),
                trial_batch=context.trial_batch,
            )
            manifest_path = Path(self._tmpdir.name) / (
                f"wave{self._wave}-shard{shard_index}of{len(groups)}.json"
            )
            manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
            task = _ShardTask(
                shard_index=shard_index, group=list(group),
                manifest_path=manifest_path,
            )
            tasks.append(task)
            self._dispatch(task, context, cache_dir, env)
            if self.force_redispatch:
                self._dispatch(task, context, cache_dir, env, reason="forced")
        self._poll(tasks, context, cache_dir, env)
        self._handles = []
        for task in tasks:
            statuses = task.statuses or {}
            for node in task.group:
                yield node, shard_status_outcome(
                    node, statuses.get(node.key), task.returncode, task.stderr
                )
