"""The executor layer: pluggable strategies for running scheduled waves.

The scheduler (:mod:`repro.experiments.scheduler`) decides *what* runs and
in *which order*; an :class:`Executor` decides *where*.  Two built-ins:

* :class:`SerialExecutor` — in-process, one job at a time.  The per-process
  workload/artifact memos make consecutive jobs cheap; this is the
  byte-reference every other execution mode is tested against.
* :class:`ProcessPoolExecutor` — a ``concurrent.futures`` process pool.
  Derived-seed determinism makes worker results bit-identical to in-process
  ones; the store's atomic writes make concurrent completion safe.

Both run the fused kernel's continuous-noise conversions on kernel threads
(:mod:`repro.utils.threads`): the serial executor (and ``shard run``) on
every CPU the process may use, each of ``N`` pool workers on ``max(1,
cpus // N)`` of them.  Results are byte-identical at every thread count.

Runs across machines use *shard manifests* (JSON job lists) instead of an
executor: ``shard emit`` → N × ``shard run`` → ``shard merge``.  Each
``shard run`` executes one manifest serially against a shared
content-addressed store.  Because artifacts are content-addressed and
writes are atomic, shards never coordinate — at worst two shards compute
the same shared artifact and store identical bytes.

Executors are context managers, and **cancellation lives here**: leaving
the ``with`` block on an exception (Ctrl-C, first-failure abort,
``MaxFailuresExceeded``) is the one place pending work is torn down —
``shutdown(wait=False, cancel_futures=True)`` for the pool.

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
from repro.telemetry.resources import ResourceSampler
from repro.telemetry.tracer import NULL_TRACER, Tracer, process_tracer
from repro.utils import threads

EXECUTOR_NAMES = ("serial", "process")

#: Manifest schema marker (bump on incompatible manifest layout changes).
SHARD_MANIFEST_FORMAT = "repro-shard-manifest/v1"

#: The top-level fields of a shard manifest; ``load_shard_manifest``
#: refuses any other.
SHARD_MANIFEST_FIELDS = frozenset(
    ("format", "shard_index", "shard_count", "salt", "jobs", "sweep", "experiment")
)

WaveOutcome = Tuple[ScheduledJob, Optional[BaseException]]


@dataclasses.dataclass
class ExecutionContext:
    """Everything an executor needs to run jobs against one store.

    The telemetry fields travel in two forms: ``tracer`` is the *live*
    tracer of the driving process (never pickled — executors that fan out
    to other processes must not ship it), while ``trace_dir`` is the
    plain-string run directory in which a pool worker opens its **own**
    stream.  ``wave`` is maintained by
    :func:`repro.experiments.runner.execute_graph` as it walks the
    topology; ``shard`` is set by :func:`run_shard_manifest`.
    """

    store: ResultStore
    weights_cache_dir: Optional[str] = None
    salt: Optional[str] = None
    inject: frozenset = frozenset()
    tracer: Tracer = NULL_TRACER
    trace_dir: Optional[str] = None
    wave: Optional[int] = None
    shard: Optional[int] = None
    #: Monte Carlo trials per batched kernel invocation.  ``1`` keeps the
    #: per-trial loop; every executor hands it to each job it runs, and the
    #: job batches its own trials by it.  Purely an execution knob — job
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
            **self.job_trace_fields(node, submitted_mono=submitted_mono),
        }


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
    the trace analysis would count a Ctrl-C'd run's in-flight jobs as
    still running, not aborted.
    """

    name: str = "executor"
    #: Whether worker processes benefit from the parent pre-training the
    #: workload weights into the on-disk cache before fan-out.
    needs_prewarm: bool = False
    _context: Optional[ExecutionContext] = None

    @property
    def kernel_threads(self) -> int:
        """The kernel thread budget of each process that runs jobs."""
        return threads.kernel_threads()

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
    raise ValueError(
        f"unknown executor {executor!r} (expected one of {EXECUTOR_NAMES})"
    )


# --------------------------------------------------------------------- #
# Serial
# --------------------------------------------------------------------- #
class SerialExecutor(Executor):
    """In-process execution, one job at a time, in scheduler order.

    Each Monte Carlo job runs on its own and batches its trials by
    ``context.trial_batch``, like on every other executor.
    """

    name = "serial"

    def run_wave(
        self, wave: Sequence[ScheduledJob], context: ExecutionContext
    ) -> Iterator[WaveOutcome]:
        from repro.experiments.runner import execute_job  # lazy: cycle

        # The whole wave is "submitted" when it is handed over, so a serial
        # job's queue wait honestly includes its predecessors' run time.
        submitted = time.monotonic()
        for node in wave:
            try:
                execute_job(
                    node.job, context.store, context.weights_cache_dir, context.salt,
                    tracer=context.tracer,
                    trace_fields=context.job_trace_fields(node, submitted_mono=submitted),
                    trial_batch=context.trial_batch,
                    inject_failure=context.should_inject(node),
                )
            except KeyboardInterrupt:
                raise
            except Exception as error:  # noqa: BLE001 - the policy decides
                yield node, error
            else:
                yield node, None


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

    @property
    def kernel_threads(self) -> int:
        """Each worker's share of the CPUs: ``max(1, cpus // max_workers)``."""
        return threads.thread_budget(self.max_workers)

    def __enter__(self) -> "ProcessPoolExecutor":
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=threads.init_pool_worker,
            initargs=(self.max_workers,),
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
# Shard manifests (the `shard emit` / `run` / `merge` CLI)
# --------------------------------------------------------------------- #
def plan_shards(
    jobs: Sequence[JobSpec], shards: int
) -> List[List[Tuple[int, JobSpec]]]:
    """Partition a sweep's expanded jobs round-robin into ``shards`` groups.

    Round-robin over the expansion index balances the expensive kinds
    (which presets tend to list contiguously) across shards, and makes the
    partition a pure function of (sweep, shard count).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    indexed = list(enumerate(jobs))
    return [indexed[i::shards] for i in range(shards)]


def write_shard_manifests(
    sweep: SweepSpec,
    shards: int,
    directory: Union[str, Path],
    salt: Optional[str] = None,
    experiment: Optional[ExperimentSpec] = None,
) -> List[Path]:
    """Emit one manifest per shard for a full sweep (the ``shard emit`` CLI).

    A manifest is a job list — each entry's sweep index, content address
    and spec — plus the resolved salt, so every shard (and the merge)
    addresses the same artifacts, and the sweep spec and experiment
    identity, so ``shard merge`` can rebuild the full aggregate —
    byte-identical to a single-process ``run`` — without the original
    command line.

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
        manifest: Dict[str, object] = {
            "format": SHARD_MANIFEST_FORMAT,
            "shard_index": shard_index,
            "shard_count": shards,
            "salt": salt if salt is not None else code_version_salt(),
            "jobs": [
                {
                    "index": index,
                    "key": job_key(job, salt),
                    "spec": job.to_dict(),
                    "inject_failure": False,
                }
                for index, job in group
            ],
            "sweep": sweep.to_dict(),
        }
        if experiment is not None:
            manifest["experiment"] = {
                "experiment_id": experiment.experiment_id,
                "description": experiment.description,
                "paper_reference": experiment.paper_reference,
            }
        path = directory / f"{stem}-shard{shard_index}of{shards}.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        paths.append(path)
    return paths


def load_shard_manifest(path: Union[str, Path]) -> Dict[str, object]:
    """Read one shard manifest and check it before any store is touched.

    A manifest emitted under another code-version salt is refused: running
    it would store bytes made by this code under the old salt's addresses.
    An unknown top-level field is refused too, and so is every malformed
    field ``shard run`` reads: each job needs a sweep index (an integer
    >= 0) and a spec that parses, and the embedded sweep spec must parse.
    Each ``ValueError`` names the offending JSON path.
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
    for name in sorted(manifest):
        if name not in SHARD_MANIFEST_FIELDS:
            raise ValueError(
                f"{path}: {name} is not a field "
                f"(expected one of {sorted(SHARD_MANIFEST_FIELDS)})"
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
        index = entry.get("index")
        if isinstance(index, bool) or not isinstance(index, int) or index < 0:
            raise ValueError(
                f"{path}: jobs[{position}].index must be an integer >= 0, "
                f"got {index!r}"
            )
        try:
            JobSpec.from_dict(entry["spec"])
        except (TypeError, ValueError) as error:
            raise ValueError(f"{path}: jobs[{position}].spec: {error}") from error
    if "sweep" in manifest:  # the spec ``shard merge`` aggregates
        try:
            SweepSpec.from_dict(manifest["sweep"])
        except (TypeError, ValueError) as error:
            raise ValueError(f"{path}: sweep: {error}") from error
    return manifest


def manifest_result_path(manifest_path: Union[str, Path]) -> Path:
    """Where ``shard run`` persists its per-job statuses."""
    manifest_path = Path(manifest_path)
    return manifest_path.with_name(f"{manifest_path.stem}.result.json")


def run_shard_manifest(
    manifest: Dict[str, object],
    store: ResultStore,
    weights_cache_dir: Optional[str] = None,
    progress=None,
    trace_dir: Optional[Union[str, Path]] = None,
) -> List[Dict[str, object]]:
    """Execute one shard manifest's jobs serially against ``store``.

    ``manifest`` is one that :func:`load_shard_manifest` accepted.
    Dependencies are resolved through the scheduler exactly like a normal
    run (stored siblings are loaded, missing ones computed), failures are
    tolerated — each is persisted to the store's failure log, dependents
    are marked ``upstream_failed`` with the root cause — and a status row
    per job (plus any extra shared artifacts) is returned for the caller
    to persist.  A shard cannot see its siblings' failures, so it enforces
    no failure budget; ``shard merge`` reports what is missing.

    Tracing: ``trace_dir`` (``shard run --trace-dir``) makes this process
    append its own event stream to that run directory, which the shards of
    one run share.  Job events carry the manifest's ``shard_index`` as
    ``shard``.  Untraced shards pay nothing.
    """
    from repro.experiments.runner import execute_graph  # lazy: cycle
    from repro.experiments.scheduler import build_job_graph

    salt = manifest["salt"]
    shard_index = manifest["shard_index"]
    tracer: Tracer = NULL_TRACER if trace_dir is None else process_tracer(trace_dir)
    failure_log = FailureLog(store)
    statuses: List[Dict[str, object]] = []
    pending: List[Tuple[int, JobSpec]] = []
    inject: set = set()
    for entry in manifest["jobs"]:
        job = JobSpec.from_dict(entry["spec"])
        index = entry["index"]
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
        shard=shard_index,
    )

    def on_result(node: ScheduledJob, error: Optional[BaseException]) -> None:
        status = {
            "key": node.key,
            "index": node.index,
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
                node.key, node.job, error, index=node.index, cause_key=cause_key
            )
        if progress is not None:
            progress(f"  shard job {node.describe()}: {status['status']}")
        statuses.append(status)

    # Scoped to this call (with a last sample on stop), so an in-process
    # caller is not left with a sampling thread.
    sampler = ResourceSampler(tracer).start()
    try:
        execute_graph(graph, SerialExecutor(), context, on_result)
    finally:
        sampler.stop()
    return statuses
