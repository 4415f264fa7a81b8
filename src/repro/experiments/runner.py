"""The orchestration layer: compose scheduler + executor + failure policy.

:func:`run_sweep` is a thin pipeline over three explicit layers:

1. **Dependency layer** (:mod:`repro.experiments.scheduler`) — the sweep's
   pending jobs plus the transitive closure of their declared dependencies
   (:meth:`JobSpec.dependencies`) become a deduplicated, content-addressed
   job graph, scheduled as topological waves of arbitrary depth.
2. **Executor layer** (:mod:`repro.experiments.executors`) — a pluggable
   strategy (``serial`` / ``process``) runs each wave; cancellation on
   abort lives in the executor, not here.
3. **Failure policy** (this module) — failed jobs are logged to the
   store's :class:`~repro.experiments.store.FailureLog`; transitive
   dependents of a failed job are marked *failed-with-cause* instead of
   recomputing and crashing, and a whole failure subtree counts **once**
   against ``max_failures``.

Jobs whose address already exists in the
:class:`~repro.experiments.store.ResultStore` are skipped.  Three
properties hold regardless of executor:

* **Determinism** — every stochastic input is derived from the specs
  (trained weights from the workload seed, Monte Carlo trials from
  ``utils.rng.derive_seed`` via the keyed noise stacks), so a worker process
  computes bit-identical results to an in-process run.
* **Order independence** — the aggregate table is assembled from the store
  in job-index order after execution, so completion order (and worker
  count) cannot reorder or change the rows.
* **Crash safety** — each finished job is atomically persisted before the
  next is scheduled; Ctrl-C (or a crash) loses at most the in-flight jobs,
  and a rerun resumes from the store.

The noise-free clean reference of Monte Carlo jobs is itself a store
artifact (see :meth:`JobSpec.clean_job`): computed once per (workload, ADC
config) by whichever job needs it first, then shared by every sibling —
across grid points, worker processes, and resumed runs.  The same
load-or-compute sharing applies to the other cross-job artifacts: the
bit-line distribution capture behind ``uniform_calibrated`` evaluations
(:meth:`JobSpec.distribution_job`), the capture and ideal-ADC baseline
behind every cap of a workload-split calibration
(:meth:`JobSpec.capture_job`, :meth:`JobSpec.baseline_job`) and the
Algorithm 1 search behind ``power`` jobs (:meth:`JobSpec.calibration_job`).

* **Failure policy** — a job that raises leaves no store artifact (writes
  are atomic and happen only on success); the exception and traceback are
  recorded in the store's :class:`~repro.experiments.store.FailureLog`.
  With ``max_failures=None`` (default) the first failure aborts the sweep;
  ``max_failures=N`` tolerates up to ``N`` failed *root* jobs — their rows
  (and their dependents', marked failed-with-cause) are simply absent from
  the aggregate — and aborts with :class:`MaxFailuresExceeded` beyond
  that.  A later successful run of a previously-failed key clears its log
  entry, so rerunning a sweep heals transient failures exactly like it
  resumes interrupted ones.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Callable, Collection, Dict, List, Optional, Union

import numpy as np

from repro.experiments.executors import (
    ExecutionContext,
    Executor,
    resolve_executor,
)
from repro.telemetry import events as telemetry_events
from repro.telemetry.resources import (
    JobResourceProbe,
    ResourceSampler,
    ensure_process_sampler,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    Tracer,
    process_tracer,
    resolve_tracer,
    write_graph,
    write_run_manifest,
)
from repro.experiments.scheduler import (
    JobGraph,
    ScheduledJob,
    UpstreamFailed,
    build_job_graph,
    expanded_artifacts,
)
from repro.experiments.spec import ExperimentSpec, JobSpec, SweepSpec
from repro.experiments.store import FailureLog, ResultStore, code_version_salt, job_key
from repro.core.distribution import add_histograms
from repro.report.experiments import ExperimentRecord
from repro.report.figures import distribution_statistics
from repro.sim.stats import SimulationResult
from repro.utils import threads
from repro.utils.logging import get_logger

logger = get_logger("experiments.runner")


class MaxFailuresExceeded(RuntimeError):
    """Raised when a sweep's failed-job count exceeds its ``max_failures``."""


# Per-process memos (workers inherit empty copies; an in-process serial run
# reuses prepared workloads and shared artifacts across its jobs).
_WORKLOAD_MEMO: Dict[str, object] = {}
_CLEAN_MEMO: Dict[str, SimulationResult] = {}
_DISTRIBUTION_MEMO: Dict[str, Dict[str, np.ndarray]] = {}


def clear_runner_memos() -> None:
    """Drop the per-process workload/clean-reference memos (for benchmarks
    that need successive timed runs to start cold)."""
    _WORKLOAD_MEMO.clear()
    _CLEAN_MEMO.clear()
    _DISTRIBUTION_MEMO.clear()


# --------------------------------------------------------------------- #
# Single-job execution
# --------------------------------------------------------------------- #
def _prepared_workload(job: JobSpec, weights_cache_dir: Optional[str]):
    from repro.workloads import prepare_workload

    spec = job.workload
    memo_key = f"{spec!r}|{weights_cache_dir}"
    prepared = _WORKLOAD_MEMO.get(memo_key)
    if prepared is None:
        prepared = prepare_workload(
            spec.name,
            preset=spec.preset,
            train_size=spec.train_size,
            test_size=spec.test_size,
            calibration_images=spec.calibration_images,
            epochs=spec.epochs,
            seed=spec.seed,
            cache_dir=weights_cache_dir,
        )
        _WORKLOAD_MEMO[memo_key] = prepared
    return prepared


def _clean_reference(
    clean_job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
) -> SimulationResult:
    """Load-or-compute a shared deterministic ``evaluate`` artifact: a Monte
    Carlo job's clean reference or a calibration job's ideal-ADC baseline."""
    key = job_key(clean_job, salt)
    # Memoised per (store, key): the reference must be *persisted* into the
    # store this sweep is writing, or its MC artifacts would carry a
    # dangling clean_key when one process runs sweeps against two stores.
    memo_key = (str(store.root.resolve()), key)
    memo = _CLEAN_MEMO.get(memo_key)
    if memo is not None:
        return memo
    if store.has(key):
        payload = store.load(key)
        arrays = store.load_arrays(key)
        result = SimulationResult.from_payload(
            payload["result"], arrays.get("logits"), arrays.get("labels")
        )
    else:
        result = _execute_evaluate(clean_job, store, weights_cache_dir, salt, key)
    _CLEAN_MEMO[memo_key] = result
    return result


def _distribution_histograms(
    dist_job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
) -> Dict[str, np.ndarray]:
    """Load-or-compute a shared bit-line capture: the per-layer histograms
    behind Fig. 3a, every sensing precision of a calibrated-uniform
    evaluation and every cap of a workload-split calibration over the same
    images."""
    key = job_key(dist_job, salt)
    memo_key = f"{store.root.resolve()}|{key}"
    memo = _DISTRIBUTION_MEMO.get(memo_key)
    if memo is not None:
        return memo
    if store.has(key):
        histograms = store.load_arrays(key)
    else:
        histograms = _execute_distribution(dist_job, store, weights_cache_dir, salt, key)
    _DISTRIBUTION_MEMO[memo_key] = histograms
    return histograms


def _execute_distribution(
    job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
    key: str,
) -> Dict[str, np.ndarray]:
    prepared = _prepared_workload(job, weights_cache_dir)
    histograms = prepared.simulator.collect_bitline_distributions(
        prepared.calibration.images[: job.distribution.images]
    )
    pooled_row = distribution_statistics(add_histograms(histograms.values()), low_share=4)
    row = {
        "layers": len(histograms),
        "total_samples": pooled_row["count"],
        "pooled_median": pooled_row["median"],
        "pooled_max": pooled_row["max"],
        "pooled_frac_below_max_over_4": pooled_row["frac_below_max_over_4"],
    }
    payload = {
        "key": key,
        "salt": salt if salt is not None else code_version_salt(),
        "spec": job.to_dict(),
        "row": row,
        "layer_summaries": {
            name: distribution_statistics(histogram)
            for name, histogram in histograms.items()
        },
    }
    store.save(key, payload, histograms)
    return histograms


def _execute_reference_evaluate(
    job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
    key: str,
) -> None:
    """``datapath="float"``/``"fakequant"``: one forward pass of the trained
    (or fake-quantized) model — the paper's f/f and 8/f reference points."""
    from repro.nn import top1_accuracy
    from repro.quantization import FakeQuantBackend, attach_backend, detach_backend

    prepared = _prepared_workload(job, weights_cache_dir)
    split = prepared.eval_split(job.images)
    model = prepared.model
    model.eval()
    if job.datapath == "fakequant":
        attach_backend(model, FakeQuantBackend(prepared.quantized))
        try:
            accuracy = top1_accuracy(model(split.images), split.labels)
        finally:
            detach_backend(model)
    else:
        accuracy = top1_accuracy(model(split.images), split.labels)
    payload = {
        "key": key,
        "salt": salt if salt is not None else code_version_salt(),
        "spec": job.to_dict(),
        "row": {"accuracy": float(accuracy), "num_images": float(len(split.labels))},
    }
    store.save(key, payload)


def _execute_evaluate(
    job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
    key: str,
) -> SimulationResult:
    prepared = _prepared_workload(job, weights_cache_dir)
    simulator = prepared.simulator
    split = prepared.eval_split(job.images)
    if job.adc.needs_distributions:
        histograms = _distribution_histograms(
            job.distribution_job(), store, weights_cache_dir, salt
        )
        configs = job.adc.build_configs_from_histograms(histograms)
    else:
        configs = job.adc.build_configs(simulator.layer_names())
    result = simulator.evaluate(
        split.images, split.labels, configs, batch_size=job.batch_size
    )
    # Rows are stored label-free (labels are reporting metadata merged in at
    # aggregation time), so the artifact is identical no matter which sweep
    # — or which grid point — computed it first.
    row = result.summary()
    row["float_accuracy"] = prepared.float_accuracy
    payload = {
        "key": key,
        "salt": salt if salt is not None else code_version_salt(),
        "spec": job.to_dict(),
        "row": row,
        "result": result.to_payload(),
    }
    arrays = {"logits": result.logits}
    if result.labels is not None:
        arrays["labels"] = result.labels
    store.save(key, payload, arrays)
    return result


def _execute_monte_carlo(
    job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
    key: str,
    trial_batch: int = 1,
) -> None:
    clean = _clean_reference(job.clean_job(), store, weights_cache_dir, salt)
    prepared = _prepared_workload(job, weights_cache_dir)
    simulator = prepared.simulator
    split = prepared.eval_split(job.images)
    if job.adc.needs_distributions:
        histograms = _distribution_histograms(
            job.distribution_job(), store, weights_cache_dir, salt
        )
        configs = job.adc.build_configs_from_histograms(histograms)
    else:
        configs = job.adc.build_configs(simulator.layer_names())
    result = simulator.run_monte_carlo(
        split.images,
        split.labels,
        job.noise.build_stack(),
        adc_configs=configs,
        trials=job.trials,
        batch_size=job.batch_size,
        seed=job.mc_seed,
        confidence=job.confidence,
        clean=clean,
        trial_batch=trial_batch,
    )
    payload = {
        "key": key,
        "salt": salt if salt is not None else code_version_salt(),
        "spec": job.to_dict(),
        "row": result.summary(),
        "clean_key": job_key(job.clean_job(), salt),
        "layer_stats": {
            name: dataclasses.asdict(stats)
            for name, stats in result.layer_stats.items()
        },
    }
    arrays = {"accuracies": result.accuracies, "flip_rates": result.flip_rates}
    store.save(key, payload, arrays)


def _execute_calibration(
    job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
    key: str,
) -> Dict[str, object]:
    from repro.core import CoDesignOptimizer, SearchSpaceConfig
    from repro.datasets import sample_calibration_set

    prepared = _prepared_workload(job, weights_cache_dir)
    split = prepared.eval_split(job.images)
    params = job.calibration
    if params.source == "workload":
        # The prepared calibration split — what the figure benchmarks feed
        # the optimizer, making these jobs bit-identical to the pre-port
        # pipeline.
        calibration = prepared.calibration
        if params.calibration_size < len(calibration.labels):
            calibration = calibration.subset(np.arange(params.calibration_size))
    else:
        calibration = sample_calibration_set(
            prepared.dataset.train,
            num_images=params.calibration_size,
            seed=params.resolved_calib_seed,
        )
    shared = job.shares_workload_calibration
    optimizer = CoDesignOptimizer(
        prepared.model,
        calibration.images,
        calibration.labels,
        search_space=SearchSpaceConfig(
            num_v_grid_candidates=params.num_v_grid_candidates
        ),
        # PTQ on the whole prepared split is the prepared model itself.
        quantized=prepared.quantized if shared else None,
    )
    layer_histograms = baseline_accuracy = None
    if shared:
        # Every cap of the workload reads the same stored capture and
        # ideal-ADC baseline instead of recomputing them.
        layer_histograms = _distribution_histograms(
            job.capture_job(), store, weights_cache_dir, salt
        )
        baseline_accuracy = _clean_reference(
            job.baseline_job(), store, weights_cache_dir, salt
        ).accuracy
    result = optimizer.run(
        split.images,
        split.labels,
        batch_size=job.batch_size,
        use_accuracy_loop=params.use_accuracy_loop,
        initial_n_max=params.initial_n_max,
        layer_histograms=layer_histograms,
        baseline_accuracy=baseline_accuracy,
    )
    row = {
        "baseline_accuracy": result.baseline_accuracy,
        "accuracy": result.final_accuracy,
        "accuracy_drop": result.accuracy_drop,
        "remaining_ops_fraction": result.remaining_ops_fraction,
        "ops_reduction_factor": result.ops_reduction_factor,
    }
    evaluation = result.evaluation
    payload = {
        "key": key,
        "salt": salt if salt is not None else code_version_salt(),
        "spec": job.to_dict(),
        "row": row,
        # Per-layer data for downstream consumers: the Fig. 6c per-layer
        # table and the Fig. 7 power model (measured A/D ops per conversion).
        "per_layer_remaining_fraction": evaluation.per_layer_remaining_fraction(),
        "per_layer_ops_per_conversion": {
            name: stats.mean_ops_per_conversion
            for name, stats in evaluation.layer_stats.items()
        },
        "evaluation": evaluation.to_payload(),
    }
    store.save(key, payload)
    return payload


def _calibration_payload(
    job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
) -> Dict[str, object]:
    """Load-or-compute the Algorithm 1 sibling a power job consumes."""
    cal_job = job.calibration_job()
    key = job_key(cal_job, salt)
    if store.has(key):
        return store.load(key)
    return _execute_calibration(cal_job, store, weights_cache_dir, salt, key)


def _execute_power(
    job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
    key: str,
) -> None:
    from repro.arch import AcceleratorMapping, breakdown_table, compare_configurations
    from repro.nn.models import workload_info

    cal_payload = _calibration_payload(job, store, weights_cache_dir, salt)
    trq_ops = {
        name: float(value)
        for name, value in cal_payload["per_layer_ops_per_conversion"].items()
    }
    prepared = _prepared_workload(job, weights_cache_dir)
    name = job.workload.name
    info = workload_info(name)
    image_shape = (info["in_channels"], info["image_size"], info["image_size"])
    mapping = AcceleratorMapping(prepared.quantized, image_shape)
    spec = job.power
    comparison = compare_configurations(
        name,
        mapping,
        trq_ops,
        uniform_bits=spec.uniform_bits,
        power_model=spec.build_power_model(),
        trq_label=spec.trq_label,
    )
    breakdown_rows = breakdown_table([comparison])
    baseline = comparison.by_label("ISAAC")
    ours = comparison.by_label(spec.trq_label)
    row = {
        "workload": name,
        "isaac_total_J": baseline.total,
        "trq_total_J": ours.total,
        "uniform_total_J": comparison.by_label(f"UQ({spec.uniform_bits}b)").total,
        "adc_reduction_vs_isaac": comparison.adc_reduction_vs_baseline(spec.trq_label),
        "total_reduction_vs_isaac": comparison.total_reduction_vs_baseline(spec.trq_label),
        "baseline_adc_fraction": baseline.fraction("ADC"),
    }
    payload = {
        "key": key,
        "salt": salt if salt is not None else code_version_salt(),
        "spec": job.to_dict(),
        "row": row,
        "breakdown_rows": breakdown_rows,
        "calibration_key": job_key(job.calibration_job(), salt),
    }
    store.save(key, payload)


def worker_name(tracer: Tracer = NULL_TRACER) -> str:
    """This process's worker identity for execution metadata.

    The tracer's stream name when tracing (so meta sidecars and event
    streams name the same worker), a pid marker otherwise.
    """
    stream = getattr(tracer, "stream", None)
    return str(stream) if stream else f"pid-{os.getpid()}"


def execute_job(
    job: JobSpec,
    store: ResultStore,
    weights_cache_dir: Optional[str] = None,
    salt: Optional[str] = None,
    tracer: Tracer = NULL_TRACER,
    trace_fields: Optional[Dict[str, object]] = None,
    trial_batch: int = 1,
    inject_failure: bool = False,
) -> str:
    """Execute one atomic job, persist its artifact, return its key.

    Idempotent: if the store already holds the key, nothing is computed.
    Timing and resource usage are recorded out-of-band either way: a
    ``<store>/meta/<key>.json`` sidecar (``duration_s``, ``worker``, the
    ``trial_batch`` and ``kernel_threads`` of Monte Carlo jobs, plus
    ``cpu_s``/``max_rss_kb`` where the platform reports them) always, and
    job lifecycle events on ``tracer`` when tracing.  ``trace_fields`` carries scheduling
    context (index/wave/shard/deps) onto the events; its ``submitted_mono``
    entry — the monotonic instant the job's wave was handed to the
    executor — becomes ``queue_wait_s`` on the start event.  Neither
    touches the artifact bytes.

    ``trial_batch`` sets how many Monte Carlo trials ride through one
    batched kernel invocation (other job kinds ignore it).  It is an
    execution knob, never part of the job's content address: every value
    writes byte-identical artifacts.

    ``inject_failure`` (``--inject-failure``, a testing aid) makes the job
    raise instead of computing, even on a store hit, between its
    ``job_start`` and ``job_failed`` events like any real failure.  Every
    executor and ``shard run`` inject here.
    """
    key = job_key(job, salt)
    fields = dict(trace_fields or {})
    submitted = fields.pop("submitted_mono", None)
    if store.has(key) and not inject_failure:
        tracer.emit(
            telemetry_events.JOB_CACHED,
            key=key, kind=job.kind,
            index=fields.get("index"), wave=fields.get("wave"),
            shard=fields.get("shard"),
        )
        return key
    tracer.emit(
        telemetry_events.JOB_START,
        key=key, kind=job.kind,
        queue_wait_s=(
            max(time.monotonic() - submitted, 0.0) if submitted is not None else None
        ),
        **fields,
    )
    probe = JobResourceProbe()
    started = time.perf_counter()
    try:
        if inject_failure:
            raise RuntimeError(
                f"injected failure (--inject-failure) for {job.kind} job "
                f"{job.label_dict}"
            )
        if job.kind == "evaluate":
            if job.datapath == "pim":
                _execute_evaluate(job, store, weights_cache_dir, salt, key)
            else:
                _execute_reference_evaluate(job, store, weights_cache_dir, salt, key)
        elif job.kind == "monte_carlo":
            _execute_monte_carlo(
                job, store, weights_cache_dir, salt, key, trial_batch=trial_batch
            )
        elif job.kind == "calibration":
            _execute_calibration(job, store, weights_cache_dir, salt, key)
        elif job.kind == "distribution":
            _execute_distribution(job, store, weights_cache_dir, salt, key)
        elif job.kind == "power":
            _execute_power(job, store, weights_cache_dir, salt, key)
        else:  # pragma: no cover - JobSpec validates kinds
            raise ValueError(f"unknown job kind {job.kind!r}")
    except BaseException as error:
        tracer.emit(
            telemetry_events.JOB_FAILED,
            key=key, kind=job.kind,
            duration_s=time.perf_counter() - started,
            error=f"{type(error).__name__}: {error}",
            **fields,
        )
        raise
    duration = time.perf_counter() - started
    resources = probe.finish()
    execution = (
        {"trial_batch": int(trial_batch), "kernel_threads": threads.kernel_threads()}
        if job.kind == "monte_carlo" else {}
    )
    tracer.emit(
        telemetry_events.JOB_FINISH,
        key=key, kind=job.kind, duration_s=duration, outcome="computed",
        **execution,
        **resources,
        **fields,
    )
    store.save_meta(
        key,
        {
            "kind": job.kind, "duration_s": duration,
            "worker": worker_name(tracer), **execution, **resources,
        },
    )
    logger.debug("job %s (%s) in %.2fs", key[:12], job.kind, duration)
    return key


def _worker_execute(
    job_dict: Dict[str, object],
    store_root: str,
    weights_cache_dir: Optional[str],
    salt: Optional[str],
    inject_failure: bool = False,
    trace: Optional[Dict[str, object]] = None,
    trial_batch: int = 1,
) -> str:
    """Top-level (picklable) entry point for pool workers.

    ``trace`` (built by :meth:`ExecutionContext.worker_trace`) carries the
    run directory plus the job's scheduling context; the worker opens its
    own per-process stream there (one file per pool worker, reused across
    jobs and waves).  ``None`` means the run is untraced.  ``trial_batch``
    and ``inject_failure`` are passed on to :func:`execute_job`.
    """
    job = JobSpec.from_dict(job_dict)
    tracer: Tracer = NULL_TRACER
    trace_fields: Optional[Dict[str, object]] = None
    if trace:
        trace = dict(trace)
        tracer = process_tracer(trace.pop("dir"))
        # One resource-sampling thread per pool worker, started on the
        # worker's first traced job and living as long as the pool does.
        ensure_process_sampler(tracer)
        trace_fields = trace
    return execute_job(
        job, ResultStore(store_root), weights_cache_dir, salt,
        tracer=tracer, trace_fields=trace_fields, trial_batch=trial_batch,
        inject_failure=inject_failure,
    )


# --------------------------------------------------------------------- #
# Sweep execution
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class SweepRunStats:
    """Execution accounting of one ``run_sweep`` call."""

    total: int = 0
    cached: int = 0
    computed: int = 0
    failed: int = 0
    elapsed_s: float = 0.0


@dataclasses.dataclass
class SweepRun:
    """Outcome of :func:`run_sweep`: the ordered rows and their record.

    ``failures`` lists the tolerated failures of this invocation (empty
    unless ``max_failures`` allowed the sweep to continue past errors);
    each entry mirrors its persisted failure-log record.  Rows of failed
    jobs are absent from ``rows`` — order of the surviving rows still
    follows the grid expansion.

    ``telemetry_dir`` names the trace run directory when the sweep ran
    with tracing (``None`` otherwise) — purely informational; telemetry
    never contributes to the rows or the record.
    """

    sweep: SweepSpec
    keys: List[str]
    rows: List[Dict[str, object]]
    record: ExperimentRecord
    stats: SweepRunStats
    failures: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    telemetry_dir: Optional[str] = None


def prewarm_workloads(
    sweep_or_jobs: Union[SweepSpec, List[JobSpec]],
    weights_cache_dir: Optional[str],
    progress: Optional[Callable[[str], None]] = None,
) -> None:
    """Train (and disk-cache) every unique workload of the jobs, serially.

    Called before a process-pool run so worker processes load the
    trained weights from the cache instead of each re-training them.
    Weights are deterministic either way; this is purely a wall-clock
    optimisation.  ``run_sweep`` passes only the scheduled graph's jobs
    (pending sweep jobs plus their unsatisfied dependencies), so
    fully-cached workloads are never prepared just to be skipped.
    """
    if isinstance(sweep_or_jobs, SweepSpec):
        jobs = sweep_or_jobs.expand()
    else:
        jobs = list(sweep_or_jobs)
    seen = set()
    for job in jobs:
        spec = job.workload
        marker = repr(spec)
        if marker in seen:
            continue
        seen.add(marker)
        if progress is not None:
            progress(f"prewarm: preparing workload {spec.name} ({spec.preset})")
        _prepared_workload(job, weights_cache_dir)


def execute_graph(
    graph: JobGraph,
    executor: Executor,
    context: ExecutionContext,
    on_result: Callable[[ScheduledJob, Optional[BaseException]], None],
    progress: Optional[Callable[[str], None]] = None,
) -> None:
    """Run a job graph wave by wave on an executor.

    The generic execution loop shared by :func:`run_sweep` and the shard
    runner (:func:`repro.experiments.executors.run_shard_manifest`):

    * waves run in topological order; the nodes of one wave go to the
      executor together (it decides the parallelism);
    * when a node fails, its transitive dependents are **not** executed —
      each is reported with an :class:`UpstreamFailed` carrying the root
      cause's key, wave by wave as it is reached;
    * ``on_result(node, error-or-None)`` is called exactly once per node
      and owns the policy — it may raise (first-failure abort, exhausted
      failure budget), which unwinds through the executor's ``with`` block
      and triggers its centralised cancellation.
    """
    failed_cause: Dict[str, str] = {}
    waves = graph.waves()
    tracer = context.tracer
    # Binding gives the executor's __exit__ access to the tracer, so an
    # exceptional unwind can emit the terminal sweep_abort event.
    executor.bind(context)
    with executor:
        for number, wave in enumerate(waves, start=1):
            context.wave = number
            runnable: List[ScheduledJob] = []
            for node in wave:
                cause = next(
                    (failed_cause[dep] for dep in node.dependencies
                     if dep in failed_cause),
                    None,
                )
                if cause is not None:
                    failed_cause[node.key] = cause
                    tracer.emit(
                        telemetry_events.JOB_UPSTREAM_FAILED,
                        key=node.key, kind=node.job.kind, index=node.index,
                        wave=context.wave, shard=context.shard, cause_key=cause,
                    )
                    on_result(
                        node,
                        UpstreamFailed(
                            f"not run: upstream dependency {cause[:12]} failed",
                            cause,
                        ),
                    )
                    continue
                runnable.append(node)
            if not runnable:
                continue
            if progress is not None and len(waves) > 1:
                shared = sum(1 for node in runnable if not node.indices)
                progress(
                    f"  wave {number}/{len(waves)}: {len(runnable)} job(s)"
                    + (f" ({shared} shared artifact(s))" if shared else "")
                )
            tracer.emit(
                telemetry_events.WAVE_START,
                wave=context.wave, jobs=len(runnable),
            )
            wave_started = time.monotonic()
            for node, error in executor.run_wave(runnable, context):
                if error is not None:
                    failed_cause[node.key] = (
                        getattr(error, "cause_key", None) or node.key
                    )
                on_result(node, error)
            tracer.emit(
                telemetry_events.WAVE_FINISH,
                wave=context.wave, jobs=len(runnable),
                duration_s=time.monotonic() - wave_started,
            )


def aggregate_sweep(
    sweep: SweepSpec,
    store: Union[ResultStore, str, Path],
    salt: Optional[str] = None,
    experiment: Optional[ExperimentSpec] = None,
    stats: Optional[SweepRunStats] = None,
    failures: Optional[List[Dict[str, object]]] = None,
    expanded: Optional[List[JobSpec]] = None,
    keys: Optional[List[str]] = None,
) -> SweepRun:
    """Assemble a :class:`SweepRun` from a sweep's stored artifacts.

    Deterministic aggregation: rows come from the store in grid-expansion
    order (so completion order / worker count / shard layout / resume
    history cannot influence them), with each job's grid-coordinate labels
    merged in from the spec.  Jobs whose artifact is absent (tolerated
    failures, jobs another shard has not finished) contribute no row; a
    stored key with a stale failure entry has healed, so its entry is
    cleared.

    This is both the tail of :func:`run_sweep` and the whole of ``shard
    merge`` — which is exactly why a merged multi-shard run is
    byte-identical to a single-process one.

    ``expanded``/``keys`` let :func:`run_sweep` hand over its already
    computed expansion instead of re-hashing every spec; both default to a
    fresh expansion of ``sweep``.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    if expanded is None:
        expanded = sweep.expand()
    if keys is None:
        keys = [job_key(job, salt) for job in expanded]
    failure_log = FailureLog(store)
    rows: List[Dict[str, object]] = []
    for job, key in zip(expanded, keys):
        if not store.has(key):
            continue
        if failure_log.has(key):
            failure_log.clear(key)
        rows.append({**job.label_dict, **store.load(key)["row"]})

    if stats is None:
        stats = SweepRunStats(total=len(expanded), cached=len(rows))
    failures = failures if failures is not None else []
    if experiment is None:
        experiment = ExperimentSpec(experiment_id=sweep.name, sweep=sweep)
    metadata = {
        "sweep": sweep.to_dict(),
        "salt": salt if salt is not None else code_version_salt(),
        "num_jobs": len(expanded),
        "job_keys": keys,
    }
    if failures:
        metadata["failures"] = [
            {
                "index": f["index"], "key": f["key"], "kind": f["kind"],
                "label": f["label"], "error": f["error"],
                **({"cause_key": f["cause_key"]} if f.get("cause_key") else {}),
            }
            for f in failures
        ]
    record = ExperimentRecord(
        experiment_id=experiment.experiment_id,
        description=experiment.description or f"experiment sweep '{sweep.name}'",
        paper_reference=experiment.paper_reference,
        rows=rows,
        metadata=metadata,
    )
    return SweepRun(
        sweep=sweep, keys=keys, rows=rows, record=record, stats=stats,
        failures=failures,
    )


def check_inject_failures(
    inject_failures: Collection[int], job_count: int
) -> frozenset:
    """The injected-failure indices as a set, each checked to index a sweep
    of ``job_count`` jobs.  An index outside it would inject nothing, so a
    failure-path run would pass without exercising the failure path; it
    raises ``ValueError`` naming the indices and the range instead."""
    inject = frozenset(int(index) for index in inject_failures)
    outside = sorted(index for index in inject if not 0 <= index < job_count)
    if outside:
        raise ValueError(
            f"inject_failures {outside} lie outside the sweep's job indices "
            f"[0, {job_count})"
        )
    return inject


def run_sweep(
    sweep: SweepSpec,
    store: Union[ResultStore, str, Path],
    jobs: int = 1,
    force: bool = False,
    weights_cache_dir: Optional[str] = None,
    salt: Optional[str] = None,
    prewarm: Optional[bool] = None,
    experiment: Optional[ExperimentSpec] = None,
    progress: Optional[Callable[[str], None]] = None,
    max_failures: Optional[int] = None,
    inject_failures: Collection[int] = (),
    executor: Union[str, Executor, None] = None,
    trace: bool = False,
    history: Union[str, Path, None] = None,
    trial_batch: int = 1,
) -> SweepRun:
    """Execute a sweep against a result store and aggregate its table.

    Parameters
    ----------
    jobs:
        Worker processes of the ``process`` executor; ``1`` selects the
        ``serial`` executor (unless ``executor`` says otherwise).
    force:
        Delete the sweep's existing artifacts — including every shared
        sibling its jobs depend on (clean references, distribution
        captures, calibration siblings) — first, recomputing everything.
    prewarm:
        Train workload weights in the parent before forking workers.
        Defaults to ``executor.needs_prewarm and weights_cache_dir is not
        None``.
    experiment:
        Reporting identity; defaults to one derived from the sweep name.
    max_failures:
        ``None`` (default): the first failing job aborts the sweep (after
        logging it).  ``N >= 0``: tolerate up to ``N`` failed jobs — each is
        recorded in the store's failure log and its row is absent from the
        aggregate; failure ``N+1`` aborts with :class:`MaxFailuresExceeded`.
        A failed job's transitive dependents are marked failed-with-cause
        (logged with ``cause_key``) but the whole subtree consumes **one**
        unit of the budget — the root.
    inject_failures:
        Job indices forced to raise instead of executing — a testing aid
        (the CLI's ``--inject-failure``) for exercising the failure path
        end to end.  Each must index the expanded sweep
        (:func:`check_inject_failures`).  Injected failures follow the same
        logging/tolerance rules as real ones.
    executor:
        ``"serial"``, ``"process"``, an
        :class:`~repro.experiments.executors.Executor` instance, or
        ``None`` for the historical default (process pool iff
        ``jobs > 1``).  Runs across machines use shard manifests instead
        (``shard emit`` / ``run`` / ``merge``).
    trace:
        Telemetry: ``True`` records the sweep to a fresh run directory
        under ``<store>/telemetry/<new run id>/`` (``SweepRun.telemetry_dir``
        names it); ``False`` (default) disables tracing entirely (the
        no-op tracer costs one dynamic call per would-be event).  Tracing
        is strictly out-of-band: rows, records and store artifacts are
        byte-identical with it on or off.
    history:
        Path of a perf-history JSONL log (see
        :mod:`repro.telemetry.history`).  When set *and* the sweep is
        traced, a compact summary record (elapsed, critical path, cache
        efficiency, per-kind quantiles, peak RSS) is appended after the
        sweep completes.  ``None`` (default) records no history; untraced
        sweeps never do (there is nothing to summarise).
    trial_batch:
        Monte Carlo trials per batched kernel invocation (``1`` keeps the
        per-trial loop).  Every executor runs each Monte Carlo job on its
        own and batches that job's trials.  Purely a wall-clock knob: job
        hashes, store artifacts and rows are byte-identical for every
        value.

    The returned :class:`SweepRun` carries rows in expansion order; the
    aggregate is identical whether the sweep ran serially, in parallel,
    merged from shards, or across several interrupted+resumed
    invocations, because rows are read back from the content-addressed
    artifacts.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if trial_batch < 1:
        raise ValueError(f"trial_batch must be >= 1, got {trial_batch}")
    if max_failures is not None and max_failures < 0:
        raise ValueError(f"max_failures must be None or >= 0, got {max_failures}")
    expanded = sweep.expand()
    inject = check_inject_failures(inject_failures, len(expanded))
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    # Writers killed mid-stage (SIGKILL, lost workers) leave dead temp
    # files behind; sweep them before scheduling so they never accumulate.
    store.sweep_stale_tmps()
    exec_instance = resolve_executor(executor, jobs=jobs)
    tracer = resolve_tracer(trace, store.root)
    telemetry_dir = str(tracer.directory) if tracer.enabled else None
    started = time.perf_counter()
    keys = [job_key(job, salt) for job in expanded]
    failure_log = FailureLog(store)
    failures: List[Dict[str, object]] = []

    if force:
        # Everything the sweep could recompute, shared siblings included.
        for key in expanded_artifacts(expanded, salt):
            store.delete(key)
        _CLEAN_MEMO.clear()
        _DISTRIBUTION_MEMO.clear()

    pending = [
        (index, job) for index, (job, key) in enumerate(zip(expanded, keys))
        if not store.has(key)
    ]
    stats = SweepRunStats(total=len(expanded), cached=len(expanded) - len(pending))

    # Dependency layer: dedupe the pending jobs and their (transitive)
    # dependencies into one content-addressed graph.
    graph = build_job_graph(pending, store, salt)

    if tracer.enabled:
        write_run_manifest(
            telemetry_dir,
            run_id=tracer.run_id,
            sweep=sweep.name,
            executor=exec_instance.name,
            jobs=jobs,
            salt=salt if salt is not None else code_version_salt(),
            total=stats.total,
        )
        if len(graph):
            # The exact scheduled adjacency, for offline critical-path
            # analysis (job events carry deps too; this is the whole
            # graph in one read).
            write_graph(
                telemetry_dir,
                {
                    node.key: {
                        "kind": node.job.kind,
                        "index": node.index,
                        "deps": list(node.dependencies),
                    }
                    for node in graph
                },
            )
        tracer.emit(
            telemetry_events.SWEEP_START,
            sweep=sweep.name, executor=exec_instance.name, jobs=jobs,
            total=stats.total, cached=stats.cached, pending=len(pending),
            scheduled=len(graph),
        )
        pending_indices = {index for index, _ in pending}
        for index, (job, key) in enumerate(zip(expanded, keys)):
            if index not in pending_indices:
                tracer.emit(
                    telemetry_events.JOB_CACHED,
                    key=key, kind=job.kind, index=index,
                )
        tracer.counter(telemetry_events.COUNTER_CACHE_HITS, stats.cached)
        tracer.counter(telemetry_events.COUNTER_CACHE_MISSES, len(pending))
        tracer.counter(telemetry_events.COUNTER_JOBS_TOTAL, stats.total)

    # Periodic resource samples from the orchestrating process; pool
    # workers start their own (see _worker_execute).
    sampler = ResourceSampler(tracer).start() if tracer.enabled else None

    if progress is not None:
        shared = sum(1 for node in graph if not node.indices)
        progress(
            f"sweep '{sweep.name}': {stats.total} jobs, {stats.cached} cached, "
            f"{len(pending)} to run"
            + (f" (+{shared} shared artifact(s))" if shared else "")
            + f" [executor={exec_instance.name}, jobs={jobs}]"
        )

    root_failures = 0

    def on_result(node: ScheduledJob, error: Optional[BaseException]) -> None:
        """The failure policy: log, propagate-with-cause, enforce budget."""
        nonlocal root_failures
        if error is None:
            # A success heals any stale failure entry — including those of
            # shared dependency nodes, whose keys the grid-order clearing
            # in aggregate_sweep never visits.
            if failure_log.has(node.key):
                failure_log.clear(node.key)
            stats.computed += len(node.indices)
            if progress is not None:
                if node.indices:
                    progress(f"  [{stats.cached + stats.computed}/{stats.total}] "
                             f"{node.describe()}")
                else:
                    progress(f"  shared {node.describe()}")
            return
        propagated = isinstance(error, UpstreamFailed)
        cause_key = getattr(error, "cause_key", None)
        entry = failure_log.record(
            node.key, node.job, error, index=node.index, cause_key=cause_key
        )
        failures.append(entry)
        stats.failed += 1
        if progress is not None:
            index_text = "-" if node.index is None else str(node.index)
            progress(f"  FAILED [{index_text}] {node.describe()}: "
                     f"{entry['error']} (logged to {failure_log.path(node.key)})")
        if propagated:
            return  # the root already consumed its unit of the budget
        root_failures += 1
        if max_failures is None:
            raise error
        if root_failures > max_failures:
            propagated_count = stats.failed - root_failures
            raise MaxFailuresExceeded(
                f"sweep '{sweep.name}' exceeded max_failures={max_failures} "
                f"({root_failures} root failure(s)"
                + (f" + {propagated_count} propagated dependent(s)"
                   if propagated_count else "")
                + f"; see {failure_log.root})"
            ) from error

    try:
        if len(graph):
            if prewarm is None:
                prewarm = exec_instance.needs_prewarm and weights_cache_dir is not None
            if prewarm:
                prewarm_started = time.monotonic()
                tracer.emit(telemetry_events.PREWARM_START)
                prewarm_workloads(
                    [node.job for node in graph], weights_cache_dir, progress
                )
                prewarm_s = time.monotonic() - prewarm_started
                tracer.emit(telemetry_events.PREWARM_FINISH, duration_s=prewarm_s)
                tracer.counter(telemetry_events.COUNTER_PREWARM_S, prewarm_s)
            context = ExecutionContext(
                store=store,
                weights_cache_dir=weights_cache_dir,
                salt=salt,
                inject=inject,
                tracer=tracer,
                trace_dir=telemetry_dir,
                trial_batch=trial_batch,
            )
            execute_graph(graph, exec_instance, context, on_result, progress)
    finally:
        # The trace ends cleanly even when the failure policy aborts the
        # sweep — a truncated run is exactly when the timeline matters.
        if sampler is not None:
            sampler.stop()
        if tracer.enabled:
            tracer.emit(
                telemetry_events.SWEEP_FINISH,
                elapsed_s=time.perf_counter() - started,
                computed=stats.computed, failed=stats.failed, cached=stats.cached,
            )
            tracer.counter(telemetry_events.COUNTER_JOBS_COMPUTED, stats.computed)
            tracer.counter(telemetry_events.COUNTER_JOBS_FAILED, stats.failed)
            tracer.close()

    run = aggregate_sweep(
        sweep, store, salt=salt, experiment=experiment,
        stats=stats, failures=failures, expanded=expanded, keys=keys,
    )
    run.telemetry_dir = telemetry_dir
    stats.elapsed_s = time.perf_counter() - started
    if history is not None and telemetry_dir is not None:
        # Best-effort by design: a malformed trace must never fail a sweep
        # whose rows are already aggregated.
        try:
            from repro.telemetry.analysis import (
                load_run, summarize, summary_to_jsonable,
            )
            from repro.telemetry.history import append_history, history_record

            record = history_record(
                summary_to_jsonable(summarize(load_run(telemetry_dir))),
                executor=exec_instance.name,
                trial_batch=trial_batch,
                kernel_threads=exec_instance.kernel_threads,
            )
            append_history(history, record)
        except Exception as error:  # noqa: BLE001 - history is advisory
            logger.warning("perf-history append failed: %s", error)
    return run
