"""Parallel experiment orchestration.

Declarative sweep specs over (workload × ADC config × non-ideality stack ×
Monte Carlo seed), a content-addressed result store keyed on the
fully-resolved job spec plus a code-version salt, and a resumable
serial/parallel executor with deterministic aggregation.  See
:mod:`repro.experiments.spec`, :mod:`repro.experiments.store` and
:mod:`repro.experiments.runner`; ``python -m repro.experiments`` is the CLI.

Quickstart::

    from repro.experiments import build_preset, run_sweep

    experiment = build_preset("multi-workload-robustness", smoke=True)
    run = run_sweep(experiment.sweep, "benchmarks/results/store", jobs=2,
                    weights_cache_dir="benchmarks/.cache")
    print(run.record.to_table())
"""

from repro.experiments.executors import (
    ExecutionContext,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    load_shard_manifest,
    manifest_result_path,
    plan_shards,
    resolve_executor,
    run_shard_manifest,
    write_shard_manifests,
)
from repro.experiments.presets import available_presets, build_preset
from repro.experiments.runner import (
    MaxFailuresExceeded,
    SweepRun,
    SweepRunStats,
    aggregate_sweep,
    clear_runner_memos,
    execute_graph,
    execute_job,
    prewarm_workloads,
    run_sweep,
    worker_name,
)
from repro.experiments.scheduler import (
    JobGraph,
    ScheduledJob,
    UpstreamFailed,
    build_job_graph,
    expanded_artifacts,
)
from repro.experiments.spec import (
    AdcSpec,
    CalibrationParams,
    DistributionParams,
    ExperimentSpec,
    JobSpec,
    NoiseScenario,
    PowerSpec,
    SweepSpec,
    WorkloadSpec,
)
from repro.experiments.store import (
    FailureLog,
    ResultStore,
    StoreLock,
    code_version_salt,
    job_key,
)

__all__ = [
    "AdcSpec",
    "CalibrationParams",
    "DistributionParams",
    "ExecutionContext",
    "Executor",
    "ExperimentSpec",
    "FailureLog",
    "JobGraph",
    "JobSpec",
    "MaxFailuresExceeded",
    "NoiseScenario",
    "PowerSpec",
    "ProcessPoolExecutor",
    "ResultStore",
    "ScheduledJob",
    "SerialExecutor",
    "StoreLock",
    "SweepRun",
    "SweepRunStats",
    "SweepSpec",
    "UpstreamFailed",
    "WorkloadSpec",
    "aggregate_sweep",
    "available_presets",
    "build_job_graph",
    "build_preset",
    "clear_runner_memos",
    "code_version_salt",
    "execute_graph",
    "execute_job",
    "expanded_artifacts",
    "job_key",
    "load_shard_manifest",
    "manifest_result_path",
    "plan_shards",
    "prewarm_workloads",
    "resolve_executor",
    "run_shard_manifest",
    "run_sweep",
    "worker_name",
    "write_shard_manifests",
]
