"""Out-of-band sweep telemetry: tracing, metrics, analysis, history.

Five layers:

* :mod:`repro.telemetry.events` — the event schema (names, envelope
  fields, counter names).
* :mod:`repro.telemetry.tracer` — emission: :class:`JsonlTracer` writes
  per-process JSONL streams under ``<store>/telemetry/<run_id>/``;
  :data:`NULL_TRACER` is the disabled no-op.
* :mod:`repro.telemetry.resources` — per-process resource metrics:
  per-job CPU/peak-RSS probes and the periodic ``resource_sample``
  daemon thread (stdlib ``getrusage`` + ``/proc``; no-op elsewhere).
* :mod:`repro.telemetry.analysis` — reconstruction: pairs job events into
  a timeline, extracts the critical path, computes per-wave utilization,
  finds stragglers, and summarises cache efficiency.
* :mod:`repro.telemetry.history` — durable perf history: one JSONL
  record per traced sweep plus two-gate regression comparison
  (``trace history``, ``trace regress``).

A trace is read once its run has ended.  Telemetry never feeds back into
job addressing or stored artifacts — traced and untraced sweeps produce
byte-identical aggregates.
"""

from repro.telemetry.analysis import (
    JobExecution,
    Straggler,
    TraceRun,
    WaveStats,
    cache_summary,
    critical_path,
    execution_to_dict,
    find_stragglers,
    kind_histogram,
    load_run,
    quantile,
    resource_summary,
    summarize,
    summary_to_jsonable,
    wave_stats,
)
from repro.telemetry.events import TELEMETRY_DIRNAME, TELEMETRY_FORMAT
from repro.telemetry.history import (
    Regression,
    append_history,
    compare_records,
    default_history_path,
    find_baseline,
    history_record,
    load_history,
)
from repro.telemetry.resources import (
    JobResourceProbe,
    ResourceSampler,
    ensure_process_sampler,
    resources_supported,
    sample_resources,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    JsonlTracer,
    Tracer,
    latest_run,
    list_runs,
    load_events,
    new_run_id,
    process_tracer,
    resolve_tracer,
    run_directory,
    telemetry_root,
    write_graph,
    write_run_manifest,
)

__all__ = [
    "TELEMETRY_DIRNAME",
    "TELEMETRY_FORMAT",
    "JobExecution",
    "JobResourceProbe",
    "JsonlTracer",
    "NULL_TRACER",
    "Regression",
    "ResourceSampler",
    "Straggler",
    "TraceRun",
    "Tracer",
    "WaveStats",
    "append_history",
    "cache_summary",
    "compare_records",
    "critical_path",
    "default_history_path",
    "ensure_process_sampler",
    "execution_to_dict",
    "find_baseline",
    "find_stragglers",
    "history_record",
    "kind_histogram",
    "latest_run",
    "list_runs",
    "load_events",
    "load_history",
    "load_run",
    "new_run_id",
    "process_tracer",
    "quantile",
    "resolve_tracer",
    "resource_summary",
    "resources_supported",
    "run_directory",
    "sample_resources",
    "summarize",
    "summary_to_jsonable",
    "telemetry_root",
    "wave_stats",
    "write_graph",
    "write_run_manifest",
]
