"""Unified experiment-orchestration CLI.

::

    python -m repro.experiments list
    python -m repro.experiments show robustness-noise --smoke
    python -m repro.experiments run robustness-noise --smoke --jobs 2
    python -m repro.experiments run --preset fig6 --smoke --max-failures 1
    python -m repro.experiments run --preset fig6 --executor sharded --shards 4
    python -m repro.experiments run path/to/sweep.json --force

    # Multi-machine sharding: partition once, run anywhere, merge at the end.
    python -m repro.experiments shard emit --preset fig6 --shards 2 --dir shards/
    python -m repro.experiments shard run shards/fig6-shard0of2.json
    python -m repro.experiments shard run shards/fig6-shard1of2.json
    python -m repro.experiments shard merge shards/ --out fig6_sweep.json

    # Observability: live progress, recorded traces, perf history.
    python -m repro.experiments run --preset fig6 --smoke --progress
    python -m repro.experiments trace watch            # follow the newest run
    python -m repro.experiments trace summary --json
    python -m repro.experiments trace history
    python -m repro.experiments trace regress --baseline first

``run``/``show`` accept either a built-in preset name (``list`` shows them;
the ``--preset`` flag is an explicit spelling of the same thing) or a path
to a JSON file holding an :class:`~repro.experiments.spec.ExperimentSpec`
(or bare ``SweepSpec``) dict.  Completed jobs land in the content-addressed
store and are skipped on the next invocation; an interrupted sweep (Ctrl-C,
crash, CI timeout) therefore resumes where it left off — ``--resume`` is the
default and spelled out only for scripts that want to be explicit.  Use
``--force`` to discard the sweep's cached artifacts and recompute.

``--executor`` selects how pending jobs run: ``serial`` (in-process),
``process`` (a worker pool of ``--jobs`` processes) or ``sharded`` (up to
``--shards`` ``shard run`` subprocesses per scheduler wave against the same
store, driving the same manifests as the ``shard`` subcommand, with
dropped-shard re-dispatch and straggler backups — ``--force-redispatch``
forces a duplicate backup attempt per shard).  Omitted, it keeps the
historical default: a process pool iff ``--jobs`` > 1.

Failures: a job that raises is recorded (spec + traceback) in the store's
failure log and surfaced by ``show`` together with each entry's age;
``--max-failures N`` lets a sweep tolerate up to ``N`` failed jobs instead
of aborting on the first one (a failed job's dependents are marked
failed-with-cause and the whole subtree counts once).  Rerunning the sweep
retries failed jobs and clears healed log entries; ``show
--expire-failures SECONDS`` drops entries older than the given age.

``run`` on a ``fig*`` preset additionally renders the paper-style figure
tables (JSON + markdown + CSV, plus ASCII bar charts with ``--ascii``) from
the stored rows — the same reporting path the ``bench_fig*.py`` shims use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from pathlib import Path
from typing import List, Optional, Union

from repro.experiments.executors import (
    EXECUTOR_NAMES,
    ShardedExecutor,
    load_shard_manifest,
    manifest_result_path,
    run_shard_manifest,
    write_shard_manifests,
)
from repro.experiments.presets import FIGURE_PRESETS, available_presets, build_preset
from repro.experiments.runner import (
    MaxFailuresExceeded,
    aggregate_sweep,
    run_sweep,
)
from repro.experiments.scheduler import expanded_artifacts
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.experiments.store import (
    FailureLog,
    ResultStore,
    code_version_salt,
    job_key,
)
from repro.telemetry import analysis as trace_analysis
from repro.telemetry import history as trace_history
from repro.telemetry import live as trace_live
from repro.telemetry.tracer import (
    latest_run,
    list_runs,
    load_run_manifest,
    new_run_id,
    run_directory,
    stream_paths,
)
from repro.utils.logging import set_verbosity, verbosity_to_level

DEFAULT_STORE = Path("benchmarks") / "results" / "store"
DEFAULT_CACHE = Path("benchmarks") / ".cache"
DEFAULT_OUT_DIR = Path("benchmarks") / "results"
DEFAULT_SHARD_DIR = Path("benchmarks") / "results" / "shards"
DEFAULT_HISTORY = trace_history.default_history_path(DEFAULT_OUT_DIR)


def _positive_int(text: str) -> int:
    """The argparse type of count flags: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # rejected below, like any other value < 1
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def load_experiment(spec: str, smoke: bool = False) -> ExperimentSpec:
    """Resolve a CLI spec argument: preset name or JSON file path."""
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        experiment = ExperimentSpec.from_dict(json.loads(path.read_text()))
        if smoke:
            raise SystemExit(
                "--smoke only applies to built-in presets; shrink the JSON "
                "spec itself for a smoke variant"
            )
        return experiment
    return build_preset(spec, smoke=smoke)


def _resolve_spec(args: argparse.Namespace) -> str:
    """One spec from the positional argument or ``--preset`` (exactly one)."""
    if args.spec is not None and args.preset is not None:
        raise SystemExit("pass either a positional spec or --preset, not both")
    spec = args.spec if args.spec is not None else args.preset
    if spec is None:
        raise SystemExit(
            "missing experiment: pass a preset name / JSON path, or --preset "
            f"NAME (available: {', '.join(available_presets())})"
        )
    return spec


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", nargs="?", default=None,
                        help="preset name or JSON spec path")
    parser.add_argument("--preset", default=None, metavar="NAME",
                        help="built-in preset name (alternative spelling of "
                             "the positional spec)")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-fast smoke variant of a preset")


def _add_verbosity_arguments(
    parser: argparse.ArgumentParser, subparser: bool = True
) -> None:
    """``-v/-vv/-q`` on a (sub)parser, wired to ``set_verbosity`` in main.

    The main parser carries the real defaults; subparsers use
    ``argparse.SUPPRESS`` so the flag works on either side of the
    subcommand (``-v run ...`` and ``run ... -v``) without the
    subparser's default clobbering a main-side flag.
    """
    default: object = argparse.SUPPRESS if subparser else 0
    parser.add_argument("-v", "--verbose", action="count", default=default,
                        help="library log verbosity: -v progress (INFO), "
                             "-vv per-job detail (DEBUG)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        default=argparse.SUPPRESS if subparser else False,
                        help="errors only")


def _add_trace_selection_arguments(parser: argparse.ArgumentParser) -> None:
    """How ``trace`` subcommands pick a run: newest, by id, or by path."""
    parser.add_argument("--store", type=Path, default=DEFAULT_STORE,
                        help="result store whose telemetry/ directory to "
                             f"read (default {DEFAULT_STORE})")
    parser.add_argument("--run", default=None, metavar="RUN_ID",
                        help="run id under <store>/telemetry/ (default: "
                             "the newest run)")
    parser.add_argument("--sweep", default=None, metavar="NAME",
                        help="restrict the default (newest-run) selection "
                             "to runs of this sweep")
    parser.add_argument("--dir", type=Path, default=None, metavar="DIR",
                        help="explicit trace run directory (overrides "
                             "--store/--run; what `shard run --trace-dir` "
                             "wrote)")


def _default_out_path(experiment_id: str) -> Path:
    """The canonical aggregate path of an experiment — shared by ``run``
    and ``shard merge`` so the two default outputs always coincide.

    Figure presets render their figure tables under the canonical
    ``fig*.json`` stems; the sweep aggregate gets a distinct ``_sweep``
    suffix so neither overwrites the other.
    """
    stem = experiment_id.replace("/", "_").replace("-", "_")
    suffix = "_sweep" if experiment_id in FIGURE_PRESETS else ""
    return DEFAULT_OUT_DIR / f"{stem}{suffix}.json"


def _format_age(seconds: Optional[float]) -> str:
    if seconds is None:
        return "age unknown"
    seconds = max(0.0, seconds)
    if seconds < 120:
        return f"{seconds:.0f}s old"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m old"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h old"
    return f"{seconds / 86400:.1f}d old"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Declarative, cached, parallel experiment sweeps.",
        epilog="See docs/experiments.md for the spec/store/runner model and "
               "docs/reproducing-figures.md for the paper-figure presets.",
    )
    _add_verbosity_arguments(parser, subparser=False)
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser(
        "list",
        help="list built-in experiment presets",
        epilog="Preset factories live in repro/experiments/presets.py; each "
               "has a --smoke variant sized for CI.",
    )
    _add_verbosity_arguments(listing)

    show = sub.add_parser(
        "show",
        help="print a sweep's expanded jobs, store status and failures",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Status per job: 'stored' (artifact present, will be served "
               "from cache), 'failed' (a logged failure; its traceback and "
               "age are printed below the job list), 'pending' (will compute "
               "on the next run).  Point --store at the store a run used to "
               "inspect that run's state.",
    )
    _add_spec_arguments(show)
    _add_verbosity_arguments(show)
    show.add_argument("--store", type=Path, default=DEFAULT_STORE,
                      help=f"result store to check against (default {DEFAULT_STORE})")
    show.add_argument("--expire-failures", type=float, default=None,
                      metavar="SECONDS",
                      help="drop THIS sweep's failure-log entries older "
                           "than SECONDS before listing (stale entries from "
                           "long-dead runs stop shadowing fresh state; "
                           "other sweeps' entries in a shared store are "
                           "untouched)")

    run = sub.add_parser(
        "run",
        help="execute a sweep against the result store",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Completed jobs are content-addressed in the store, so "
               "rerunning an identical sweep is a full cache hit and an "
               "interrupted one resumes byte-identically.  A fig* preset "
               "also renders its paper-style figure tables (JSON/markdown/"
               "CSV; add --ascii for terminal bar charts) into the output "
               "directory.",
    )
    _add_spec_arguments(run)
    _add_verbosity_arguments(run)
    run.add_argument("--trace", action="store_true",
                     help="record sweep telemetry (JSONL event streams) to "
                          "<store>/telemetry/<run id>/; inspect with the "
                          "'trace' subcommands")
    run.add_argument("--progress", action="store_true",
                     help="render live sweep progress (per-wave counts, "
                          "running-job ages, ETA) while the sweep executes; "
                          "implies --trace.  Uses ANSI redraw on a TTY and "
                          "plain snapshot lines otherwise (or with --ascii)")
    run.add_argument("--history", type=Path, default=None, metavar="PATH",
                     help="perf-history JSONL log a traced run appends its "
                          f"summary record to (default {DEFAULT_HISTORY}; "
                          "only written when tracing)")
    run.add_argument("--no-history", action="store_true",
                     help="skip the perf-history append even when tracing")
    run.add_argument("--jobs", type=_positive_int, default=1,
                     help="parallel worker processes (default 1: in-process)")
    run.add_argument("--executor", choices=EXECUTOR_NAMES, default=None,
                     help="execution strategy (default: process pool iff "
                          "--jobs > 1, else serial)")
    run.add_argument("--shards", type=_positive_int, default=2, metavar="N",
                     help="--executor sharded: at most N 'shard run' "
                          "subprocesses per scheduler wave, all writing "
                          "the --store (default 2)")
    run.add_argument("--trial-batch", type=_positive_int, default=1, metavar="N",
                     help="Monte Carlo trials per batched kernel invocation "
                          "(default 1: the per-trial loop); every executor "
                          "batches each job's trials.  N > 1 also coalesces "
                          "sibling per-seed MC jobs into one batched "
                          "execution on the serial and sharded executors "
                          "(per shard on the latter), not on the process "
                          "pool.  Results are byte-identical for every N; "
                          "this is purely a wall-clock knob")
    run.add_argument("--force-redispatch", action="store_true",
                     help="--executor sharded only: dispatch a duplicate "
                          "backup attempt of every shard immediately "
                          "(exercises the straggler re-dispatch path; "
                          "results are byte-identical by construction)")
    run.add_argument("--resume", action="store_true", default=True,
                     help="skip jobs already in the store (default)")
    run.add_argument("--force", action="store_true",
                     help="drop the sweep's cached artifacts (shared "
                          "siblings included) and recompute")
    run.add_argument("--max-failures", type=int, default=None, metavar="N",
                     help="tolerate up to N failed jobs (logged to the "
                          "store's failure log; a failure's dependents are "
                          "marked failed-with-cause and count once) instead "
                          "of aborting on the first failure")
    run.add_argument("--inject-failure", type=int, action="append", default=None,
                     metavar="INDEX",
                     help="force the job at INDEX to fail (testing aid for "
                          "the failure path; repeatable)")
    run.add_argument("--ascii", action="store_true",
                     help="also render figure tables as ASCII bar charts "
                          "(<figure>.txt; fig* presets only)")
    run.add_argument("--store", type=Path, default=DEFAULT_STORE,
                     help=f"result store directory (default {DEFAULT_STORE})")
    run.add_argument("--cache-dir", type=Path, default=DEFAULT_CACHE,
                     help=f"trained-weight cache (default {DEFAULT_CACHE})")
    run.add_argument("--out", type=Path, default=None,
                     help="aggregate record path "
                          f"(default {DEFAULT_OUT_DIR}/<experiment>.json)")

    shard = sub.add_parser(
        "shard",
        help="partition a sweep into shard manifests, run one, merge results",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="The multi-machine flow: 'emit' writes N self-contained JSON "
               "manifests (job-key lists); each 'run' executes one manifest "
               "against the shared content-addressed store (independent "
               "processes or machines, any order, restartable); 'merge' "
               "re-expands the sweep, checks completeness and assembles the "
               "aggregate — byte-identical to a single-process run, because "
               "rows are read back from the same artifacts.",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    emit = shard_sub.add_parser(
        "emit", help="write N shard manifests for a sweep")
    _add_spec_arguments(emit)
    _add_verbosity_arguments(emit)
    emit.add_argument("--shards", type=_positive_int, default=2, metavar="N",
                      help="number of manifests to emit (default 2)")
    emit.add_argument("--dir", type=Path, default=DEFAULT_SHARD_DIR,
                      help=f"manifest directory (default {DEFAULT_SHARD_DIR})")
    emit.add_argument("--store", type=Path, default=DEFAULT_STORE,
                      help="store the next-step hint commands point at "
                           f"(default {DEFAULT_STORE})")

    shard_run = shard_sub.add_parser(
        "run", help="execute one shard manifest against the store")
    _add_verbosity_arguments(shard_run)
    shard_run.add_argument("manifest", type=Path, help="shard manifest path")
    shard_run.add_argument("--store", type=Path, default=DEFAULT_STORE,
                           help=f"result store directory (default {DEFAULT_STORE})")
    shard_run.add_argument("--cache-dir", type=Path, default=DEFAULT_CACHE,
                           help=f"trained-weight cache (default {DEFAULT_CACHE})")
    shard_run.add_argument("--result", type=Path, default=None,
                           help="per-job status output "
                                "(default <manifest stem>.result.json)")
    shard_run.add_argument("--trace-dir", type=Path, default=None,
                           metavar="DIR",
                           help="append this shard's telemetry stream to the "
                                "trace run directory DIR (shards of one run "
                                "share a DIR; inspect with 'trace ... --dir')")

    merge = shard_sub.add_parser(
        "merge", help="merge shard results into the sweep aggregate")
    _add_verbosity_arguments(merge)
    merge.add_argument("manifests", type=Path, nargs="+",
                       help="shard manifest paths, or a directory of them")
    merge.add_argument("--store", type=Path, default=DEFAULT_STORE,
                       help=f"result store directory (default {DEFAULT_STORE})")
    merge.add_argument("--out", type=Path, default=None,
                       help="aggregate record path "
                            f"(default {DEFAULT_OUT_DIR}/<experiment>.json)")

    trace = sub.add_parser(
        "trace",
        help="inspect recorded sweep telemetry",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Telemetry runs live under <store>/telemetry/<run id>/ — one "
               "JSONL event stream per participating process, written by "
               "'run --trace' (or 'shard run --trace-dir').  'list' "
               "enumerates runs, 'show' prints the merged time-ordered "
               "event stream, 'summary' the reconstructed timeline "
               "(utilization, stragglers, cache efficiency), "
               "'critical-path' the dependency chain that bounded the "
               "sweep's wall-clock, 'watch' follows a run live, and "
               "'history'/'regress' read the durable perf-history log.  "
               "See docs/observability.md.",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_list = trace_sub.add_parser(
        "list", help="list a store's recorded trace runs")
    _add_verbosity_arguments(trace_list)
    trace_list.add_argument("--store", type=Path, default=DEFAULT_STORE,
                            help="result store whose telemetry/ directory to "
                                 f"list (default {DEFAULT_STORE})")

    trace_show = trace_sub.add_parser(
        "show", help="print a run's merged JSONL event stream")
    _add_verbosity_arguments(trace_show)
    _add_trace_selection_arguments(trace_show)
    trace_show.add_argument("--event", action="append", default=None,
                            metavar="NAME",
                            help="only events of this name (repeatable)")
    trace_show.add_argument("--limit", type=int, default=None, metavar="N",
                            help="print only the first N matching events")

    trace_summary = trace_sub.add_parser(
        "summary",
        help="summarise a run: jobs, waves, utilization, stragglers, cache")
    _add_verbosity_arguments(trace_summary)
    _add_trace_selection_arguments(trace_summary)
    trace_summary.add_argument("--straggler-factor", type=float, default=2.0,
                               metavar="F",
                               help="flag a worker when its per-wave busy "
                                    "time exceeds F x the wave median "
                                    "(default 2.0)")
    trace_summary.add_argument("--straggler-min-gap", type=float, default=5.0,
                               metavar="SECONDS",
                               help="...and the absolute gap exceeds SECONDS "
                                    "(default 5.0; keeps seconds-fast smoke "
                                    "runs quiet)")
    trace_summary.add_argument("--json", action="store_true",
                               help="print the summary as one JSON object "
                                    "(the same schema history.jsonl records "
                                    "are built from) instead of text")

    trace_cp = trace_sub.add_parser(
        "critical-path",
        help="print the executed dependency chain that bounded wall-clock")
    _add_verbosity_arguments(trace_cp)
    _add_trace_selection_arguments(trace_cp)
    trace_cp.add_argument("--json", action="store_true",
                          help="print the chain as one JSON object instead "
                               "of text")

    trace_watch = trace_sub.add_parser(
        "watch",
        help="follow a (possibly still running) trace run live",
        epilog="Tails the run's event streams as they grow — torn tails and "
               "streams appearing mid-run are fine; no locks are taken — and "
               "redraws a progress snapshot until the sweep records a "
               "terminal event (sweep_finish/sweep_abort).  Exits 0 on "
               "completion, 1 when --timeout expires first.",
    )
    _add_verbosity_arguments(trace_watch)
    _add_trace_selection_arguments(trace_watch)
    trace_watch.add_argument("--interval", type=float, default=0.5,
                             metavar="SECONDS",
                             help="polling interval (default 0.5)")
    trace_watch.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="give up after SECONDS without a terminal "
                                  "event (default: wait indefinitely)")
    trace_watch.add_argument("--ascii", action="store_true",
                             help="plain snapshot lines instead of ANSI "
                                  "redraw (automatic off a TTY)")
    trace_watch.add_argument("--json", action="store_true",
                             help="print only the final state snapshot as "
                                  "one JSON object")

    trace_hist = trace_sub.add_parser(
        "history",
        help="list the perf-history log's sweep trajectories")
    _add_verbosity_arguments(trace_hist)
    trace_hist.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                            metavar="PATH",
                            help=f"history JSONL path (default {DEFAULT_HISTORY})")
    trace_hist.add_argument("--sweep", default=None, metavar="NAME",
                            help="only records of this sweep")
    trace_hist.add_argument("--limit", type=int, default=None, metavar="N",
                            help="only the newest N records")
    trace_hist.add_argument("--json", action="store_true",
                            help="print the records as a JSON array")

    trace_regress = trace_sub.add_parser(
        "regress",
        help="compare the latest history record against a baseline",
        epilog="Two-gate thresholds (mirroring the straggler detector): a "
               "metric regresses only when it exceeds the baseline by the "
               "relative factor AND the absolute gap, so seconds-fast smoke "
               "runs never flag timing noise.  Exit codes: 0 no regression, "
               "5 regression found, 2 not enough history.",
    )
    _add_verbosity_arguments(trace_regress)
    trace_regress.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                               metavar="PATH",
                               help=f"history JSONL path (default {DEFAULT_HISTORY})")
    trace_regress.add_argument("--sweep", default=None, metavar="NAME",
                               help="only compare records of this sweep")
    trace_regress.add_argument("--baseline", default="first", metavar="WHICH",
                               help="baseline record: 'first' (default), an "
                                    "integer index into the record list "
                                    "(negatives from the end), or a run id")
    trace_regress.add_argument("--factor", type=float, default=1.5,
                               metavar="F",
                               help="relative gate for elapsed/critical-path "
                                    "(default 1.5)")
    trace_regress.add_argument("--min-gap", type=float, default=5.0,
                               metavar="SECONDS",
                               help="absolute gate for elapsed/critical-path "
                                    "(default 5.0)")
    trace_regress.add_argument("--rss-factor", type=float, default=1.5,
                               metavar="F",
                               help="relative gate for peak RSS (default 1.5)")
    trace_regress.add_argument("--rss-min-gap", type=float, default=262144.0,
                               metavar="KB",
                               help="absolute gate for peak RSS in KiB "
                                    "(default 262144 = 256 MiB)")
    return parser


def _cmd_list() -> int:
    print(f"built-in experiment presets (salt {code_version_salt()}):")
    for name in available_presets():
        experiment = build_preset(name, smoke=True)
        jobs = len(experiment.sweep.expand())
        figure = "  [figure]" if name in FIGURE_PRESETS else ""
        print(f"  {name:28s} {experiment.description}  [smoke: {jobs} jobs]{figure}")
    return 0


def _show_sweep_telemetry(store: ResultStore, sweep_name: str) -> None:
    """``show``'s sweep-level timing block, from the newest trace run.

    Quietly degrades when the sweep has never run with ``--trace`` — the
    store itself records nothing about elapsed time.
    """
    directory = latest_run(store.root, sweep=sweep_name)
    if directory is None:
        print("telemetry: none recorded for this sweep "
              "(run with --trace to capture timings)")
        return
    run = trace_analysis.load_run(directory)
    elapsed = run.elapsed_s()
    print(f"telemetry ({directory.name}):"
          + (f" elapsed {elapsed:.2f}s" if elapsed is not None else ""))
    for stats in trace_analysis.wave_stats(run):
        print(_format_wave_line(stats))


def _cmd_show(args: argparse.Namespace) -> int:
    experiment = load_experiment(_resolve_spec(args), smoke=args.smoke)
    jobs = experiment.sweep.expand()
    store = ResultStore(args.store)
    failure_log = FailureLog(store)
    print(f"[{experiment.experiment_id}] {experiment.description}")
    print(f"salt: {code_version_salt()}  jobs: {len(jobs)}  store: {store.root}")
    if args.expire_failures is not None:
        # Scoped to THIS sweep's artifacts (grid jobs + shared deps): the
        # default store is shared across presets and `show <spec>` must not
        # destroy another sweep's tracebacks.
        dropped = failure_log.expire(
            args.expire_failures, keys=list(expanded_artifacts(jobs))
        )
        if dropped:
            print(f"expired {len(dropped)} failure entr"
                  f"{'y' if len(dropped) == 1 else 'ies'} older than "
                  f"{_format_age(args.expire_failures)[:-4]} "
                  f"(will retry as 'pending')")
    failed_keys = []
    grid_keys = set()
    for index, job in enumerate(jobs):
        key = job_key(job)
        grid_keys.add(key)
        timing = ""
        if store.has(key):
            status = "stored"
            # Execution metadata lives out-of-band (<store>/meta/): how a
            # result was produced, never part of what was produced.
            meta = store.load_meta(key)
            if meta.get("duration_s") is not None:
                timing = f"  [{float(meta['duration_s']):.2f}s"
                if meta.get("worker"):
                    timing += f" @ {meta['worker']}"
                timing += "]"
        elif failure_log.has(key):
            status = "FAILED"
            failed_keys.append(key)
        else:
            status = "pending"
        print(f"  {index:3d} {key[:16]} {status:7s} {job.kind:12s} "
              f"{job.label_dict}{timing}")
    # Shared dependency artifacts (clean references, distribution captures,
    # calibration siblings) are not grid points, but a failed one is the
    # *root cause* of its dependents' failed-with-cause entries — surface
    # it too, or its traceback would be unreachable from here.
    for key, job in expanded_artifacts(jobs).items():
        # store.has first, like the grid rows: a stored artifact with a
        # stale log entry has healed and must not read as FAILED.
        if key in grid_keys or store.has(key) or not failure_log.has(key):
            continue
        failed_keys.append(key)
        print(f"    - {key[:16]} FAILED  {job.kind:12s} (shared dependency)")
    _show_sweep_telemetry(store, experiment.sweep.name)
    for key in failed_keys:
        entry = failure_log.load(key)
        age = _format_age(failure_log.age_seconds(key))
        print(f"\nfailure {key[:16]} (job {entry.get('index')}, "
              f"{entry.get('kind')} {entry.get('label')}):")
        print(f"  logged at {entry.get('logged_at')} ({age}): {entry.get('error')}")
        if entry.get("cause_key"):
            print(f"  caused by upstream failure {str(entry['cause_key'])[:16]} "
                  "(fixing/rerunning the upstream job heals this one too)")
        for line in str(entry.get("traceback", "")).rstrip().splitlines():
            print(f"  | {line}")
    if failed_keys:
        print(f"\n{len(failed_keys)} failed job(s); rerun the sweep to retry "
              "(successful retries clear their log entries)")
    return 0


def _render_watch_loop(
    directory: Path,
    ascii_only: bool,
    stop: Optional[threading.Event] = None,
    interval_s: float = 0.25,
    timeout_s: Optional[float] = None,
    quiet: bool = False,
) -> dict:
    """Poll a (growing) trace run and redraw its snapshot until terminal.

    The shared engine of ``run --progress`` (driven on a background thread
    with ``stop`` set once the sweep returns) and ``trace watch`` (driven
    on the main thread with an optional timeout).  On a TTY the previous
    snapshot is erased with ANSI cursor movement; otherwise (or in ASCII
    mode) changed snapshots print as plain blocks.  Returns the final
    state snapshot.
    """
    import time as _time

    tailer = trace_live.RunTailer(directory)
    state = trace_live.SweepState()
    manifest = tailer.manifest()
    if manifest.get("sweep"):
        state.sweep = str(manifest["sweep"])
    if manifest.get("executor"):
        state.executor = str(manifest["executor"])
    is_tty = sys.stdout.isatty()
    ascii_only = ascii_only or not is_tty
    previous_lines = 0
    last_text: Optional[str] = None
    deadline = _time.monotonic() + timeout_s if timeout_s is not None else None
    while True:
        for event in tailer.poll():
            state.apply(event)
        if tailer.graph:
            state.ingest_graph(tailer.graph)
        snapshot = state.snapshot()
        if not quiet:
            text = trace_live.render(snapshot, ascii_only=ascii_only)
            if text != last_text:
                if is_tty and previous_lines:
                    sys.stdout.write(f"\x1b[{previous_lines}F\x1b[0J")
                sys.stdout.write(text + "\n")
                sys.stdout.flush()
                previous_lines = text.count("\n") + 1
                last_text = text
        if state.terminal:
            return snapshot
        if stop is not None and stop.is_set():
            return snapshot  # sweep returned without a terminal event
        if deadline is not None and _time.monotonic() >= deadline:
            return snapshot
        if stop is not None:
            stop.wait(interval_s)
        else:
            _time.sleep(interval_s)


def _cmd_run(args: argparse.Namespace) -> int:
    spec_arg = _resolve_spec(args)
    experiment = load_experiment(spec_arg, smoke=args.smoke)
    show_hint = (
        f"python -m repro.experiments show {spec_arg}"
        f"{' --smoke' if args.smoke else ''} --store {args.store}"
    )
    sweep = experiment.sweep
    store = ResultStore(args.store)
    out = args.out
    if out is None:
        out = _default_out_path(experiment.experiment_id)
    traced = args.trace or args.progress
    # The history log is an opt-out companion of tracing: every traced run
    # appends its summary record unless --no-history.
    history: Optional[Path] = None
    if traced and not args.no_history:
        history = args.history if args.history is not None else DEFAULT_HISTORY
    trace_arg: Union[bool, str] = traced
    watcher: Optional[threading.Thread] = None
    watcher_stop = threading.Event()
    if args.progress:
        # Name the run id up front so the watcher knows the directory
        # before run_sweep creates it; the tailer tolerates the wait.
        run_id = new_run_id()
        trace_arg = run_id
        watcher = threading.Thread(
            target=_render_watch_loop,
            args=(Path(run_directory(store.root, run_id)), args.ascii, watcher_stop),
            daemon=True,
        )
        watcher.start()
    try:
        run = run_sweep(
            sweep,
            store,
            jobs=args.jobs,
            force=args.force,
            weights_cache_dir=str(args.cache_dir),
            experiment=experiment,
            # The live renderer replaces the textual progress lines.
            progress=None if args.progress else print,
            max_failures=args.max_failures,
            inject_failures=args.inject_failure or (),
            executor=(
                ShardedExecutor(shards=args.shards, force_redispatch=True)
                if args.force_redispatch
                else args.executor
            ),
            shards=args.shards,
            trace=trace_arg,
            history=history,
            trial_batch=args.trial_batch,
        )
    except KeyboardInterrupt:
        print(
            f"\ninterrupted — completed jobs are cached under {store.root}; "
            "rerun the same command (--resume is the default) to continue",
            file=sys.stderr,
        )
        return 130
    except MaxFailuresExceeded as error:
        print(f"\nABORTED: {error}", file=sys.stderr)
        print(f"inspect failures: {show_hint}", file=sys.stderr)
        return 3
    finally:
        if watcher is not None:
            watcher_stop.set()
            watcher.join(timeout=5.0)
    print()
    print(run.record.to_table())
    run.record.save(out)

    if experiment.experiment_id in FIGURE_PRESETS:
        from repro.report.figures import render_figure_outputs

        formats = ("json", "md", "csv", "ascii") if args.ascii else ("json", "md", "csv")
        written = render_figure_outputs(
            experiment.experiment_id, run, store, out.parent, formats=formats
        )
        if written:
            print("\nfigure tables:")
            for path in written:
                print(f"  {path}")

    print(
        f"\n{run.stats.total} jobs ({run.stats.cached} cached, "
        f"{run.stats.computed} computed"
        + (f", {run.stats.failed} FAILED" if run.stats.failed else "")
        + f") in {run.stats.elapsed_s:.1f}s -> {out}"
    )
    if run.failures:
        print(
            f"{len(run.failures)} tolerated failure(s) logged under "
            f"{FailureLog(store).root}; surface them with: {show_hint}"
        )
    if run.telemetry_dir:
        run_id = Path(run.telemetry_dir).name
        print(f"telemetry: {run.telemetry_dir}")
        print("inspect: python -m repro.experiments trace summary "
              f"--store {store.root} --run {run_id}")
        if history is not None:
            print(f"perf history: {history} (compare runs with "
                  "'trace history' / 'trace regress')")
    return 0


# --------------------------------------------------------------------- #
# Shard subcommands
# --------------------------------------------------------------------- #
def _cmd_shard_emit(args: argparse.Namespace) -> int:
    experiment = load_experiment(_resolve_spec(args), smoke=args.smoke)
    paths = write_shard_manifests(
        experiment.sweep, args.shards, args.dir, experiment=experiment,
    )
    jobs = len(experiment.sweep.expand())
    print(f"[{experiment.experiment_id}] {jobs} jobs -> {len(paths)} shard "
          f"manifest(s) (salt {code_version_salt()}):")
    for path in paths:
        print(f"  {path}")
    print("\nrun each shard (independent processes or machines, shared store):")
    for path in paths:
        print(f"  python -m repro.experiments shard run {path} --store {args.store}")
    print("\nthen merge:")
    print(f"  python -m repro.experiments shard merge {args.dir} --store {args.store}")
    return 0


def _load_manifest(path: Path) -> dict:
    """``load_shard_manifest`` for the CLI: a bad manifest is a one-line
    error and a non-zero exit, not a traceback."""
    try:
        return load_shard_manifest(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: {error}") from None


def _cmd_shard_run(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args.manifest)
    store = ResultStore(args.store)
    print(f"shard {manifest['shard_index'] + 1}/{manifest['shard_count']}: "
          f"{len(manifest['jobs'])} job(s) against {store.root} "
          f"(salt {manifest['salt']})")
    statuses = run_shard_manifest(
        manifest, store, weights_cache_dir=str(args.cache_dir), progress=print,
        trace_dir=args.trace_dir,
    )
    result_path = args.result or manifest_result_path(args.manifest)
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(
        {"manifest": str(args.manifest), "statuses": statuses},
        indent=2, sort_keys=True,
    ))
    counts: dict = {}
    for status in statuses:
        counts[status["status"]] = counts.get(status["status"], 0) + 1
    summary = ", ".join(f"{counts[name]} {name}" for name in sorted(counts))
    print(f"shard complete: {summary or 'no jobs'} -> {result_path}")
    failed = sum(
        1 for status in statuses
        if status["status"] in ("failed", "upstream_failed")
    )
    return 4 if failed else 0


def _collect_manifest_paths(arguments: List[Path]) -> List[Path]:
    paths: List[Path] = []
    for argument in arguments:
        if argument.is_dir():
            paths.extend(
                sorted(
                    p for p in argument.glob("*.json")
                    if not p.name.endswith(".result.json")
                )
            )
        else:
            paths.append(argument)
    if not paths:
        raise SystemExit(f"no shard manifests found under {arguments}")
    return paths


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    paths = _collect_manifest_paths(args.manifests)
    manifests = [_load_manifest(path) for path in paths]
    salts = {manifest["salt"] for manifest in manifests}
    if len(salts) > 1:
        raise SystemExit(
            f"refusing to merge shards with mixed salts: {sorted(salts)}"
        )
    salt = salts.pop()
    with_sweep = next((m for m in manifests if "sweep" in m), None)
    if with_sweep is None:
        raise SystemExit(
            "none of the manifests embeds the sweep spec (emitted by an "
            "older tool?); re-emit with 'shard emit'"
        )
    sweep_jsons = {
        json.dumps(m["sweep"], sort_keys=True) for m in manifests if "sweep" in m
    }
    if len(sweep_jsons) > 1:
        raise SystemExit(
            "refusing to merge manifests of different sweeps (a directory "
            "holding several 'shard emit' outputs?); pass one sweep's "
            "manifests explicitly"
        )
    sweep = SweepSpec.from_dict(with_sweep["sweep"])
    # Expand and hash once; the foreign-key check, the completeness scan
    # and the aggregation below all reuse this.
    expanded = sweep.expand()
    keys = [job_key(job, salt) for job in expanded]
    # Every manifest's jobs must belong to this sweep — catches a directory
    # mixing shards of two presets even when only one embeds its spec.
    merged_keys = set(keys)
    for path, manifest in zip(paths, manifests):
        foreign = [
            entry["key"] for entry in manifest.get("jobs", ())
            if entry["key"] not in merged_keys
        ]
        if foreign:
            raise SystemExit(
                f"{path} holds {len(foreign)} job(s) that are not part of "
                f"the merged sweep '{sweep.name}' (mixed sweeps in one "
                "directory?); pass one sweep's manifests explicitly"
            )
    identity = with_sweep.get("experiment")
    experiment = (
        ExperimentSpec(
            experiment_id=identity["experiment_id"],
            sweep=sweep,
            description=identity.get("description", ""),
            paper_reference=identity.get("paper_reference", ""),
        )
        if identity
        else None
    )
    store = ResultStore(args.store)
    failure_log = FailureLog(store)
    missing = []
    for index, (job, key) in enumerate(zip(expanded, keys)):
        if not store.has(key):
            state = "FAILED" if failure_log.has(key) else "missing"
            missing.append((index, key, state, job))
    if missing:
        print(f"merge incomplete: {len(missing)}/{len(expanded)} job(s) "
              f"without artifacts in {store.root}:", file=sys.stderr)
        for index, key, state, job in missing[:20]:
            print(f"  {index:3d} {key[:16]} {state:7s} {job.kind} "
                  f"{job.label_dict}", file=sys.stderr)
        if len(missing) > 20:
            print(f"  ... and {len(missing) - 20} more", file=sys.stderr)
        print("run the remaining shard(s) — or rerun failed ones — then "
              "merge again", file=sys.stderr)
        return 2
    run = aggregate_sweep(
        sweep, store, salt=salt, experiment=experiment,
        expanded=expanded, keys=keys,
    )
    experiment_id = experiment.experiment_id if experiment else sweep.name
    out = args.out
    if out is None:
        out = _default_out_path(experiment_id)
    print(run.record.to_table())
    saved = run.record.save(out)
    digest = hashlib.sha256(saved.read_bytes()).hexdigest()
    print(f"\nmerged {len(expanded)} job(s) from {len(paths)} shard "
          f"manifest(s) -> {out}")
    print(f"aggregate sha256: {digest}")
    print("(assembled purely from stored artifacts in grid order — "
          "byte-identical to a single-process run's aggregate)")
    return 0


# --------------------------------------------------------------------- #
# Trace subcommands
# --------------------------------------------------------------------- #
def _resolve_trace_run(args: argparse.Namespace) -> trace_analysis.TraceRun:
    """Pick the trace run a ``trace`` subcommand operates on."""
    if args.dir is not None:
        directory = args.dir
        if not Path(directory).is_dir():
            raise SystemExit(f"no trace run directory at {directory}")
    elif args.run is not None:
        directory = run_directory(args.store, args.run)
        if not Path(directory).is_dir():
            raise SystemExit(
                f"no trace run '{args.run}' under {args.store}/telemetry "
                "(see: python -m repro.experiments trace list)"
            )
    else:
        found = latest_run(args.store, sweep=args.sweep)
        if found is None:
            raise SystemExit(
                "no telemetry recorded"
                + (f" for sweep '{args.sweep}'" if args.sweep else "")
                + f" under {args.store}/telemetry — record a run with "
                "'run ... --trace'"
            )
        directory = found
    run = trace_analysis.load_run(directory)
    if not run.events:
        raise SystemExit(f"trace run {directory} holds no events")
    return run


def _cmd_trace_list(args: argparse.Namespace) -> int:
    runs = list_runs(args.store)
    if not runs:
        print(f"no telemetry recorded under {args.store}/telemetry "
              "(record a run with 'run ... --trace')")
        return 0
    print(f"{len(runs)} trace run(s) under {args.store}/telemetry:")
    for directory in runs:
        manifest = load_run_manifest(directory)
        streams = len(stream_paths(directory))
        descriptor = (
            f"sweep={manifest['sweep']} executor={manifest.get('executor', '?')}"
            if manifest.get("sweep")
            else "(no run manifest — standalone shard streams)"
        )
        print(f"  {directory.name}  {descriptor}  [{streams} stream(s)]")
    print("\ninspect one: python -m repro.experiments trace summary "
          f"--store {args.store} --run <id>")
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    run = _resolve_trace_run(args)
    wanted = set(args.event) if args.event else None
    shown = 0
    for event in run.events:
        if wanted is not None and event.get("event") not in wanted:
            continue
        print(json.dumps(event, sort_keys=True))
        shown += 1
        if args.limit is not None and shown >= args.limit:
            break
    return 0


def _format_wave_line(stats: trace_analysis.WaveStats) -> str:
    wave = "?" if stats.wave is None else str(stats.wave)
    return (f"  wave {wave}: {stats.jobs} job(s) on {stats.streams} "
            f"stream(s), span {stats.span_s:.2f}s, busy {stats.busy_s:.2f}s, "
            f"utilization {stats.utilization * 100:.0f}%")


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    run = _resolve_trace_run(args)
    summary = trace_analysis.summarize(run)
    stragglers = trace_analysis.find_stragglers(
        run, factor=args.straggler_factor, min_gap_s=args.straggler_min_gap
    )
    if args.json:
        summary["stragglers"] = stragglers  # honour the CLI's thresholds
        print(json.dumps(
            trace_analysis.summary_to_jsonable(summary), sort_keys=True
        ))
        return 0
    print(f"trace run: {summary['run_id']}")
    print(f"directory: {run.directory}")
    if summary.get("sweep"):
        manifest = run.manifest
        print(f"sweep: {manifest.get('sweep')} "
              f"(executor={manifest.get('executor', '?')}, "
              f"jobs={manifest.get('jobs', '?')})")
    print(f"events: {summary['events']} across {summary['streams']} stream(s)")
    print(f"jobs executed: {summary['executed']} "
          f"({summary['ok']} ok, {summary['failed']} failed)")
    if summary["upstream_failed"]:
        print(f"jobs skipped on upstream failure: {summary['upstream_failed']}")
    if summary["duplicates"]:
        print(f"duplicate executions (racing shards): "
              f"{len(summary['duplicates'])} key(s)")
    cache = summary["cache"]
    print(f"cache: {cache['hits']:.0f} hit(s), "
          f"{cache['executed']:.0f} computed, "
          f"hit rate {cache['hit_rate'] * 100:.0f}%")
    if summary["elapsed_s"] is not None:
        print(f"elapsed: {summary['elapsed_s']:.2f}s")
    chain = summary["critical_path"]
    if chain:
        fraction = summary["critical_path_fraction"]
        print(f"critical path: {len(chain)} job(s), "
              f"{summary['critical_path_s']:.2f}s"
              + (f" ({fraction * 100:.0f}% of elapsed)"
                 if fraction is not None else ""))
    for stats in summary["waves"]:
        print(_format_wave_line(stats))
    if summary["kinds"]:
        print("per-kind durations:")
        for kind, hist in summary["kinds"].items():
            print(f"  {kind:12s} n={hist['count']:.0f} "
                  f"total {hist['total_s']:.2f}s  mean {hist['mean_s']:.3f}s  "
                  f"[{hist['min_s']:.3f}s .. {hist['max_s']:.3f}s]")
    print(f"stragglers: {len(stragglers)}")
    for straggler in stragglers:
        wave = "?" if straggler.wave is None else str(straggler.wave)
        shard = f" (shard {straggler.shard})" if straggler.shard is not None else ""
        print(f"  wave {wave}: stream {straggler.stream}{shard} busy "
              f"{straggler.busy_s:.2f}s vs median {straggler.median_busy_s:.2f}s "
              f"over {straggler.jobs} job(s)")
    return 0


def _cmd_trace_critical_path(args: argparse.Namespace) -> int:
    run = _resolve_trace_run(args)
    chain = trace_analysis.critical_path(run)
    if args.json:
        total = sum(e.duration_s or 0.0 for e in chain)
        print(json.dumps(
            {
                "run_id": run.run_id,
                "jobs": [trace_analysis.execution_to_dict(e) for e in chain],
                "critical_path_s": total,
                "elapsed_s": run.elapsed_s(),
            },
            sort_keys=True,
        ))
        return 0
    if not chain:
        print("critical path: empty (no executed jobs in this trace)")
        return 0
    total = sum(e.duration_s or 0.0 for e in chain)
    elapsed = run.elapsed_s()
    print(f"critical path: {len(chain)} job(s), {total:.2f}s total"
          + (f" ({total / elapsed * 100:.0f}% of elapsed {elapsed:.2f}s)"
             if elapsed else ""))
    for position, execution in enumerate(chain, start=1):
        wave = "?" if execution.wave is None else str(execution.wave)
        duration = (
            f"{execution.duration_s:.3f}s" if execution.duration_s is not None
            else "?"
        )
        marker = "" if execution.outcome == "computed" else f"  [{execution.outcome}]"
        print(f"  {position:2d}. {execution.key[:16]}  "
              f"{execution.kind:12s} wave {wave:>2s}  {duration}{marker}")
    print("(each job waited on the one above it; no schedule can beat the "
          "chain's summed duration without changing the jobs)")
    return 0


def _cmd_trace_watch(args: argparse.Namespace) -> int:
    # Unlike the offline subcommands, watch may target a run that has not
    # materialised yet (a sweep just launched elsewhere) — an explicit
    # --run/--dir is followed as soon as it appears.
    if args.dir is not None:
        directory = Path(args.dir)
    elif args.run is not None:
        directory = Path(run_directory(args.store, args.run))
    else:
        found = latest_run(args.store, sweep=args.sweep)
        if found is None:
            raise SystemExit(
                "no telemetry recorded"
                + (f" for sweep '{args.sweep}'" if args.sweep else "")
                + f" under {args.store}/telemetry — start a traced sweep "
                "('run ... --trace') or name one with --run/--dir"
            )
        directory = Path(found)
    snapshot = _render_watch_loop(
        directory, args.ascii,
        interval_s=args.interval, timeout_s=args.timeout, quiet=args.json,
    )
    if args.json:
        print(json.dumps(snapshot, sort_keys=True))
    if not snapshot.get("terminal"):
        print(
            f"watch gave up after {args.timeout}s without a terminal event "
            "(sweep still running? re-watch, or raise --timeout)",
            file=sys.stderr,
        )
        return 1
    return 0


def _format_history_line(record: dict) -> str:
    recorded = str(record.get("recorded_at", "?"))[:19]
    sweep = record.get("sweep") or "?"
    executor = record.get("executor") or "?"
    elapsed = record.get("elapsed_s")
    elapsed_text = f"{float(elapsed):8.2f}s" if elapsed is not None else "       ?"
    cache = record.get("cache") or {}
    hit_rate = cache.get("hit_rate")
    cache_text = (
        f"cache {float(hit_rate) * 100:3.0f}%" if hit_rate is not None else "cache ?"
    )
    resources = record.get("resources") or {}
    rss = resources.get("peak_rss_kb")
    rss_text = f"  rss {float(rss) / 1024:.0f}MiB" if rss else ""
    return (f"  {recorded}  {sweep:20s} {executor:8s} {elapsed_text}  "
            f"{cache_text}{rss_text}  [{record.get('run_id', '?')}]")


def _cmd_trace_history(args: argparse.Namespace) -> int:
    records = trace_history.load_history(args.history, sweep=args.sweep)
    if args.limit is not None:
        records = records[-args.limit:]
    if args.json:
        print(json.dumps(records, sort_keys=True))
        return 0
    if not records:
        print(f"no perf history at {args.history}"
              + (f" for sweep '{args.sweep}'" if args.sweep else "")
              + " (traced runs append records automatically)")
        return 0
    print(f"{len(records)} record(s) in {args.history}:")
    for record in records:
        print(_format_history_line(record))
    print("\ncompare: python -m repro.experiments trace regress "
          f"--history {args.history}")
    return 0


def _cmd_trace_regress(args: argparse.Namespace) -> int:
    records = trace_history.load_history(args.history, sweep=args.sweep)
    if len(records) < 2:
        print(
            f"not enough history in {args.history} to compare "
            f"({len(records)} record(s); need a baseline and a latest run)",
            file=sys.stderr,
        )
        return 2
    latest = records[-1]
    baseline = trace_history.find_baseline(records, args.baseline)
    if baseline is None:
        raise SystemExit(
            f"no history record matches baseline {args.baseline!r} "
            f"(run ids: {[r.get('run_id') for r in records]})"
        )
    if baseline is latest:
        raise SystemExit(
            f"baseline {args.baseline!r} resolves to the latest record "
            "itself; pick an earlier one"
        )
    regressions = trace_history.compare_records(
        baseline, latest,
        factor=args.factor, min_gap_s=args.min_gap,
        rss_factor=args.rss_factor, min_gap_rss_kb=args.rss_min_gap,
    )
    print(f"baseline: {baseline.get('run_id')} ({baseline.get('recorded_at')})")
    print(f"latest:   {latest.get('run_id')} ({latest.get('recorded_at')})")
    for label, path in (
        ("elapsed_s", ("elapsed_s",)),
        ("critical_path_s", ("critical_path_s",)),
        ("peak_rss_kb", ("resources", "peak_rss_kb")),
    ):
        base = trace_history.metric_value(baseline, path)
        new = trace_history.metric_value(latest, path)
        if base is None or new is None:
            continue
        print(f"  {label:16s} {base:12.3f} -> {new:12.3f}"
              + (f"  ({new / base:.2f}x)" if base > 0 else ""))
    if regressions:
        print(f"\nREGRESSION: {len(regressions)} metric(s) exceeded both "
              f"gates (factor {args.factor}, gap {args.min_gap}s / "
              f"rss factor {args.rss_factor}, gap {args.rss_min_gap:.0f}KiB):")
        for regression in regressions:
            print(f"  {regression.describe()}")
        return 5
    print("\nno regression (every metric within the relative+absolute gates)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "list":
        return _cmd_trace_list(args)
    if args.trace_command == "show":
        return _cmd_trace_show(args)
    if args.trace_command == "summary":
        return _cmd_trace_summary(args)
    if args.trace_command == "watch":
        return _cmd_trace_watch(args)
    if args.trace_command == "history":
        return _cmd_trace_history(args)
    if args.trace_command == "regress":
        return _cmd_trace_regress(args)
    return _cmd_trace_critical_path(args)


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (
        args.command == "run" and args.force_redispatch
        and args.executor != "sharded"
    ):
        parser.error("--force-redispatch requires --executor sharded")
    set_verbosity(verbosity_to_level(
        getattr(args, "verbose", 0) or 0, getattr(args, "quiet", False)
    ))
    if args.command == "list":
        return _cmd_list()
    if args.command == "show":
        return _cmd_show(args)
    if args.command == "shard":
        if args.shard_command == "emit":
            return _cmd_shard_emit(args)
        if args.shard_command == "run":
            return _cmd_shard_run(args)
        return _cmd_shard_merge(args)
    if args.command == "trace":
        return _cmd_trace(args)
    return _cmd_run(args)
