"""Shared plumbing of the ``bench_fig*.py`` figure shims.

Since the figure-reproduction PR each figure benchmark is a *thin shim*: it
builds its grid through the corresponding :mod:`repro.experiments` preset,
submits it to the orchestration runner (content-addressed store, resume,
``--jobs N`` parallelism — exactly like the robustness sweeps) and renders
the paper-style tables from the stored rows via
:func:`repro.report.figures.render_figure_outputs`.  The heavy lifting and
the grid definitions live in ``src/repro``; the scripts here only parse
arguments, scale the sweep from the ``REPRO_BENCH_*`` environment knobs and
assert the figure's claims on the resulting record.

Every shim also verifies the store contract after its main run: rerunning
the same sweep back-to-back must be a full cache hit with a byte-identical
aggregate record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.experiments import ResultStore, run_sweep  # noqa: E402
from repro.experiments.executors import EXECUTOR_NAMES  # noqa: E402
from repro.experiments.presets import FIGURE_WORKLOAD_NAMES  # noqa: E402
from repro.report.figures import render_figure_outputs  # noqa: E402


def env_workload_names() -> List[str]:
    raw = os.environ.get("REPRO_BENCH_WORKLOADS", ",".join(FIGURE_WORKLOAD_NAMES))
    return [name.strip() for name in raw.split(",") if name.strip()]


def env_preset() -> str:
    return os.environ.get("REPRO_BENCH_PRESET", "tiny")


def env_eval_images() -> Optional[int]:
    raw = os.environ.get("REPRO_BENCH_EVAL_IMAGES")
    return int(raw) if raw else None


def build_arg_parser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=description,
        epilog="Workload selection/scale follows the REPRO_BENCH_WORKLOADS, "
               "REPRO_BENCH_PRESET and REPRO_BENCH_EVAL_IMAGES environment "
               "knobs shared by the whole benchmark suite.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep + training budget for CI (seconds)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (default: serial)")
    parser.add_argument("--executor", choices=EXECUTOR_NAMES, default=None,
                        help="execution strategy (default: process pool iff "
                             "--jobs > 1)")
    parser.add_argument("--force", action="store_true",
                        help="recompute jobs already in the store")
    parser.add_argument("--ascii", action="store_true",
                        help="also render the figure tables as ASCII bar "
                             "charts (<figure>.txt)")
    parser.add_argument("--max-failures", type=int, default=None, metavar="N",
                        help="tolerate up to N failed jobs (logged to the "
                             "store's failure log)")
    parser.add_argument("--store", type=Path,
                        default=BENCH_DIR / "results" / "store")
    parser.add_argument("--out-dir", type=Path,
                        default=BENCH_DIR / "results",
                        help="directory for the figure JSON/markdown/CSV tables")
    return parser


def record_bytes(run) -> bytes:
    return json.dumps(run.record.to_dict(), sort_keys=True).encode("utf-8")


def run_figure(experiment, args) -> "SweepRun":  # noqa: F821 - doc type
    """Execute one figure sweep, render its tables, verify the store contract."""
    store = ResultStore(args.store)
    cache_dir = str(BENCH_DIR / ".cache")
    run = run_sweep(
        experiment.sweep,
        store,
        jobs=args.jobs,
        force=args.force,
        weights_cache_dir=cache_dir,
        experiment=experiment,
        progress=print,
        max_failures=args.max_failures,
        executor=getattr(args, "executor", None),
    )
    print()
    print(run.record.to_table())

    formats = ("json", "md", "csv", "ascii") if getattr(args, "ascii", False) \
        else ("json", "md", "csv")
    written = render_figure_outputs(
        experiment.experiment_id, run, store, args.out_dir, formats=formats
    )
    for path in written:
        print(f"  wrote {path}")

    # Store contract: an immediate rerun is a full cache hit and reproduces
    # the aggregate byte for byte (this is also what makes interrupted runs
    # resume byte-identically — rows are read back from the artifacts).
    if not run.failures:
        rerun = run_sweep(
            experiment.sweep, store, weights_cache_dir=cache_dir,
            experiment=experiment,
        )
        assert rerun.stats.computed == 0 and rerun.stats.cached == rerun.stats.total, (
            f"rerun recomputed jobs: {rerun.stats}"
        )
        assert record_bytes(rerun) == record_bytes(run), (
            "rerun aggregate differs from the original run"
        )
        print(f"  cache check: rerun served all {rerun.stats.total} jobs from the store")

    print(f"{experiment.experiment_id}: {run.stats.total} jobs "
          f"({run.stats.cached} cached, {run.stats.computed} computed"
          + (f", {run.stats.failed} FAILED" if run.stats.failed else "")
          + f"), {run.stats.elapsed_s:.1f}s")
    return run
