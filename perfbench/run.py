"""Repository benchmark: cold paper-figure reproduction and Monte Carlo sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 30 --trace 0

Workloads (``--workload``; see ``suite.WORKLOADS``): ``figures``,
``montecarlo`` and ``montecarlo_batched``.  Each run is one process, one
serial executor and a closed loop: the workload is set up from an empty
weights cache and swept into an empty result store under a temporary
directory, then its outputs are checked.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``setup_rss_mb``,
``sweep_s``, ``peak_rss_mb``).  ``--trace 1`` runs the workload twice, first
untraced and then with span wrappers on each layer's entry points, and
prints the per-layer metrics; the spans are written to
``perfbench/traces/``.  The last line of standard output is always one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seconds`` (``run_seconds`` in ``BENCHMARK.json``) is the measured
length, setup plus sweep, that the workload sizes were chosen for.  The
work itself is fixed, so every commit measures the same sweep.  BLAS/OpenMP
pools are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

for _variable in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / "traces"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-fast sizes (used by selftest.py)")
    parser.add_argument("--inject-failure", type=int, default=None, metavar="INDEX",
                        help="force job INDEX of the first sweep to fail")
    parser.add_argument("--tamper-reference", action="store_true",
                        help="corrupt the loop reference record before comparing")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _import_program():
    """Import the checkout's own ``repro`` (never an installed copy)."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {source}")


def _print_pass(label, result, stats_too=True):
    print(f"[{label}] setup {result.setup_s:.3f} s ({result.setup_cpu_s:.3f} s CPU, "
          f"peak RSS {result.setup_rss_mb:.1f} MB), sweep {result.sweep_s:.3f} s "
          f"({result.sweep_cpu_s:.3f} s CPU, peak RSS {result.peak_rss_mb:.1f} MB), "
          f"{result.jobs_computed}/{result.jobs_attempted} jobs computed, "
          f"{result.jobs_failed} failed, store {result.store_mb:.2f} MB")
    for check in result.checks.items:
        detail = f" ({check.detail})" if check.detail else ""
        print(f"  {'PASS' if check.ok else 'FAIL'} {check.name}{detail}")
    if stats_too:
        print("  simulated statistics (must not change in a speed-only change):")
        for name, value in sorted(result.statistics.items()):
            print(f"    {name:48s} {value:.6f}")
    print(f"  output digest {result.digest}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()

    import suite

    if args.workload not in suite.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(expected one of {sorted(suite.WORKLOADS)})")
    workload = suite.WORKLOADS[args.workload]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}: {workload.why}")

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        passes = []
        measured = suite.run_pass(
            workload, args.seed, args.smoke, work / "untraced", STARTED,
            inject_failure=args.inject_failure, tamper=args.tamper_reference,
        )
        passes.append(measured)
        _print_pass("untraced", measured)
        if args.trace:
            import spans

            recorder = spans.SpanRecorder(f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
            with spans.traced(recorder, spans.default_targets()) as missing:
                traced = suite.run_pass(
                    workload, args.seed, args.smoke, work / "traced",
                    time.perf_counter(), recorder=recorder, reference=False,
                )
            traced.checks.add(
                "traced outputs equal untraced outputs", traced.digest == measured.digest
            )
            passes.append(traced)
            _print_pass("traced", traced, stats_too=False)
            trace_path = recorder.save(
                TRACE_DIR / f"{workload.name}-seed{args.seed}{'-smoke' if args.smoke else ''}.npz"
            )
            print()
            print("\n".join(spans.timing_table(recorder, missing)))
            print(f"{recorder.span_count} spans written to {trace_path}")
            metrics = spans.per_layer_metrics(
                recorder,
                jobs_computed=traced.jobs_computed,
                jobs_failed=traced.jobs_failed,
                store_mb=traced.store_mb,
                traced_sweep_s=traced.sweep_s,
                untraced_sweep_s=measured.sweep_s,
            )
        else:
            metrics = {
                "setup_s": (measured.setup_s, "s"),
                "setup_rss_mb": (measured.setup_rss_mb, "MB"),
                "sweep_s": (measured.sweep_s, "s"),
                "peak_rss_mb": (measured.peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = sum(len(result.checks.items) for result in passes)
    attempted = sum(result.jobs_attempted for result in passes) + checks
    failed = sum(result.jobs_failed + result.checks.failed for result in passes)
    print(f"error_rate {failed / attempted:.6f} fraction "
          f"({failed} of {attempted} jobs and checks failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
