"""Workloads, timed phases and output checks of the repository benchmark.

A *pass* is one cold execution of a workload inside the benchmark process:

1. **setup** — prepare every DNN of the workload (train, cache the weights,
   PTQ-quantize, build the simulator) through
   :func:`repro.experiments.runner.prewarm_workloads`, starting from an empty
   weights cache;
2. **sweep** — drive the workload's sweeps through ``run_sweep`` on the
   serial executor into an empty result store (plus, for the figure
   pipeline, :func:`repro.report.figures.render_figure_outputs`);
3. **checks** — verify the outputs: every job computed, an empty failure
   log, a cached rerun that computes nothing and reproduces every aggregate
   byte for byte, sane simulated statistics and, for the batched Monte
   Carlo workload, byte identity with the per-trial loop.

Setup and sweep are measured apart in wall time and in peak RSS (the
kernel's high-water mark is reset between them).  Check failures never
raise: they are recorded and counted, so a broken output still reports
every metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.experiments import (
    ExperimentSpec,
    FailureLog,
    NoiseScenario,
    ResultStore,
    SweepSpec,
    WorkloadSpec,
    build_preset,
    clear_runner_memos,
)
from repro.experiments import runner
from repro.experiments.presets import FIGURE_WORKLOAD_NAMES, benchmark_workload
from repro.report import figures as report_figures

#: The paper-figure presets of the ``figures`` workload, in execution order.
FIGURE_PRESETS = ("fig3", "fig6", "fig7")

#: Trials per batched kernel invocation of ``montecarlo_batched``: one
#: coalesced group holds both seeds' trials (2 seeds x 4 trials).
BATCHED_TRIAL_BATCH = 8

#: Monte Carlo grid: seeds, trials per seed and test images per job.
MC_SEEDS = 2
MC_TRIALS = 4
MC_IMAGES = 8


# --------------------------------------------------------------------- #
# Seeded specs
# --------------------------------------------------------------------- #
def _dnn_specs(seed: int, smoke: bool) -> List[WorkloadSpec]:
    """The workload's DNNs, all prepared with the benchmark seed.

    Full size is the benchmark training budget of the figure presets;
    smoke size is a seconds-fast LeNet-5 used by ``selftest.py``.
    """
    if smoke:
        return [
            WorkloadSpec(
                "lenet5", preset="tiny", train_size=96, test_size=32,
                calibration_images=16, epochs=3, seed=seed,
            )
        ]
    return [
        dataclasses.replace(benchmark_workload(name), seed=seed)
        for name in FIGURE_WORKLOAD_NAMES
    ]


def figure_experiments(seed: int, smoke: bool) -> List[ExperimentSpec]:
    """Fig. 3a, Fig. 6a/b/c and Fig. 7 on the seeded DNNs."""
    dnns = _dnn_specs(seed, smoke)
    return [build_preset(name, smoke=smoke, workloads=dnns) for name in FIGURE_PRESETS]


def noise_scenarios(seed: int) -> List[NoiseScenario]:
    """Read noise (kernel fallback path) and quantized conductance variation
    stacked with stuck-at-ON faults (integer-LUT path)."""
    return [
        NoiseScenario(
            models=({"model": "gaussian_read_noise", "sigma": 0.5},),
            seed=seed,
            label={"scenario": "read_noise_0.5"},
        ),
        NoiseScenario(
            models=(
                {"model": "conductance_variation", "sigma": 0.08, "quantize": True},
                {"model": "stuck_at_faults", "rate_on": 1e-3},
            ),
            seed=seed,
            label={"scenario": "variation_0.08+stuck_on_1e-3"},
        ),
    ]


def noise_experiments(seed: int, smoke: bool) -> List[ExperimentSpec]:
    """One Monte Carlo noise sweep over both scenarios on the seeded DNNs."""
    sweep = SweepSpec(
        name="perfbench-montecarlo",
        kind="monte_carlo",
        workloads=_dnn_specs(seed, smoke),
        noises=noise_scenarios(seed),
        mc_seeds=[MC_SEEDS * seed + offset for offset in range(MC_SEEDS)],
        trials=2 if smoke else MC_TRIALS,
        images=4 if smoke else MC_IMAGES,
        batch_size=16,
    )
    return [
        ExperimentSpec(
            experiment_id="perfbench-montecarlo",
            sweep=sweep,
            description="Monte Carlo accuracy under two device-noise scenarios",
        )
    ]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: its sweeps and how they execute."""

    name: str
    why: str
    experiments: Callable[[int, bool], List[ExperimentSpec]]
    trial_batch: int = 1
    #: ``trial_batch`` of the reference recomputation whose artifacts must
    #: match the timed sweep byte for byte (``None``: no recomputation).
    reference_trial_batch: Optional[int] = None
    renders_figures: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "figures",
            "every paper figure (Fig. 3a, 6, 7) cold on lenet5+resnet20: "
            "capture, fused LUT kernel and Algorithm 1, no device noise",
            figure_experiments,
            renders_figures=True,
        ),
        Workload(
            "montecarlo",
            "device-noise Monte Carlo on the per-trial loop (trial_batch=1): "
            "nonideal and both kernel families, no capture or Algorithm 1",
            noise_experiments,
        ),
        Workload(
            "montecarlo_batched",
            "the same noise sweep with trial_batch=8: seed-sibling coalescing "
            "and matmul_trials, checked byte-identical to the loop",
            noise_experiments,
            trial_batch=BATCHED_TRIAL_BATCH,
            reference_trial_batch=1,
        ),
    )
}


# --------------------------------------------------------------------- #
# Host memory
# --------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Reset ``VmHWM`` to the current RSS (Linux ``clear_refs`` code 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Checks:
    """Named pass/fail output checks; a check that raises counts as failed."""

    def __init__(self) -> None:
        self.items: List[Check] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append(Check(name, bool(ok), detail))

    @contextlib.contextmanager
    def guard(self, name: str) -> Iterator[None]:
        try:
            yield
        except Exception as error:  # noqa: BLE001 - a broken output is a failed check
            self.add(name, False, f"{type(error).__name__}: {error}")

    @property
    def failed(self) -> int:
        return sum(1 for check in self.items if not check.ok)


def record_bytes(run) -> bytes:
    """Canonical bytes of one sweep's aggregate record."""
    return json.dumps(run.record.to_dict(), sort_keys=True).encode("utf-8")


def artifact_bytes(store: ResultStore, key: str) -> bytes:
    """Canonical bytes of one stored artifact: payload plus exact arrays."""
    digest = hashlib.sha256(json.dumps(store.load(key), sort_keys=True).encode())
    for name, array in sorted(store.load_arrays(key).items()):
        array = np.ascontiguousarray(array)
        digest.update(f"{name}|{array.dtype.str}|{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.digest()


def _tampered(data: bytes) -> bytes:
    """``data`` with its last digit changed (exercises the identity check)."""
    text = data.decode("utf-8")
    for index in range(len(text) - 1, -1, -1):
        if text[index].isdigit():
            digit = str((int(text[index]) + 1) % 10)
            return (text[:index] + digit + text[index + 1:]).encode("utf-8")
    return data + b" "


# --------------------------------------------------------------------- #
# Simulated statistics
# --------------------------------------------------------------------- #
def _rows(runs, experiment_id: str) -> List[Dict[str, object]]:
    for run in runs:
        if run.record.experiment_id == experiment_id:
            return list(run.rows)
    return []


def simulated_statistics(workload: Workload, runs) -> Dict[str, float]:
    """The simulated quantities a speed-only change must leave unchanged.

    Per DNN for the figures: TRQ-4b accuracy, remaining A/D-op fraction and
    uniform-4b accuracy (Fig. 6).  Per DNN and noise scenario for Monte
    Carlo: mean accuracy and prediction flip rate over both seeds.
    """
    stats: Dict[str, float] = {}
    if workload.renders_figures:
        for row in _rows(runs, "fig6"):
            name, config = row.get("workload"), row.get("config")
            if config == "trq4":
                stats[f"{name}.trq4_accuracy"] = float(row["accuracy"])
                stats[f"{name}.trq4_remaining_ops"] = float(row["remaining_ops_fraction"])
            elif config == "4":
                stats[f"{name}.uniform4_accuracy"] = float(row["accuracy"])
        return stats
    grouped: Dict[str, List[Dict[str, object]]] = {}
    for row in _rows(runs, "perfbench-montecarlo"):
        grouped.setdefault(f"{row['workload']}.{row['scenario']}", []).append(row)
    for prefix, rows in grouped.items():
        stats[f"{prefix}.mc_accuracy"] = float(np.mean([r["mean_accuracy"] for r in rows]))
        stats[f"{prefix}.flip_rate"] = float(np.mean([r["mean_flip_rate"] for r in rows]))
    return stats


def _expected_statistics(workload: Workload, experiments) -> int:
    dnns = {job.workload.name for e in experiments for job in e.sweep.expand()}
    if workload.renders_figures:
        return 3 * len(dnns)
    scenarios = len(experiments[0].sweep.noises)
    return 2 * len(dnns) * scenarios


# --------------------------------------------------------------------- #
# One pass
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class PassResult:
    setup_s: float
    setup_rss_mb: float
    sweep_s: float
    peak_rss_mb: float
    setup_cpu_s: float
    sweep_cpu_s: float
    jobs_attempted: int
    jobs_failed: int
    jobs_computed: int
    checks: Checks
    digest: str
    statistics: Dict[str, float]
    store_mb: float


def _phase(recorder, name: str):
    return recorder.phase(name) if recorder is not None else contextlib.nullcontext()


def _directory_mb(path: Path) -> float:
    total = sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return total / (1024.0 * 1024.0)


def run_pass(
    workload: Workload,
    seed: int,
    smoke: bool,
    work_dir: Path,
    origin: float,
    recorder=None,
    reference: bool = True,
    inject_failure: Optional[int] = None,
    tamper: bool = False,
) -> PassResult:
    """Set up, sweep and check ``workload`` once, cold, inside ``work_dir``.

    ``origin`` is the ``perf_counter`` instant setup time counts from (the
    process start for the measured pass).  ``recorder`` (a
    :class:`spans.SpanRecorder`) tags spans with the phase they ran in.
    ``reference=False`` skips the loop recomputation of the batched
    workload.  ``inject_failure`` forces that job index of the first sweep
    to fail; ``tamper`` corrupts the reference record before comparing.
    """
    experiments = workload.experiments(seed, smoke)
    cache_dir = str(work_dir / "weights")
    store = ResultStore(work_dir / "store")
    clear_runner_memos()
    jobs = [job for experiment in experiments for job in experiment.sweep.expand()]
    budgets = [len(experiment.sweep.expand()) for experiment in experiments]

    cpu_started = time.process_time()
    with _phase(recorder, "setup"):
        runner.prewarm_workloads(jobs, cache_dir)
    setup_s = time.perf_counter() - origin
    cpu_setup_done = time.process_time()
    setup_rss_mb = peak_rss_mb()

    checks = Checks()
    reset_peak_rss()
    runs = []
    started = time.perf_counter()
    with _phase(recorder, "sweep"):
        for index, (experiment, budget) in enumerate(zip(experiments, budgets)):
            inject = (inject_failure,) if index == 0 and inject_failure is not None else ()
            run = runner.run_sweep(
                experiment.sweep, store, weights_cache_dir=cache_dir,
                experiment=experiment, executor="serial",
                trial_batch=workload.trial_batch,
                max_failures=budget, inject_failures=inject,
            )
            runs.append(run)
            if workload.renders_figures:
                with checks.guard(f"{experiment.experiment_id}: figure outputs render"):
                    written = report_figures.render_figure_outputs(
                        experiment.experiment_id, run, store, work_dir / "figures"
                    )
                    checks.add(
                        f"{experiment.experiment_id}: figure outputs render",
                        bool(written), f"{len(written)} files",
                    )
    sweep_s = time.perf_counter() - started
    sweep_cpu_s = time.process_time() - cpu_setup_done
    sweep_peak_mb = peak_rss_mb()

    attempted = sum(run.stats.total for run in runs)
    failed = sum(run.stats.failed for run in runs)
    computed = sum(run.stats.computed for run in runs)
    for run in runs:
        checks.add(
            f"{run.sweep.name}: every job computed",
            run.stats.failed == 0 and run.stats.computed == run.stats.total,
            f"{run.stats.computed}/{run.stats.total} computed, {run.stats.failed} failed",
        )
    logged = list(FailureLog(store).keys())
    checks.add("failure log is empty", not logged, f"{len(logged)} entries")
    store_mb = _directory_mb(store.root)

    for experiment, run, budget in zip(experiments, runs, budgets):
        name = experiment.experiment_id
        with checks.guard(f"{name}: cached rerun"):
            rerun = runner.run_sweep(
                experiment.sweep, store, weights_cache_dir=cache_dir,
                experiment=experiment, executor="serial",
                trial_batch=workload.trial_batch, max_failures=budget,
            )
            checks.add(
                f"{name}: cached rerun computes no job",
                rerun.stats.computed == 0 and rerun.stats.cached == rerun.stats.total,
                f"{rerun.stats.computed} computed",
            )
            checks.add(
                f"{name}: cached rerun reproduces the record",
                record_bytes(rerun) == record_bytes(run),
            )

    if reference and workload.reference_trial_batch is not None:
        reference_store = ResultStore(work_dir / "reference-store")
        tb = workload.reference_trial_batch
        for experiment, run, budget in zip(experiments, runs, budgets):
            name = experiment.experiment_id
            with checks.guard(f"{name}: trial_batch={tb} reference"):
                other = runner.run_sweep(
                    experiment.sweep, reference_store, weights_cache_dir=cache_dir,
                    experiment=experiment, executor="serial",
                    trial_batch=tb, max_failures=budget,
                )
                expected = record_bytes(other)
                if tamper:
                    expected = _tampered(expected)
                checks.add(
                    f"{name}: record equals the trial_batch={tb} record",
                    record_bytes(run) == expected,
                )
        with checks.guard(f"artifacts equal the trial_batch={tb} artifacts"):
            keys = sorted(store.keys())
            same = keys == sorted(reference_store.keys()) and all(
                artifact_bytes(store, key) == artifact_bytes(reference_store, key)
                for key in keys
            )
            checks.add(
                f"artifacts equal the trial_batch={tb} artifacts", same,
                f"{len(keys)} artifacts",
            )

    statistics: Dict[str, float] = {}
    with checks.guard("simulated statistics"):
        statistics = simulated_statistics(workload, runs)
        expected = _expected_statistics(workload, experiments)
        in_range = all(
            math.isfinite(value) and 0.0 <= value <= 1.0 for value in statistics.values()
        )
        checks.add(
            "simulated statistics present and within [0, 1]",
            len(statistics) == expected and in_range,
            f"{len(statistics)}/{expected} values",
        )

    digest = hashlib.sha256(b"".join(record_bytes(run) for run in runs)).hexdigest()
    return PassResult(
        setup_s=setup_s,
        setup_rss_mb=setup_rss_mb,
        sweep_s=sweep_s,
        peak_rss_mb=sweep_peak_mb,
        setup_cpu_s=cpu_setup_done - cpu_started,
        sweep_cpu_s=sweep_cpu_s,
        jobs_attempted=attempted,
        jobs_failed=failed,
        jobs_computed=computed,
        checks=checks,
        digest=digest,
        statistics=statistics,
        store_mb=store_mb,
    )
