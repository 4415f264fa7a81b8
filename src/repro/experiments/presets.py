"""Built-in named experiment sweeps.

Each preset is a factory ``(smoke: bool, **overrides) -> ExperimentSpec``.
``--smoke`` variants shrink the training budget, grid and trial count to
seconds-fast CI jobs while exercising exactly the same code paths.  The
benchmark scripts under ``benchmarks/`` build their sweeps through these
factories so the grids live in one place.

The ``fig*`` presets reproduce the paper's figures on the runner/store:
``fig3`` (bit-line distributions), ``fig6a``/``fig6b``/``fig6c`` (the
sensing-precision accuracy and A/D-operation sweeps), ``fig6`` (their
union, deduplicated through the content addresses) and ``fig7`` (the
accelerator power breakdown).  The *benchmark workload budget* below is
the single source of truth for how figure workloads are prepared — the
pytest fixtures in ``benchmarks/conftest.py`` import it from here, so the
figure benchmarks and the presets can never drift apart.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

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

#: The multi-workload robustness trio (the paper's fourth workload,
#: resnet18, shares the squeezenet dataset shape; add it via overrides).
MULTI_WORKLOAD_NAMES = ("lenet5", "resnet20", "squeezenet1_1")

# --------------------------------------------------------------------- #
# The one benchmark-wide workload-preparation budget (shared with
# benchmarks/conftest.py).
# --------------------------------------------------------------------- #
BENCH_TRAIN_SIZE = 256
BENCH_TEST_SIZE = 96
BENCH_CALIBRATION_IMAGES = 32
BENCH_SEED = 0

#: Default workloads the figure benchmarks regenerate (extendable to the
#: paper's full four via overrides / REPRO_BENCH_WORKLOADS).
FIGURE_WORKLOAD_NAMES = ("lenet5", "resnet20")

#: Sensing precisions swept in Fig. 6 (paper: 8, 7, 6, 5, 4).
FIG6_SENSING_BITS = (8, 7, 6, 5, 4)

#: Evaluation images per workload in the full figure runs.
FIGURE_EVAL_IMAGES = 32

#: Calibration images used for distribution capture in the figure pipeline
#: (the benchmarks capture on the first 16 calibration images).
FIGURE_CAPTURE_IMAGES = 16


def benchmark_epochs(name: str) -> int:
    """Per-workload training budget of the benchmark suite."""
    return 20 if name == "lenet5" else 12


def benchmark_workload(name: str, preset: str = "tiny") -> WorkloadSpec:
    """The benchmark suite's workload preparation for ``name``.

    This is byte-compatible with the ``workloads`` session fixture in
    ``benchmarks/conftest.py`` (same budget constants), so spec-driven
    sweeps share the suite's trained-weight cache.
    """
    return WorkloadSpec(
        name,
        preset=preset,
        train_size=BENCH_TRAIN_SIZE,
        test_size=BENCH_TEST_SIZE,
        calibration_images=BENCH_CALIBRATION_IMAGES,
        epochs=benchmark_epochs(name),
        seed=BENCH_SEED,
    )


def _smoke_workload(name: str = "lenet5") -> WorkloadSpec:
    """Seconds-fast training budget for CI smoke variants of the figures."""
    return WorkloadSpec(
        name, preset="tiny", train_size=128, test_size=32,
        calibration_images=16, epochs=6, seed=BENCH_SEED,
    )


def sigma_fault_scenarios(
    sigmas: Sequence[float], fault_rates: Sequence[float], seed: int = 0
) -> List[NoiseScenario]:
    """The read-noise × stuck-at-fault grid used by the robustness sweeps."""
    scenarios = []
    for sigma in sigmas:
        for rate in fault_rates:
            models = []
            if sigma > 0.0:
                models.append({"model": "gaussian_read_noise", "sigma": float(sigma)})
            if rate > 0.0:
                models.append({"model": "stuck_at_faults", "rate_on": float(rate)})
            scenarios.append(
                NoiseScenario(
                    models=tuple(models),
                    seed=seed,
                    label={"sigma": float(sigma), "fault_rate": float(rate)},
                )
            )
    return scenarios


# --------------------------------------------------------------------- #
def robustness_noise(
    smoke: bool = False,
    sigmas: Optional[Sequence[float]] = None,
    fault_rates: Optional[Sequence[float]] = None,
    trials: Optional[int] = None,
    images: Optional[int] = None,
    seed: int = 0,
) -> ExperimentSpec:
    """LeNet-5 TRQ accuracy under read-noise sigma × stuck-at fault rate."""
    if smoke:
        sigmas = list(sigmas) if sigmas is not None else [0.0, 0.5]
        fault_rates = list(fault_rates) if fault_rates is not None else [0.0, 1e-3]
        trials = trials or 2
        images = images or 8
        train_size, epochs = 128, 6
    else:
        sigmas = list(sigmas) if sigmas is not None else [0.0, 0.25, 0.5, 1.0, 2.0]
        fault_rates = (
            list(fault_rates) if fault_rates is not None else [0.0, 1e-3, 5e-3, 1e-2]
        )
        trials = trials or 8
        images = images or 48
        train_size, epochs = 256, 20
    sweep = SweepSpec(
        name="robustness-noise",
        kind="monte_carlo",
        workloads=[
            WorkloadSpec(
                "lenet5", preset="tiny", train_size=train_size,
                test_size=max(images, 32), calibration_images=16,
                epochs=epochs, seed=seed,
            )
        ],
        noises=sigma_fault_scenarios(sigmas, fault_rates, seed=seed),
        mc_seeds=[seed],
        trials=trials,
        images=images,
        batch_size=16,
    )
    return ExperimentSpec(
        experiment_id="robustness-noise",
        sweep=sweep,
        description="TRQ accuracy under device noise (sigma x fault rate)",
        paper_reference="beyond-paper robustness check (keyed noise subsystem)",
    )


def multi_workload_robustness(
    smoke: bool = False,
    workload_names: Sequence[str] = MULTI_WORKLOAD_NAMES,
    trials: Optional[int] = None,
    images: Optional[int] = None,
    mc_seeds: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> ExperimentSpec:
    """Monte Carlo robustness over the multi-workload sweep (ROADMAP item)."""
    if smoke:
        trials = trials or 2
        images = images or 6
        train_size, epochs = 96, 3
        scenarios = sigma_fault_scenarios([0.5], [0.0, 1e-3], seed=seed)
        mc_seeds = list(mc_seeds) if mc_seeds is not None else [0, 1]
    else:
        trials = trials or 6
        images = images or 32
        train_size, epochs = 256, 12
        scenarios = sigma_fault_scenarios([0.25, 0.5, 1.0], [0.0, 1e-3], seed=seed)
        mc_seeds = list(mc_seeds) if mc_seeds is not None else [0]
    sweep = SweepSpec(
        name="multi-workload-robustness",
        kind="monte_carlo",
        workloads=[
            WorkloadSpec(
                name, preset="tiny", train_size=train_size,
                test_size=max(images, 32), calibration_images=16,
                epochs=epochs, seed=seed,
            )
            for name in workload_names
        ],
        noises=scenarios,
        mc_seeds=mc_seeds,
        trials=trials,
        images=images,
        batch_size=16,
    )
    return ExperimentSpec(
        experiment_id="multi-workload-robustness",
        sweep=sweep,
        description="Monte Carlo robustness across lenet5/resnet20/squeezenet",
        paper_reference="Section V-A workloads under device noise (beyond paper)",
    )


def ablation_calibration(
    smoke: bool = False,
    calibration_sizes: Optional[Sequence[int]] = None,
    images: Optional[int] = None,
    seed: int = 0,
    workload: Optional[WorkloadSpec] = None,
) -> ExperimentSpec:
    """TRQ calibration quality vs calibration-set size (Algorithm 1).

    ``workload`` overrides the default LeNet-5 preparation — the pytest
    benchmark passes its conftest-budget workload here so the sweep shares
    the benchmark suite's trained-weight cache while the grid and the
    experiment identity stay defined in this one place.
    """
    if smoke:
        calibration_sizes = list(calibration_sizes or (4, 16))
        images = images or 16
        train_size, epochs = 128, 6
    else:
        calibration_sizes = list(calibration_sizes or (4, 8, 16, 32))
        images = images or 32
        train_size, epochs = 256, 20
    if workload is None:
        workload = WorkloadSpec(
            "lenet5", preset="tiny", train_size=train_size, test_size=96,
            calibration_images=32, epochs=epochs, seed=seed,
        )
    sweep = SweepSpec(
        name="ablation-calibration",
        kind="calibration",
        workloads=[workload],
        calibrations=[
            CalibrationParams(calibration_size=size) for size in calibration_sizes
        ],
        images=images,
        batch_size=16,
    )
    return ExperimentSpec(
        experiment_id="abl-calib",
        sweep=sweep,
        description="TRQ calibration quality vs calibration-set size",
        paper_reference="Section V-A: 32 calibration images suffice (no retraining)",
    )


# --------------------------------------------------------------------- #
# Figure pipeline: shared building blocks
# --------------------------------------------------------------------- #
def _figure_workloads(
    smoke: bool,
    workloads: Optional[Sequence[WorkloadSpec]],
    workload_names: Optional[Sequence[str]],
    preset: str,
) -> List[WorkloadSpec]:
    if workloads is not None:
        return list(workloads)
    if smoke:
        return [_smoke_workload(name) for name in (workload_names or ("lenet5",))]
    names = workload_names or FIGURE_WORKLOAD_NAMES
    return [benchmark_workload(name, preset=preset) for name in names]


def _capture_images(workload: WorkloadSpec) -> int:
    return min(FIGURE_CAPTURE_IMAGES, workload.calibration_images)


def figure_calibration_params(workload: WorkloadSpec, bits: int) -> CalibrationParams:
    """The Algorithm 1 knobs the figure benchmarks run with: the workload's
    own calibration split, 16 v_grid candidates, a fixed ``Nmax == bits``
    (no outer accuracy loop)."""
    return CalibrationParams(
        calibration_size=workload.calibration_images,
        source="workload",
        num_v_grid_candidates=16,
        max_samples_per_layer=8192,
        use_accuracy_loop=False,
        initial_n_max=bits,
    )


def _reference_jobs(workload: WorkloadSpec, images: int) -> List[JobSpec]:
    """The f/f (float) and 8/f (fake-quantized) accuracy references."""
    return [
        JobSpec(
            kind="evaluate", workload=workload, images=images, datapath=datapath,
            label={"workload": workload.name, "config": config},
        )
        for datapath, config in (("float", "f/f"), ("fakequant", "8/f"))
    ]


def _uniform_sensing_jobs(
    workload: WorkloadSpec, images: int, bits_list: Sequence[int]
) -> List[JobSpec]:
    """Range-calibrated uniform evaluations over the sensing-precision axis
    (every bit-width shares one stored distribution capture)."""
    return [
        JobSpec(
            kind="evaluate", workload=workload, images=images, batch_size=16,
            adc=AdcSpec(
                mode="uniform_calibrated", uniform_bits=bits,
                calib_images=_capture_images(workload), calib_batch_size=8,
                calib_seed=0,
            ),
            label={"workload": workload.name, "config": str(bits)},
        )
        for bits in bits_list
    ]


def _trq_calibration_jobs(
    workload: WorkloadSpec, images: int, bits_list: Sequence[int]
) -> List[JobSpec]:
    """Algorithm 1 searches over the sensing-precision cap (Fig. 6b/6c)."""
    return [
        JobSpec(
            kind="calibration", workload=workload, images=images, batch_size=16,
            calibration=figure_calibration_params(workload, bits),
            label={"workload": workload.name, "config": f"trq{bits}"},
        )
        for bits in bits_list
    ]


def _dedupe_jobs(jobs: Sequence[JobSpec]) -> List[JobSpec]:
    """Drop later duplicates (same content address), keeping first labels."""
    from repro.experiments.store import job_key  # lazy: store imports spec

    seen = set()
    unique = []
    for job in jobs:
        key = job_key(job)
        if key in seen:
            continue
        seen.add(key)
        unique.append(job)
    return unique


def _figure_experiment(
    experiment_id: str,
    jobs: List[JobSpec],
    description: str,
    paper_reference: str,
) -> ExperimentSpec:
    sweep = SweepSpec(name=experiment_id, kind="mixed", explicit_jobs=_dedupe_jobs(jobs))
    return ExperimentSpec(
        experiment_id=experiment_id, sweep=sweep,
        description=description, paper_reference=paper_reference,
    )


# --------------------------------------------------------------------- #
# Figure presets
# --------------------------------------------------------------------- #
def fig3(
    smoke: bool = False,
    workload_names: Optional[Sequence[str]] = None,
    preset: str = "tiny",
    workloads: Optional[Sequence[WorkloadSpec]] = None,
) -> ExperimentSpec:
    """Fig. 3a: distribution of crossbar bit-line outputs."""
    selected = _figure_workloads(smoke, workloads, workload_names, preset)
    sweep = SweepSpec(
        name="fig3",
        kind="distribution",
        workloads=selected,
        distributions=[
            DistributionParams(
                # One capture for every workload: no more images than the
                # smallest calibration split holds.
                images=min(_capture_images(workload) for workload in selected),
                batch_size=8, capacity_per_layer=50_000, seed=0,
            )
        ],
    )
    return ExperimentSpec(
        experiment_id="fig3",
        sweep=sweep,
        description="Distribution of crossbar bit-line outputs",
        paper_reference="Fig. 3a: highly imbalanced, bottom-heavy distributions",
    )


def fig6a(
    smoke: bool = False,
    workload_names: Optional[Sequence[str]] = None,
    preset: str = "tiny",
    images: Optional[int] = None,
    bits: Optional[Sequence[int]] = None,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
) -> ExperimentSpec:
    """Fig. 6a: accuracy vs ADC resolution with a uniform ADC (no TRQ)."""
    bits = list(bits) if bits is not None else (
        [8, 4] if smoke else list(FIG6_SENSING_BITS)
    )
    images = images or (8 if smoke else FIGURE_EVAL_IMAGES)
    jobs: List[JobSpec] = []
    for workload in _figure_workloads(smoke, workloads, workload_names, preset):
        jobs += _reference_jobs(workload, images)
        jobs += _uniform_sensing_jobs(workload, images, bits)
    return _figure_experiment(
        "fig6a", jobs,
        "Accuracy vs ADC resolution, uniform ADC (no TRQ)",
        "Uniform quantization needs >= 7 bits to preserve accuracy (Fig. 6a)",
    )


def fig6b(
    smoke: bool = False,
    workload_names: Optional[Sequence[str]] = None,
    preset: str = "tiny",
    images: Optional[int] = None,
    bits: Optional[Sequence[int]] = None,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
) -> ExperimentSpec:
    """Fig. 6b: accuracy vs ADC resolution *with* TRQ."""
    bits = list(bits) if bits is not None else (
        [8, 4] if smoke else list(FIG6_SENSING_BITS)
    )
    images = images or (8 if smoke else FIGURE_EVAL_IMAGES)
    jobs: List[JobSpec] = []
    for workload in _figure_workloads(smoke, workloads, workload_names, preset):
        # The uniform 4-bit point is the paper's comparison baseline.
        jobs += _uniform_sensing_jobs(workload, images, [4])
        jobs += _trq_calibration_jobs(workload, images, bits)
    return _figure_experiment(
        "fig6b", jobs,
        "Accuracy vs ADC resolution with TRQ",
        "TRQ at 4-bit sensing matches uniform conversion at 7-8 bits (Fig. 6b)",
    )


def fig6c(
    smoke: bool = False,
    workload_names: Optional[Sequence[str]] = None,
    preset: str = "tiny",
    images: Optional[int] = None,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
) -> ExperimentSpec:
    """Fig. 6c: remaining A/D operations with TRQ (4-bit upper bound)."""
    images = images or (8 if smoke else FIGURE_EVAL_IMAGES)
    jobs: List[JobSpec] = []
    for workload in _figure_workloads(smoke, workloads, workload_names, preset):
        jobs += _trq_calibration_jobs(workload, images, [4])
    return _figure_experiment(
        "fig6c", jobs,
        "Remaining A/D operations with TRQ",
        "42%-62% of baseline operations remain (1.6-2.3x reduction)",
    )


def fig6(
    smoke: bool = False,
    workload_names: Optional[Sequence[str]] = None,
    preset: str = "tiny",
    images: Optional[int] = None,
    bits: Optional[Sequence[int]] = None,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
) -> ExperimentSpec:
    """The union of Fig. 6a/6b/6c, deduplicated through the store addresses
    (the uniform 4-bit point and the 4-bit TRQ search each run once)."""
    bits = list(bits) if bits is not None else (
        [8, 4] if smoke else list(FIG6_SENSING_BITS)
    )
    images = images or (8 if smoke else FIGURE_EVAL_IMAGES)
    jobs: List[JobSpec] = []
    for workload in _figure_workloads(smoke, workloads, workload_names, preset):
        jobs += _reference_jobs(workload, images)
        jobs += _uniform_sensing_jobs(workload, images, bits if 4 in bits else [*bits, 4])
        jobs += _trq_calibration_jobs(workload, images, bits)
    return _figure_experiment(
        "fig6", jobs,
        "Sensing-precision sweeps: accuracy and A/D operations (Fig. 6a/6b/6c)",
        "TRQ preserves accuracy at 4-bit sensing and nearly halves A/D operations",
    )


def fig7(
    smoke: bool = False,
    workload_names: Optional[Sequence[str]] = None,
    preset: str = "tiny",
    images: Optional[int] = None,
    uniform_bits: int = 7,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
) -> ExperimentSpec:
    """Fig. 7: accelerator energy breakdown (ISAAC vs TRQ vs uniform)."""
    images = images or (8 if smoke else FIGURE_EVAL_IMAGES)
    selected = _figure_workloads(smoke, workloads, workload_names, preset)
    jobs = [
        JobSpec(
            kind="power", workload=workload, images=images, batch_size=16,
            calibration=figure_calibration_params(workload, 4),
            power=PowerSpec(uniform_bits=uniform_bits),
            label={"workload": workload.name},
        )
        for workload in selected
    ]
    return _figure_experiment(
        "fig7", jobs,
        "Accelerator energy breakdown (ISAAC vs Ours vs UQ)",
        "ADC dominates the ISAAC baseline (>60%); TRQ cuts it without touching "
        "the other components (Fig. 7)",
    )


#: Registry of named presets for the CLI.
PRESETS: Dict[str, Callable[..., ExperimentSpec]] = {
    "robustness-noise": robustness_noise,
    "multi-workload-robustness": multi_workload_robustness,
    "ablation-calibration": ablation_calibration,
    "fig3": fig3,
    "fig6": fig6,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig6c": fig6c,
    "fig7": fig7,
}

#: Presets whose results render into paper-figure reports
#: (:func:`repro.report.figures.render_figure_outputs`).
FIGURE_PRESETS = ("fig3", "fig6", "fig6a", "fig6b", "fig6c", "fig7")


def available_presets() -> List[str]:
    return sorted(PRESETS)


def build_preset(name: str, smoke: bool = False, **overrides) -> ExperimentSpec:
    if name not in PRESETS:
        raise KeyError(
            f"unknown experiment preset '{name}', available: {available_presets()}"
        )
    return PRESETS[name](smoke=smoke, **overrides)
