"""Declarative experiment specs.

A sweep is described *declaratively* — which workloads, which ADC
configurations, which non-ideality scenarios, which Monte Carlo seeds — and
:meth:`SweepSpec.expand` turns the grid into an ordered list of *atomic*
:class:`JobSpec` jobs.

**The hash contract.**  Every job resolves to a plain-JSON dict
(:meth:`JobSpec.resolved`) that includes the workload's full configuration
fingerprint (:func:`repro.workloads.workload_fingerprint`), and the
content-addressed result store hashes exactly that dict (plus the
code-version salt, see :mod:`repro.experiments.store`).  Two jobs with the
same resolved dict are the same experiment; any edited field the job kind
*consumes* — a preset's width multiplier, a noise sigma, a trial count, a
sensing-precision bit-width, a power-model constant — yields a new address
and therefore invalidates the stored result.  Conversely, fields a kind does
**not** consume (labels, a uniform spec's TRQ knobs, the engine of a
calibration job) are excluded from the resolved dict, so editing them keeps
serving the cached artifact.

Five job kinds cover the repository's evaluation surface:

* ``evaluate`` — one deterministic (noise-free) run.  The ``datapath`` axis
  selects what is evaluated: the PIM crossbar+ADC datapath (``"pim"``, the
  default — also the shared *clean reference* of Monte Carlo jobs, see
  :meth:`JobSpec.clean_job`), the trained float model (``"float"``, the
  paper's *f/f* reference) or the fake-quantized model (``"fakequant"``,
  the *8/f* reference).  The ADC axis includes ``uniform_calibrated`` mode,
  whose per-layer full-scale ranges derive from a shared bit-line
  distribution artifact (:meth:`JobSpec.distribution_job`) — the Fig. 6
  sensing-precision axis.
* ``monte_carlo`` — :meth:`repro.sim.PimSimulator.run_monte_carlo` trials
  under a keyed non-ideality stack.
* ``calibration`` — the Algorithm 1 co-design search
  (:class:`repro.core.CoDesignOptimizer`) under varying calibration budgets
  and sensing-precision caps (``initial_n_max`` — the Fig. 6b/6c axis).
  On the workload's whole calibration split, every cap shares one stored
  bit-line capture and one ideal-ADC baseline
  (:meth:`JobSpec.capture_job`, :meth:`JobSpec.baseline_job`).
* ``distribution`` — bit-line capture on the first ``images`` calibration
  images: one exact histogram per layer (Fig. 3a), identified by the
  workload and the image count alone, so ``uniform_calibrated`` evaluations
  and Algorithm 1 over the same images share it.
* ``power`` — the Fig. 7 accelerator energy breakdown (ISAAC baseline vs
  calibrated TRQ vs reduced-precision uniform), parameterized by a
  first-class :class:`PowerSpec` axis; shares its calibration sibling
  through the store (:meth:`JobSpec.calibration_job`).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adc.config import AdcConfig, twin_range_config, uniform_config
from repro.core.search_space import DEFAULT_SEARCH_SPACE
from repro.core.trq import TRQParams
from repro.utils.config import canonical_json
from repro.utils.validation import check_in_range, check_integer
from repro.workloads import default_epochs, workload_fingerprint

JOB_KINDS = ("evaluate", "monte_carlo", "calibration", "distribution", "power")

DATAPATHS = ("pim", "float", "fakequant")

#: Sensing-precision caps Algorithm 1 accepts: the calibrator's default
#: ``min_n_max`` up to the ADC resolution.
_MIN_N_MAX = 2

def _integer(value, path: str) -> int:
    """``value`` as an ``int`` when it is integral.  A non-integral number,
    a bool or a string raises ``ValueError`` naming ``path`` — ``int()``
    would truncate or coerce it into another content address."""
    try:
        return check_integer(value, path)
    except TypeError as error:
        raise ValueError(*error.args) from None


def _fields(cls, data: Dict[str, object], path: str = "") -> Dict[str, object]:
    """``data`` when it is an object whose keys name fields of the dataclass
    ``cls``, including every field without a default.  An unknown key — a
    misspelling, or a field this version removed — or a missing required one
    raises ``ValueError`` naming its JSON path (``cls(**data)`` would raise a
    bare ``TypeError``, and a top-level lookup a bare ``KeyError``)."""
    prefix = f"{path}." if path else ""
    if not isinstance(data, dict):
        raise ValueError(
            f"{path or 'a spec'} must be a JSON object, got {type(data).__name__}"
        )
    fields = dataclasses.fields(cls)
    known = [field.name for field in fields]
    for name in data:
        if name not in known:
            raise ValueError(f"{prefix}{name} is not a field (expected one of {known})")
    for field in fields:
        required = (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        )
        if required and field.name not in data:
            raise ValueError(f"{prefix}{field.name} is required")
    return data


def _check_at_least(value, name: str, low: int, high: Optional[int] = None) -> None:
    check_in_range(check_integer(value, name), name, low=low, high=high)


def _check_noise_models(models) -> None:
    """Build every noise model once, so a spec the registry cannot build
    (unknown model, misspelt or out-of-range parameter) fails here, naming
    ``noise.models[j]``, instead of after training in a worker."""
    from repro.nonideal import build_model

    for index, model in enumerate(models):
        try:
            build_model(model)
        except (KeyError, TypeError, ValueError) as error:
            reason = error.args[0] if error.args else type(error).__name__
            raise ValueError(f"noise.models[{index}]: {reason}") from error


def _check_energy_constants(constants: Dict[str, object]) -> None:
    """Each override must name an :class:`~repro.arch.EnergyConstants` field
    and hold a finite number >= 0, so a bad one fails here, naming
    ``power.constants.<name>``, instead of inside the job."""
    from repro.arch.power import EnergyConstants  # lazy: heavy subpackage

    known = [field.name for field in dataclasses.fields(EnergyConstants)]
    for name, value in constants.items():
        path = f"power.constants.{name}"
        if name not in known:
            raise ValueError(f"{path} is not an energy constant (expected one of {known})")
        if (
            isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0
        ):
            raise ValueError(f"{path} must be a finite number >= 0, got {value!r}")


def _check_calibration_images(value: int, name: str, workload: "WorkloadSpec") -> None:
    """A capture or calibration cannot use more calibration images than the
    workload prepares (slicing would silently use fewer)."""
    if value > workload.calibration_images:
        raise ValueError(
            f"{name}={value} exceeds the {workload.calibration_images} "
            f"calibration images workload {workload.name!r} prepares"
        )


# --------------------------------------------------------------------- #
# Grid axes
# --------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One workload preparation configuration (model + dataset + training)."""

    name: str
    preset: str = "tiny"
    train_size: int = 384
    test_size: int = 128
    calibration_images: int = 32
    epochs: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("train_size", "test_size", "calibration_images", "epochs", "seed"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _integer(value, f"workload.{name}"))

    @property
    def resolved_epochs(self) -> int:
        return self.epochs if self.epochs is not None else default_epochs(self.preset)

    def resolved(self) -> Dict[str, object]:
        """Fully-resolved configuration, including the registry fingerprint.

        The fingerprint folds in the preset's structural parameters and the
        workload's dataset shape, so editing either re-addresses every
        dependent artifact.
        """
        return {
            "fingerprint": workload_fingerprint(
                self.name, self.preset, self.train_size, self.resolved_epochs, self.seed
            ),
            "test_size": int(self.test_size),
            "calibration_images": int(self.calibration_images),
        }

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        return cls(**_fields(cls, data, "workload"))


@dataclasses.dataclass(frozen=True)
class AdcSpec:
    """Per-layer ADC configuration applied uniformly to every MVM layer.

    ``mode="ideal"`` is the no-ADC reference (ideal conversion).  The
    twin-range defaults are the TRQ parameters the benchmarks use.

    ``mode="uniform_calibrated"`` is the Fig. 6 sensing-precision axis: a
    ``uniform_bits``-bit uniform converter whose per-layer full scale is
    calibrated to the maximum bit-line value on the workload's first
    ``calib_images`` calibration images (:func:`repro.core.uniform_adc_configs`).
    ``calib_images`` identifies the shared bit-line histogram the configs
    derive from — every bit-width over the same images shares one stored
    distribution job.
    """

    mode: str = "twin_range"  # "ideal" | "uniform" | "twin_range" | "uniform_calibrated"
    resolution: int = 8
    v_grid: float = 1.0
    uniform_bits: Optional[int] = None
    n_r1: int = 2
    n_r2: int = 5
    m: int = 3
    delta_r1: float = 1.0
    bias: int = 0
    # uniform_calibrated only: the images of the bit-line capture.
    calib_images: int = 16

    def __post_init__(self) -> None:
        if self.mode not in ("ideal", "uniform", "twin_range", "uniform_calibrated"):
            raise ValueError(f"unknown ADC mode {self.mode!r}")
        if self.mode == "uniform_calibrated":
            bits = self.resolved_uniform_bits
            if not 1 <= bits <= self.resolution:
                raise ValueError(
                    f"uniform_calibrated bits {bits} outside 1..{self.resolution}"
                )
            _check_at_least(self.calib_images, "adc.calib_images", 1)
        else:
            self.build_config()  # validate eagerly

    @property
    def resolved_uniform_bits(self) -> int:
        return self.uniform_bits if self.uniform_bits is not None else self.resolution

    @property
    def needs_distributions(self) -> bool:
        """True when building the configs requires a bit-line capture."""
        return self.mode == "uniform_calibrated"

    def build_config(self) -> Optional[AdcConfig]:
        """The :class:`~repro.adc.config.AdcConfig` this spec denotes."""
        if self.mode == "ideal":
            return None
        if self.mode == "uniform_calibrated":
            raise ValueError(
                "uniform_calibrated configs derive from bit-line distributions; "
                "use build_configs_from_histograms()"
            )
        if self.mode == "uniform":
            return uniform_config(
                resolution=self.resolution, bits=self.uniform_bits, v_grid=self.v_grid
            )
        params = TRQParams(
            n_r1=self.n_r1, n_r2=self.n_r2, m=self.m,
            delta_r1=self.delta_r1, bias=self.bias,
        )
        return twin_range_config(params, resolution=self.resolution, v_grid=self.v_grid)

    def build_configs(self, layer_names: Sequence[str]) -> Optional[Dict[str, AdcConfig]]:
        config = self.build_config()
        if config is None:
            return None
        return {name: config for name in layer_names}

    def build_configs_from_histograms(self, layer_histograms) -> Dict[str, AdcConfig]:
        """Range-calibrated per-layer configs from captured bit-line histograms."""
        from repro.core.co_design import uniform_adc_configs  # lazy: avoids cycle

        return uniform_adc_configs(
            layer_histograms, bits=self.resolved_uniform_bits, resolution=self.resolution
        )

    def distribution_params(self) -> "DistributionParams":
        """The capture that identifies the shared distribution artifact."""
        return DistributionParams(images=self.calib_images)

    def resolved(self) -> Dict[str, object]:
        """Only the fields the mode actually consumes, so e.g. editing the
        (unused) TRQ defaults of a ``uniform`` spec cannot re-address
        results that are bit-identical."""
        if self.mode == "ideal":
            return {"mode": self.mode}
        if self.mode == "uniform_calibrated":
            # v_grid is derived from the captured distributions, not consumed.
            return {
                "mode": self.mode,
                "resolution": int(self.resolution),
                "uniform_bits": int(self.resolved_uniform_bits),
                "distribution": self.distribution_params().resolved(),
            }
        base = {
            "mode": self.mode,
            "resolution": int(self.resolution),
            "v_grid": float(self.v_grid),
        }
        if self.mode == "uniform":
            base["uniform_bits"] = int(self.resolved_uniform_bits)
            return base
        base.update(
            n_r1=int(self.n_r1), n_r2=int(self.n_r2), m=int(self.m),
            delta_r1=float(self.delta_r1), bias=int(self.bias),
        )
        return base

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AdcSpec":
        return cls(**_fields(cls, data, "adc"))


@dataclasses.dataclass(frozen=True)
class DistributionParams:
    """One bit-line distribution capture (``kind="distribution"``).

    ``images`` counts *workload calibration images* (the capture runs on
    ``prepared.calibration.images[:images]``).  The capture is one exact
    histogram per layer, which depends on nothing else — not the engine,
    the batch size or the order blocks arrive in — so the workload
    fingerprint plus ``images`` is its whole identity, and every consumer
    of the same images (Fig. 3a, a calibrated-uniform evaluation, Algorithm
    1) shares one stored job.
    """

    images: int = 16

    def __post_init__(self) -> None:
        _check_at_least(self.images, "distribution.images", 1)

    def resolved(self) -> Dict[str, object]:
        return {"images": int(self.images)}

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DistributionParams":
        return cls(**_fields(cls, data, "distribution"))


@dataclasses.dataclass(frozen=True)
class PowerSpec:
    """One point of the power-model axis (``kind="power"``, Fig. 7).

    ``uniform_bits`` is the resolution of the uniform-ADC alternative that
    reaches comparable accuracy (7-8 bits in the paper).  ``constants``
    optionally overrides individual :class:`repro.arch.EnergyConstants`
    fields; the *resolved* constants (defaults expanded) are part of the
    job address, so editing an energy constant — in the spec or in the
    library defaults — re-addresses every dependent breakdown.
    """

    uniform_bits: int = 7
    trq_label: str = "Ours/4b"
    constants: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        bits = _integer(self.uniform_bits, "power.uniform_bits")
        check_in_range(bits, "power.uniform_bits", low=1)
        object.__setattr__(self, "uniform_bits", bits)
        if self.constants is not None:
            object.__setattr__(self, "constants", dict(self.constants))
            _check_energy_constants(self.constants)

    def resolved_constants(self) -> Dict[str, float]:
        from repro.arch.power import EnergyConstants  # lazy: heavy subpackage

        overrides = dict(self.constants or {})
        constants = EnergyConstants(**overrides)
        return {
            field.name: float(getattr(constants, field.name))
            for field in dataclasses.fields(constants)
        }

    def build_power_model(self):
        from repro.arch.power import EnergyConstants, PowerModel  # lazy

        return PowerModel(EnergyConstants(**dict(self.constants or {})))

    def resolved(self) -> Dict[str, object]:
        return {
            "uniform_bits": int(self.uniform_bits),
            "trq_label": str(self.trq_label),
            "constants": self.resolved_constants(),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "uniform_bits": self.uniform_bits,
            "trq_label": self.trq_label,
            "constants": None if self.constants is None else dict(self.constants),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PowerSpec":
        return cls(**_fields(cls, data, "power"))


@dataclasses.dataclass(frozen=True)
class NoiseScenario:
    """One point of the non-ideality axis: registry model specs + base seed.

    ``models`` are the serializable registry dicts
    (:meth:`repro.nonideal.NonIdealityStack.specs` round-trips them); an
    empty tuple is the noise-free scenario.  ``label`` carries the sweep
    coordinates (e.g. ``{"sigma": 0.5, "fault_rate": 1e-3}``) into the
    aggregate table.
    """

    models: Tuple[Dict[str, object], ...] = ()
    seed: int = 0
    label: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _integer(self.seed, "noise.seed"))
        # Normalise mutable inputs (lists of dicts, dict labels) to the
        # hashable tuple forms the frozen dataclass stores.
        object.__setattr__(self, "models", tuple(dict(m) for m in self.models))
        label = self.label
        if isinstance(label, dict):
            label = tuple(sorted(label.items()))
        object.__setattr__(self, "label", tuple(tuple(item) for item in label))

    @property
    def label_dict(self) -> Dict[str, object]:
        return dict(self.label)

    def build_stack(self):
        """The keyed :class:`~repro.nonideal.NonIdealityStack` (or ``None``)."""
        if not self.models:
            return None
        from repro.nonideal.stack import NonIdealityStack

        return NonIdealityStack.from_specs(list(self.models), seed=self.seed)

    def resolved(self) -> Dict[str, object]:
        # ``label`` is reporting metadata (like JobSpec.label) and stays out
        # of the content address: relabelling a scenario must serve the
        # cached results, not re-run the grid.
        return {
            "models": [dict(m) for m in self.models],
            "seed": int(self.seed),
        }

    def to_dict(self) -> Dict[str, object]:
        return {**self.resolved(), "label": self.label_dict}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NoiseScenario":
        return cls(**_fields(cls, data, "noise"))


@dataclasses.dataclass(frozen=True)
class CalibrationParams:
    """Knobs of one Algorithm 1 co-design run (``kind="calibration"``).

    ``source`` selects the calibration images: ``"resampled"`` draws a fresh
    ``calibration_size``-image set from the training split (seeded by
    ``calib_seed`` — the calibration-size ablation), while ``"workload"``
    uses the workload's own prepared calibration split (truncated to
    ``calibration_size``) — exactly what the figure benchmarks feed the
    optimizer, so figure calibration jobs reproduce the pre-port pipeline
    bit for bit.  ``initial_n_max`` is the sensing-precision cap swept in
    Fig. 6b/6c.
    """

    calibration_size: int = 32
    calib_seed: Optional[int] = None  # None: use calibration_size (legacy sweep)
    num_v_grid_candidates: int = 12
    use_accuracy_loop: bool = False
    initial_n_max: int = 4
    source: str = "resampled"  # "resampled" | "workload"

    def __post_init__(self) -> None:
        if self.source not in ("resampled", "workload"):
            raise ValueError(f"unknown calibration source {self.source!r}")
        _check_at_least(self.calibration_size, "calibration.calibration_size", 1)
        _check_at_least(
            self.num_v_grid_candidates, "calibration.num_v_grid_candidates", 1
        )
        # The bounds TwinRangeCalibrator enforces, checked before any worker.
        _check_at_least(
            self.initial_n_max, "calibration.initial_n_max",
            _MIN_N_MAX, DEFAULT_SEARCH_SPACE.adc_resolution,
        )

    @property
    def resolved_calib_seed(self) -> int:
        return self.calib_seed if self.calib_seed is not None else self.calibration_size

    def resolved(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        if self.source == "workload":
            # The workload split is fixed by the workload spec; the resample
            # seed is never consumed, so it must not re-address results.
            data.pop("calib_seed")
        else:
            data["calib_seed"] = self.resolved_calib_seed
        return data

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CalibrationParams":
        return cls(**_fields(cls, data, "calibration"))


# --------------------------------------------------------------------- #
# Atomic job
# --------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One hashable atomic job of a sweep.

    ``label`` carries the job's grid coordinates into the aggregate row but
    is *reporting metadata*: it is excluded from the resolved spec (and
    therefore from the content address), so relabelling a sweep does not
    re-run it, and a Monte Carlo job's clean reference shares one artifact
    with the zero-noise grid point of the same configuration.  Labels are
    merged into rows at aggregation time from the spec itself, keeping the
    stored artifacts label-independent.
    """

    kind: str
    workload: WorkloadSpec
    adc: AdcSpec = AdcSpec()
    images: int = 32
    batch_size: int = 16
    engine: str = "fast"
    datapath: str = "pim"
    noise: Optional[NoiseScenario] = None
    trials: int = 0
    mc_seed: int = 0
    confidence: float = 0.95
    calibration: Optional[CalibrationParams] = None
    distribution: Optional[DistributionParams] = None
    power: Optional[PowerSpec] = None
    label: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r} (expected {JOB_KINDS})")
        if self.datapath not in DATAPATHS:
            raise ValueError(
                f"unknown datapath {self.datapath!r} (expected {DATAPATHS})"
            )
        if self.kind == "monte_carlo":
            # (Zero-noise scenarios are rewritten to evaluate jobs by
            # SweepSpec.expand, so a monte_carlo job always carries models.)
            if self.noise is None or not self.noise.models:
                raise ValueError("monte_carlo jobs need a non-empty noise scenario")
            if self.trials < 1:
                raise ValueError("monte_carlo jobs need trials >= 1")
            _check_at_least(self.images, "images", 1)
            _check_at_least(self.batch_size, "batch_size", 1)
            check_in_range(
                float(self.confidence), "confidence", low=0.0, high=1.0, inclusive=False
            )
            _check_noise_models(self.noise.models)
        if self.kind == "calibration" and self.calibration is None:
            raise ValueError("calibration jobs need calibration params")
        if self.kind == "distribution" and self.distribution is None:
            object.__setattr__(self, "distribution", DistributionParams())
        if self.kind == "power":
            if self.calibration is None:
                raise ValueError(
                    "power jobs need calibration params (the TRQ sibling "
                    "whose measured per-layer A/D operations they consume)"
                )
            if self.power is None:
                object.__setattr__(self, "power", PowerSpec())
        if self.kind == "distribution":
            _check_calibration_images(
                self.distribution.images, "distribution.images", self.workload
            )
        if self.consumes_capture:
            _check_calibration_images(
                self.adc.calib_images, "adc.calib_images", self.workload
            )
        if self.kind in ("calibration", "power") and self.calibration.source == "workload":
            _check_calibration_images(
                self.calibration.calibration_size,
                "calibration.calibration_size", self.workload,
            )
        label = self.label
        if isinstance(label, dict):
            label = tuple(sorted(label.items()))
        object.__setattr__(self, "label", tuple(tuple(item) for item in label))

    # ------------------------------------------------------------------ #
    @property
    def label_dict(self) -> Dict[str, object]:
        return dict(self.label)

    @property
    def consumes_capture(self) -> bool:
        """True when the job derives its ADC configs from a bit-line
        capture (a ``uniform_calibrated`` PIM evaluation or Monte Carlo)."""
        return (
            self.kind in ("evaluate", "monte_carlo")
            and self.datapath == "pim"
            and self.adc.needs_distributions
        )

    @property
    def shares_workload_calibration(self) -> bool:
        """True for a calibration job that runs Algorithm 1 on the
        workload's whole prepared calibration split (the figure presets).

        Its PTQ model is then the prepared workload's own, and its bit-line
        capture and ideal-ADC baseline are stored sibling jobs
        (:meth:`capture_job`, :meth:`baseline_job`) shared by every
        sensing-precision cap.
        """
        return (
            self.kind == "calibration"
            and self.calibration.source == "workload"
            and self.calibration.calibration_size == self.workload.calibration_images
        )

    def resolved(self) -> Dict[str, object]:
        """The fully-resolved plain-JSON job description that gets hashed.

        Only inputs the job kind actually consumes are included, so editing
        an irrelevant field can never re-address (and hence recompute) a
        bit-identical result — e.g. calibration jobs ignore the sweep's ADC
        spec and engine because Algorithm 1 derives its own configurations
        on the default engine.
        """
        data: Dict[str, object] = {
            "kind": self.kind,
            "workload": self.workload.resolved(),
        }
        if self.kind == "distribution":
            # The capture has its own image count; the sweep-level eval
            # images/batch size are never consumed.
            data["distribution"] = self.distribution.resolved()
            return data
        data["images"] = int(self.images)
        if self.kind == "evaluate":
            data["datapath"] = self.datapath
            if self.datapath == "pim":
                data["batch_size"] = int(self.batch_size)
                data["adc"] = self.adc.resolved()
                data["engine"] = self.engine
            # float/fakequant references are single forward passes of the
            # trained (or fake-quantized) model: no ADC, engine or batching.
            return data
        data["batch_size"] = int(self.batch_size)
        if self.kind == "monte_carlo":
            data["adc"] = self.adc.resolved()
            data["engine"] = self.engine
            data["noise"] = None if self.noise is None else self.noise.resolved()
            data["trials"] = int(self.trials)
            data["mc_seed"] = int(self.mc_seed)
            data["confidence"] = float(self.confidence)
        if self.kind in ("calibration", "power"):
            data["calibration"] = self.calibration.resolved()
        if self.kind == "power":
            data["power"] = self.power.resolved()
        return data

    def canonical(self) -> str:
        return canonical_json(self.resolved())

    def dependencies(self) -> List["JobSpec"]:
        """The sibling jobs whose stored artifacts this job loads.

        *Direct* dependencies only — the scheduler
        (:mod:`repro.experiments.scheduler`) takes the transitive closure,
        so e.g. a Monte Carlo job over a calibrated-uniform ADC reaches its
        distribution capture both directly and through its clean reference
        (which itself depends on the capture), and the graph dedupes the two
        paths into one node.

        This is the single declarative source of the sweep-level dependency
        structure: the runner used to hard-code the same enumeration inline.
        """
        deps: List[JobSpec] = []
        if self.kind == "monte_carlo":
            deps.append(self.clean_job())
        if self.consumes_capture:
            deps.append(self.distribution_job())
        if self.shares_workload_calibration:
            deps += [self.capture_job(), self.baseline_job()]
        if self.kind == "power":
            deps.append(self.calibration_job())
        return deps

    def clean_job(self) -> "JobSpec":
        """The deterministic reference job shared by Monte Carlo siblings.

        Every ``monte_carlo`` job over the same (workload, ADC config,
        images, batch size, engine) maps to the *same* clean job — and hence
        the same store address — so the noise-free reference is computed
        once per configuration and shared across trials, grid points, and
        resumed runs.
        """
        return JobSpec(
            kind="evaluate",
            workload=self.workload,
            adc=self.adc,
            images=self.images,
            batch_size=self.batch_size,
            engine=self.engine,
        )

    def distribution_job(self) -> "JobSpec":
        """The shared bit-line capture a ``uniform_calibrated`` evaluation
        derives its per-layer full-scale ranges from.

        Every bit-width over the same (workload, capture parameters) maps to
        the *same* distribution job — and hence the same store address — so
        the Fig. 6 sensing-precision sweep captures distributions once per
        workload, not once per precision.
        """
        return JobSpec(
            kind="distribution",
            workload=self.workload,
            distribution=self.adc.distribution_params(),
        )

    def capture_job(self) -> "JobSpec":
        """The bit-line capture a workload-split calibration job searches.

        Exactly the capture :meth:`repro.core.CoDesignOptimizer.run` would
        take itself — every calibration image — so all caps of a workload
        share one stored ``distribution`` job.
        """
        return JobSpec(
            kind="distribution",
            workload=self.workload,
            distribution=DistributionParams(images=self.workload.calibration_images),
        )

    def baseline_job(self) -> "JobSpec":
        """The ideal-ADC evaluation whose accuracy a calibration job reports
        as its baseline (and checks Algorithm 1's accuracy drop against)."""
        return JobSpec(
            kind="evaluate",
            workload=self.workload,
            adc=AdcSpec(mode="ideal"),
            images=self.images,
            batch_size=self.batch_size,
            engine=self.engine,
        )

    def calibration_job(self) -> "JobSpec":
        """The Algorithm 1 sibling a ``power`` job reads its measured
        per-layer A/D operation counts from.

        A Fig. 7 power job over the same (workload, calibration params,
        images, batch size) as a Fig. 6b/6c calibration job shares one
        stored artifact with it — the search runs once.
        """
        return JobSpec(
            kind="calibration",
            workload=self.workload,
            images=self.images,
            batch_size=self.batch_size,
            calibration=self.calibration,
        )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "workload": self.workload.to_dict(),
            "adc": self.adc.to_dict(),
            "images": self.images,
            "batch_size": self.batch_size,
            "engine": self.engine,
            "datapath": self.datapath,
            "noise": None if self.noise is None else self.noise.to_dict(),
            "trials": self.trials,
            "mc_seed": self.mc_seed,
            "confidence": self.confidence,
            "calibration": None if self.calibration is None else self.calibration.to_dict(),
            "distribution": None if self.distribution is None else self.distribution.to_dict(),
            "power": None if self.power is None else self.power.to_dict(),
            "label": self.label_dict,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        _fields(cls, data)
        return cls(
            kind=data["kind"],
            workload=WorkloadSpec.from_dict(data["workload"]),
            adc=AdcSpec.from_dict(data.get("adc", {})),
            images=_integer(data.get("images", 32), "images"),
            batch_size=_integer(data.get("batch_size", 16), "batch_size"),
            engine=data.get("engine", "fast"),
            datapath=data.get("datapath", "pim"),
            noise=(
                None if data.get("noise") is None
                else NoiseScenario.from_dict(data["noise"])
            ),
            trials=_integer(data.get("trials", 0), "trials"),
            mc_seed=_integer(data.get("mc_seed", 0), "mc_seed"),
            confidence=float(data.get("confidence", 0.95)),
            calibration=(
                None if data.get("calibration") is None
                else CalibrationParams.from_dict(data["calibration"])
            ),
            distribution=(
                None if data.get("distribution") is None
                else DistributionParams.from_dict(data["distribution"])
            ),
            power=(
                None if data.get("power") is None
                else PowerSpec.from_dict(data["power"])
            ),
            label=data.get("label", ()),
        )


# --------------------------------------------------------------------- #
# Declarative sweep
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class SweepSpec:
    """A declarative grid over workloads × ADC configs × noise × MC seeds.

    :meth:`expand` enumerates the grid in a fixed nesting order (workload,
    then ADC, then noise scenario, then Monte Carlo seed / calibration /
    distribution / power point), so job indices — and therefore the order
    of the aggregate table's rows — are deterministic regardless of how the
    jobs execute.

    Grids are single-kind; sweeps that mix kinds (the figure pipelines,
    which pair reference evaluations with calibration searches) set
    ``kind="mixed"`` and list their jobs explicitly via ``explicit_jobs``
    (usually by concatenating the expansions of per-kind sub-grids).
    """

    name: str
    kind: str = "monte_carlo"
    workloads: List[WorkloadSpec] = dataclasses.field(default_factory=list)
    adcs: List[AdcSpec] = dataclasses.field(default_factory=lambda: [AdcSpec()])
    noises: List[NoiseScenario] = dataclasses.field(default_factory=list)
    mc_seeds: List[int] = dataclasses.field(default_factory=lambda: [0])
    calibrations: List[CalibrationParams] = dataclasses.field(default_factory=list)
    distributions: List[DistributionParams] = dataclasses.field(default_factory=list)
    powers: List[PowerSpec] = dataclasses.field(default_factory=list)
    trials: int = 2
    images: int = 32
    batch_size: int = 16
    engine: str = "fast"
    confidence: float = 0.95
    explicit_jobs: Optional[List[JobSpec]] = None

    def __post_init__(self) -> None:
        if self.kind == "mixed":
            if self.explicit_jobs is None:
                raise ValueError('kind="mixed" sweeps need explicit_jobs')
            return
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r} (expected {JOB_KINDS})")
        if not self.workloads and self.explicit_jobs is None:
            raise ValueError("a sweep needs at least one workload")

    # ------------------------------------------------------------------ #
    def expand(self) -> List[JobSpec]:
        """The ordered atomic jobs of the grid."""
        if self.explicit_jobs is not None:
            return list(self.explicit_jobs)
        jobs: List[JobSpec] = []
        multi_wl = len(self.workloads) > 1
        multi_adc = len(self.adcs) > 1
        multi_seed = len(self.mc_seeds) > 1
        if self.kind in ("distribution", "power"):
            # Neither kind consumes the ADC/noise axes.
            for workload in self.workloads:
                base_label = {"workload": workload.name}
                if multi_wl:
                    base_label["preset"] = workload.preset
                if self.kind == "distribution":
                    for params in self.distributions or [DistributionParams()]:
                        jobs.append(
                            JobSpec(
                                kind="distribution", workload=workload,
                                distribution=params, label=base_label,
                            )
                        )
                else:
                    for calibration in self.calibrations or [CalibrationParams()]:
                        for power in self.powers or [PowerSpec()]:
                            label = dict(base_label)
                            if len(self.powers) > 1:
                                label["uniform_bits"] = power.uniform_bits
                            jobs.append(
                                JobSpec(
                                    kind="power", workload=workload,
                                    images=self.images, batch_size=self.batch_size,
                                    calibration=calibration, power=power,
                                    label=label,
                                )
                            )
            return jobs
        for workload in self.workloads:
            for adc in self.adcs:
                base_label: Dict[str, object] = {"workload": workload.name}
                if multi_wl:
                    base_label["preset"] = workload.preset
                if multi_adc:
                    base_label["adc"] = _adc_label(adc)
                if self.kind == "evaluate":
                    jobs.append(
                        JobSpec(
                            kind="evaluate", workload=workload, adc=adc,
                            images=self.images, batch_size=self.batch_size,
                            engine=self.engine, label=base_label,
                        )
                    )
                elif self.kind == "monte_carlo":
                    for noise in self.noises or [NoiseScenario()]:
                        if not noise.models:
                            # A noise-free scenario *is* the clean reference:
                            # one deterministic evaluate job (the MC-seed axis
                            # is meaningless for it) instead of trivial trials.
                            label = dict(base_label)
                            label.update(noise.label_dict)
                            jobs.append(
                                JobSpec(
                                    kind="evaluate", workload=workload,
                                    adc=adc, images=self.images,
                                    batch_size=self.batch_size,
                                    engine=self.engine, label=label,
                                )
                            )
                            continue
                        for mc_seed in self.mc_seeds:
                            label = dict(base_label)
                            label.update(noise.label_dict)
                            if multi_seed:
                                label["mc_seed"] = mc_seed
                            jobs.append(
                                JobSpec(
                                    kind="monte_carlo", workload=workload,
                                    adc=adc, images=self.images,
                                    batch_size=self.batch_size,
                                    engine=self.engine, noise=noise,
                                    trials=self.trials, mc_seed=mc_seed,
                                    confidence=self.confidence, label=label,
                                )
                            )
                else:  # calibration
                    for calibration in self.calibrations or [CalibrationParams()]:
                        label = dict(base_label)
                        label["calibration_images"] = calibration.calibration_size
                        jobs.append(
                            JobSpec(
                                kind="calibration", workload=workload, adc=adc,
                                images=self.images, batch_size=self.batch_size,
                                engine=self.engine, calibration=calibration,
                                label=label,
                            )
                        )
        return jobs

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        data = {
            "name": self.name,
            "kind": self.kind,
            "workloads": [w.to_dict() for w in self.workloads],
            "adcs": [a.to_dict() for a in self.adcs],
            "noises": [n.to_dict() for n in self.noises],
            "mc_seeds": list(self.mc_seeds),
            "calibrations": [c.to_dict() for c in self.calibrations],
            "distributions": [d.to_dict() for d in self.distributions],
            "powers": [p.to_dict() for p in self.powers],
            "trials": self.trials,
            "images": self.images,
            "batch_size": self.batch_size,
            "engine": self.engine,
            "confidence": self.confidence,
        }
        if self.explicit_jobs is not None:
            data["explicit_jobs"] = [j.to_dict() for j in self.explicit_jobs]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSpec":
        _fields(cls, data)
        explicit = data.get("explicit_jobs")
        return cls(
            name=data["name"],
            kind=data.get("kind", "monte_carlo"),
            workloads=[WorkloadSpec.from_dict(w) for w in data.get("workloads", [])],
            adcs=[AdcSpec.from_dict(a) for a in data.get("adcs", [{}])],
            noises=[NoiseScenario.from_dict(n) for n in data.get("noises", [])],
            mc_seeds=[
                _integer(seed, f"mc_seeds[{position}]")
                for position, seed in enumerate(data.get("mc_seeds", [0]))
            ],
            calibrations=[
                CalibrationParams.from_dict(c) for c in data.get("calibrations", [])
            ],
            distributions=[
                DistributionParams.from_dict(d) for d in data.get("distributions", [])
            ],
            powers=[PowerSpec.from_dict(p) for p in data.get("powers", [])],
            trials=_integer(data.get("trials", 2), "trials"),
            images=_integer(data.get("images", 32), "images"),
            batch_size=_integer(data.get("batch_size", 16), "batch_size"),
            engine=data.get("engine", "fast"),
            confidence=float(data.get("confidence", 0.95)),
            explicit_jobs=(
                None if explicit is None
                else [JobSpec.from_dict(j) for j in explicit]
            ),
        )


@dataclasses.dataclass
class ExperimentSpec:
    """A named experiment: one sweep plus its reporting identity."""

    experiment_id: str
    sweep: SweepSpec
    description: str = ""
    paper_reference: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "paper_reference": self.paper_reference,
            "sweep": self.sweep.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentSpec":
        if isinstance(data, dict) and "sweep" not in data:
            # A bare sweep dict is accepted too.
            sweep = SweepSpec.from_dict(data)
            return cls(experiment_id=sweep.name, sweep=sweep)
        _fields(cls, data)
        return cls(
            experiment_id=data["experiment_id"],
            sweep=SweepSpec.from_dict(data["sweep"]),
            description=data.get("description", ""),
            paper_reference=data.get("paper_reference", ""),
        )


def _adc_label(adc: AdcSpec) -> str:
    if adc.mode == "ideal":
        return "ideal"
    if adc.mode == "uniform":
        return f"uniform{adc.resolved_uniform_bits}"
    if adc.mode == "uniform_calibrated":
        return f"ucal{adc.resolved_uniform_bits}"
    return f"trq{adc.n_r1}-{adc.n_r2}-m{adc.m}b{adc.bias}"
