"""Malformed capture, calibration, Monte Carlo and power specs fail at the JSON boundary.

A capture or Algorithm 1 field out of range used to be accepted and then
either crash inside a worker (``images=0``) or silently run on different
inputs than its content address claims (``images=-3`` sliced to 5 images, a
``source="workload"`` calibration of 32 images on an 8-image split).  Monte
Carlo jobs accepted ``images=0``, ``batch_size=0``, a confidence outside
``(0, 1)`` and noise specs the registry cannot build, and failed only after
training.  Power jobs accepted ``uniform_bits`` below 1 (failing only once
the job ran) and raised ``TypeError`` for an unknown or non-numeric energy
constant.  Integer job and sweep fields (``trials``, ``images``,
``batch_size``, ``mc_seed``, ``mc_seeds``) went through ``int()``, which
truncated ``2.7`` to ``2`` and coerced ``"3"`` and ``true``.
``JobSpec.from_dict`` and ``SweepSpec.from_dict`` must reject every such
field with a ``ValueError`` that names it.
"""

from __future__ import annotations

import copy
import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import EnergyConstants
from repro.experiments import (
    AdcSpec,
    CalibrationParams,
    DistributionParams,
    JobSpec,
    NoiseScenario,
    PowerSpec,
    SweepSpec,
    WorkloadSpec,
)
from repro.experiments.runner import run_sweep
from repro.experiments.store import job_key

TINY = WorkloadSpec(
    "lenet5", preset="tiny", train_size=48, test_size=16,
    calibration_images=8, epochs=2, seed=11,
)

#: One valid spec per checked section, as the JSON a sweep file carries.
BASES = {
    "distribution": JobSpec(
        kind="distribution", workload=TINY,
        distribution=DistributionParams(images=8),
    ).to_dict(),
    "calibration": JobSpec(
        kind="calibration", workload=TINY, images=4,
        calibration=CalibrationParams(calibration_size=8, source="workload"),
    ).to_dict(),
    "power": JobSpec(
        kind="power", workload=TINY, images=4,
        calibration=CalibrationParams(calibration_size=8, source="workload"),
    ).to_dict(),
    "evaluate": JobSpec(
        kind="evaluate", workload=TINY, images=4,
        adc=AdcSpec(mode="uniform_calibrated", uniform_bits=4, calib_images=8),
    ).to_dict(),
}

#: (base spec, section, field, lowest legal value, highest legal value).
FIELDS = [
    ("distribution", "distribution", "images", 1, TINY.calibration_images),
    ("distribution", "distribution", "batch_size", 1, None),
    ("distribution", "distribution", "capacity_per_layer", 1, None),
    ("calibration", "calibration", "calibration_size", 1, TINY.calibration_images),
    ("power", "calibration", "calibration_size", 1, TINY.calibration_images),
    ("calibration", "calibration", "num_v_grid_candidates", 1, None),
    ("calibration", "calibration", "max_samples_per_layer", 16, None),
    ("calibration", "calibration", "initial_n_max", 2, 8),
    ("evaluate", "adc", "calib_images", 1, TINY.calibration_images),
    ("evaluate", "adc", "calib_batch_size", 1, None),
    ("evaluate", "adc", "calib_capacity", 1, None),
]


def with_field(base: str, section: str, field: str, value: int) -> dict:
    data = copy.deepcopy(BASES[base])
    data[section][field] = value
    return data


@st.composite
def out_of_range(draw):
    base, section, field, low, high = draw(st.sampled_from(FIELDS))
    below = st.integers(min_value=-(10**6), max_value=low - 1)
    above = st.integers(min_value=(high or 0) + 1, max_value=10**6)
    value = draw(below if high is None else st.one_of(below, above))
    return base, section, field, value


@given(out_of_range())
@settings(max_examples=150, deadline=None)
def test_every_out_of_range_field_raises_naming_it(case):
    base, section, field, value = case
    with pytest.raises(ValueError, match=re.escape(f"{section}.{field}")):
        JobSpec.from_dict(with_field(base, section, field, value))


@pytest.mark.parametrize("base,section,field,low,high", FIELDS)
def test_range_boundaries_are_accepted(base, section, field, low, high):
    for value in (low, high) if high is not None else (low,):
        job = JobSpec.from_dict(with_field(base, section, field, value))
        assert JobSpec.from_dict(job.to_dict()) == job


def test_negative_and_zero_capture_images_fail_at_construction():
    with pytest.raises(ValueError, match="distribution.images"):
        DistributionParams(images=-3)
    with pytest.raises(ValueError, match="distribution.images"):
        DistributionParams(images=0)


def test_workload_calibration_cannot_exceed_the_prepared_split():
    oversized = CalibrationParams(calibration_size=32, source="workload")
    with pytest.raises(ValueError, match="calibration.calibration_size=32"):
        JobSpec(kind="calibration", workload=TINY, calibration=oversized)
    sweep = SweepSpec(
        name="oversized", kind="calibration", workloads=[TINY],
        calibrations=[oversized],
    )
    with pytest.raises(ValueError, match="calibration.calibration_size"):
        sweep.expand()


def test_resampled_calibration_may_exceed_the_prepared_split():
    """A resampled set is drawn from the training split, not the prepared
    calibration split, so only the workload source is bounded by it."""
    job = JobSpec(
        kind="calibration", workload=TINY,
        calibration=CalibrationParams(calibration_size=32),
    )
    assert job.calibration.calibration_size > TINY.calibration_images


def test_unconsumed_capture_fields_are_not_checked():
    """A calibrated-uniform spec carried by a job that never captures (a
    float reference) is not bounded by the workload's split."""
    reference = JobSpec(
        kind="evaluate", workload=TINY, images=4, datapath="float",
        adc=AdcSpec(mode="uniform_calibrated", uniform_bits=4, calib_images=16),
    )
    assert not reference.consumes_capture
    with pytest.raises(ValueError, match="adc.calib_images=16"):
        dataclasses.replace(reference, datapath="pim")


# --------------------------------------------------------------------- #
# Monte Carlo jobs
# --------------------------------------------------------------------- #
NOISE = NoiseScenario(
    models=(
        {"model": "gaussian_read_noise", "sigma": 0.5},
        {"model": "stuck_at_faults", "rate_on": 1e-3},
    ),
    seed=2,
)

MONTE_CARLO = JobSpec(
    kind="monte_carlo", workload=TINY, images=4, batch_size=1, trials=2,
    mc_seed=3, confidence=0.5, noise=NOISE,
)


def with_top_field(field: str, value) -> dict:
    data = copy.deepcopy(MONTE_CARLO.to_dict())
    data[field] = value
    return data


@given(
    st.sampled_from(["images", "batch_size"]),
    st.integers(min_value=-(10**6), max_value=0),
)
@settings(max_examples=60, deadline=None)
def test_monte_carlo_images_and_batch_size_must_be_positive(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
        JobSpec.from_dict(with_top_field(field, value))


@given(st.one_of(
    st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(float("nan")),
))
@settings(max_examples=60, deadline=None)
def test_monte_carlo_confidence_must_lie_in_the_open_unit_interval(confidence):
    with pytest.raises(ValueError, match="^confidence must be"):
        JobSpec.from_dict(with_top_field("confidence", confidence))


GOOD_MODELS = [dict(model) for model in NOISE.models]


@st.composite
def unbuildable_model(draw):
    """A model spec the registry rejects: unknown name, misspelt parameter
    or out-of-range value."""
    kind = draw(st.sampled_from(["unknown", "misspelt", "sigma", "rate"]))
    if kind == "unknown":
        name = draw(st.text(min_size=1, max_size=12).filter(
            lambda text: text not in {m["model"] for m in GOOD_MODELS}
            and text not in ("conductance_variation", "ir_drop", "retention_drift")
        ))
        return {"model": name}
    if kind == "misspelt":
        return {"model": "gaussian_read_noise", draw(st.sampled_from(["sigam", "Sigma", "s"])): 0.5}
    if kind == "sigma":
        return {"model": "gaussian_read_noise", "sigma": draw(st.floats(max_value=-1e-9))}
    return {"model": "stuck_at_faults", "rate_on": draw(st.floats(min_value=1.000001, max_value=1e6))}


@given(unbuildable_model(), st.integers(min_value=0, max_value=len(GOOD_MODELS)))
@settings(max_examples=80, deadline=None)
def test_unbuildable_noise_models_raise_naming_their_index(bad, index):
    data = copy.deepcopy(MONTE_CARLO.to_dict())
    models = list(GOOD_MODELS)
    models.insert(index, bad)
    data["noise"]["models"] = models
    with pytest.raises(ValueError, match=re.escape(f"noise.models[{index}]")):
        JobSpec.from_dict(data)


def test_monte_carlo_boundaries_are_accepted_and_addresses_unchanged():
    for field, value in (("images", 1), ("batch_size", 1), ("confidence", 1e-9),
                         ("confidence", 1 - 1e-9)):
        job = JobSpec.from_dict(with_top_field(field, value))
        assert JobSpec.from_dict(job.to_dict()) == job
    # Validation adds no hashed field: the address of a fixed job is the
    # one the code gave it before these checks existed.
    assert job_key(MONTE_CARLO, "fixed-salt") == (
        "a4b991a59b45951ba159ff7bb3e6ca65317f256bb7368dce1b4f1e2176ff5e62"
    )


def non_integers():
    """JSON values ``int()`` used to truncate or coerce: non-integral
    numbers, bools and strings (``"3"`` included)."""
    return st.one_of(
        st.floats().filter(lambda value: not value.is_integer()),
        st.booleans(),
        st.text(max_size=4),
    )


@given(st.sampled_from(["trials", "images", "batch_size", "mc_seed"]), non_integers())
@settings(max_examples=120, deadline=None)
def test_job_integer_fields_are_not_truncated(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        JobSpec.from_dict(with_top_field(field, value))


MC_SWEEP = SweepSpec(
    name="mc-integers", kind="monte_carlo", workloads=[TINY], noises=[NOISE],
    mc_seeds=[0, 1], trials=2, images=4, batch_size=1,
)


@given(
    st.sampled_from(["trials", "images", "batch_size", "mc_seeds[1]"]),
    non_integers(),
)
@settings(max_examples=120, deadline=None)
def test_sweep_integer_fields_are_not_truncated(path, value):
    data = copy.deepcopy(MC_SWEEP.to_dict())
    if path == "mc_seeds[1]":
        data["mc_seeds"][1] = value
    else:
        data[path] = value
    with pytest.raises(ValueError, match=f"^{re.escape(path)} must be an integer"):
        SweepSpec.from_dict(data)


def test_integral_values_parse_to_the_same_addresses():
    """Integral floats still parse (as JSON writers may emit ``2.0``), and
    the parsed job keeps the address it had before the stricter parse."""
    data = with_top_field("trials", 2.0)
    data.update(images=4.0, batch_size=1.0, mc_seed=3.0)
    job = JobSpec.from_dict(data)
    assert job == MONTE_CARLO
    assert job_key(job, "fixed-salt") == (
        "a4b991a59b45951ba159ff7bb3e6ca65317f256bb7368dce1b4f1e2176ff5e62"
    )
    sweep = SweepSpec.from_dict({**MC_SWEEP.to_dict(), "mc_seeds": [0.0, 1.0]})
    assert [job_key(job) for job in sweep.expand()] == [
        job_key(job) for job in MC_SWEEP.expand()
    ]


@pytest.mark.parametrize("trial_batch", [1, 4])
def test_zero_confidence_sweep_is_rejected_before_any_job_runs(tmp_path, trial_batch):
    """A two-seed ``confidence=0.0`` sweep used to fail per job at
    ``trial_batch=1`` but store zero-width intervals when coalesced."""
    sweep = SweepSpec(
        name="zero-confidence", kind="monte_carlo", workloads=[TINY],
        noises=[NOISE], mc_seeds=[0, 1], trials=2, images=4, confidence=0.0,
    )
    store = tmp_path / "store"
    with pytest.raises(ValueError, match="^confidence must be > 0.0"):
        run_sweep(sweep, store, trial_batch=trial_batch)
    assert not list(store.glob("*.json"))


# --------------------------------------------------------------------- #
# Power jobs
# --------------------------------------------------------------------- #
ENERGY_CONSTANTS = [field.name for field in dataclasses.fields(EnergyConstants)]


def with_power(**fields) -> dict:
    data = copy.deepcopy(BASES["power"])
    data["power"].update(fields)
    return data


@given(st.one_of(
    st.integers(max_value=0),
    st.floats().filter(lambda value: not (value >= 1 and float(value).is_integer())),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
))
@settings(max_examples=100, deadline=None)
def test_uniform_bits_must_be_a_positive_integer(bits):
    with pytest.raises(ValueError, match=r"^power\.uniform_bits must be"):
        JobSpec.from_dict(with_power(uniform_bits=bits))


@given(st.text(max_size=12).filter(lambda name: name not in ENERGY_CONSTANTS))
@settings(max_examples=60, deadline=None)
def test_unknown_energy_constants_raise_naming_them(name):
    with pytest.raises(ValueError, match=re.escape(f"power.constants.{name} is not")):
        JobSpec.from_dict(with_power(constants={name: 1e-12}))


@given(
    st.sampled_from(ENERGY_CONSTANTS),
    st.one_of(
        st.floats(max_value=0.0, exclude_max=True),
        st.sampled_from([float("nan"), float("inf"), "x", True, None, [1.0]]),
    ),
)
@settings(max_examples=80, deadline=None)
def test_bad_energy_constant_values_raise_naming_them(name, value):
    with pytest.raises(ValueError, match=re.escape(f"power.constants.{name} must be")):
        JobSpec.from_dict(with_power(constants={name: value}))


def test_power_boundaries_are_accepted_and_addresses_unchanged():
    for fields in (
        {"uniform_bits": 1},
        {"uniform_bits": 8.0},
        {"constants": {name: 0.0 for name in ENERGY_CONSTANTS}},
    ):
        job = JobSpec.from_dict(with_power(**fields))
        assert JobSpec.from_dict(job.to_dict()) == job
    assert job.power.resolved_constants() == {name: 0.0 for name in ENERGY_CONSTANTS}
    power = JobSpec(
        kind="power", workload=TINY, images=4,
        calibration=CalibrationParams(calibration_size=8, source="workload"),
        power=PowerSpec(uniform_bits=6, constants={"e_adc_op": 0.3e-12}),
    )
    # Validation adds no hashed field: the address of a fixed job is the
    # one the code gave it before these checks existed.
    assert job_key(power, "fixed-salt") == (
        "568139a03b9a08b31287abaf46d6066692b982a0d7518ada59c3ce2cb3361a13"
    )
