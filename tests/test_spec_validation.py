"""Malformed capture/calibration specs fail at the JSON boundary.

A capture or Algorithm 1 field out of range used to be accepted and then
either crash inside a worker (``images=0``) or silently run on different
inputs than its content address claims (``images=-3`` sliced to 5 images, a
``source="workload"`` calibration of 32 images on an 8-image split).
``JobSpec.from_dict`` must reject every such field with a ``ValueError``
that names it.
"""

from __future__ import annotations

import copy
import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    AdcSpec,
    CalibrationParams,
    DistributionParams,
    JobSpec,
    SweepSpec,
    WorkloadSpec,
)

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
