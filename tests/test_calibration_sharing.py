"""Workload-split calibration jobs share one capture, one baseline, one PTQ.

Every sensing-precision cap of a workload's Fig. 6b/6c sweep runs
Algorithm 1 on the same bit-line capture, the same ideal-ADC baseline and
the same PTQ model.  The job graph declares the first two as stored sibling
jobs (``JobSpec.capture_job()`` / ``JobSpec.baseline_job()``) and the runner
reuses the prepared workload's PTQ model.  These tests pin that each shared
input is computed once, and that sharing changes no byte: every
calibration artifact equals a standalone, self-capturing
``CoDesignOptimizer`` run — also when the capture is read back from its NPZ,
which must keep the layer order the calibrator's single RNG walks.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CoDesignOptimizer, SearchSpaceConfig
from repro.core.co_design import (
    CODESIGN_SEED,
    DISTRIBUTION_CAPACITY,
    capture_batch_size,
)
from repro.experiments import (
    AdcSpec,
    CalibrationParams,
    JobSpec,
    ResultStore,
    WorkloadSpec,
    execute_job,
    job_key,
    run_sweep,
)
from repro.experiments import runner as runner_module
from repro.experiments.presets import fig6b, fig7
from repro.quantization import ptq
from repro.sim.simulator import PimSimulator
from repro.workloads import prepare_workload

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

TINY = WorkloadSpec(
    "lenet5", preset="tiny", train_size=48, test_size=16,
    calibration_images=8, epochs=2, seed=11,
)
EVAL_IMAGES = 4
CAPS = [8, 5, 4]


@pytest.fixture(scope="module")
def weights_cache(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("weights"))


@pytest.fixture(autouse=True)
def _cold_runner():
    runner_module.clear_runner_memos()
    yield


@pytest.fixture
def counted(monkeypatch):
    """Record every bit-line capture (by reservoir capacity), every
    noise-free ideal-ADC evaluation and every optimizer-side PTQ run."""
    calls = {"captures": [], "ideal_evaluations": 0, "ptq": 0}
    capture = PimSimulator.collect_bitline_distributions
    evaluate = PimSimulator.evaluate
    quantize = ptq.quantize_model

    def counting_capture(self, images, batch_size=8, capacity_per_layer=100_000, seed=0):
        calls["captures"].append(capacity_per_layer)
        return capture(
            self, images, batch_size=batch_size,
            capacity_per_layer=capacity_per_layer, seed=seed,
        )

    def counting_evaluate(self, images, labels, adc_configs=None, batch_size=16,
                          noise=None):
        if adc_configs is None and noise is None:
            calls["ideal_evaluations"] += 1
        return evaluate(self, images, labels, adc_configs, batch_size, noise)

    def counting_quantize(*args, **kwargs):
        calls["ptq"] += 1
        return quantize(*args, **kwargs)

    monkeypatch.setattr(PimSimulator, "collect_bitline_distributions", counting_capture)
    monkeypatch.setattr(PimSimulator, "evaluate", counting_evaluate)
    monkeypatch.setattr(ptq, "quantize_model", counting_quantize)
    return calls


def run_fig6b(store: ResultStore, weights_cache: str):
    experiment = fig6b(workloads=[TINY], images=EVAL_IMAGES, bits=CAPS)
    run = run_sweep(
        experiment.sweep, store, weights_cache_dir=weights_cache,
        experiment=experiment,
    )
    assert run.stats.failed == 0
    return experiment, run


def calibration_jobs(experiment):
    jobs = [job for job in experiment.sweep.expand() if job.kind == "calibration"]
    assert [job.calibration.initial_n_max for job in jobs] == CAPS
    return jobs


def jsonable(value):
    return json.loads(json.dumps(value))


class TestSharedCaptureAndBaseline:
    def test_each_shared_input_is_computed_once(self, weights_cache, tmp_path, counted):
        store = ResultStore(tmp_path / "store")
        experiment, run = run_fig6b(store, weights_cache)
        assert run.stats.computed == run.stats.total
        (ucal,) = [job for job in experiment.sweep.expand() if job.kind == "evaluate"]
        # One capture for the uniform 4-bit point, one for all caps.
        assert sorted(counted["captures"]) == sorted(
            [DISTRIBUTION_CAPACITY, ucal.adc.calib_capacity]
        )
        assert counted["ideal_evaluations"] == 1
        assert counted["ptq"] == 0  # the prepared workload's PTQ model
        for job in calibration_jobs(experiment):
            assert store.has(job_key(job.capture_job()))
            assert store.has(job_key(job.baseline_job()))

    def test_artifacts_equal_a_standalone_optimizer_per_cap(
        self, weights_cache, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        experiment, _ = run_fig6b(store, weights_cache)
        prepared = prepare_workload(
            TINY.name, preset=TINY.preset, train_size=TINY.train_size,
            test_size=TINY.test_size, calibration_images=TINY.calibration_images,
            epochs=TINY.epochs, seed=TINY.seed, cache_dir=weights_cache,
        )
        split = prepared.eval_split(EVAL_IMAGES)
        for job in calibration_jobs(experiment):
            params = job.calibration
            result = CoDesignOptimizer(
                prepared.model,
                prepared.calibration.images,
                prepared.calibration.labels,
                search_space=SearchSpaceConfig(
                    num_v_grid_candidates=params.num_v_grid_candidates
                ),
                max_samples_per_layer=params.max_samples_per_layer,
            ).run(
                split.images, split.labels, batch_size=job.batch_size,
                use_accuracy_loop=params.use_accuracy_loop,
                initial_n_max=params.initial_n_max,
            )
            stored = store.load(job_key(job))
            assert stored["row"] == jsonable({
                "baseline_accuracy": result.baseline_accuracy,
                "accuracy": result.final_accuracy,
                "accuracy_drop": result.accuracy_drop,
                "remaining_ops_fraction": result.remaining_ops_fraction,
                "ops_reduction_factor": result.ops_reduction_factor,
            })
            evaluation = result.evaluation
            assert stored["per_layer_remaining_fraction"] == jsonable(
                evaluation.per_layer_remaining_fraction()
            )
            assert stored["per_layer_ops_per_conversion"] == jsonable({
                name: stats.mean_ops_per_conversion
                for name, stats in evaluation.layer_stats.items()
            })
            assert stored["evaluation"] == jsonable(evaluation.to_payload())

    def test_sibling_reading_the_capture_back_gives_identical_bytes(
        self, weights_cache, tmp_path, counted
    ):
        """A cap computed against the capture held in memory and the same
        cap computed against that capture read back from its NPZ store
        identical bytes: the round trip keeps the layer order the
        calibrator's single RNG walks."""
        experiment = fig6b(workloads=[TINY], images=EVAL_IMAGES, bits=CAPS)
        first, *_, sibling = calibration_jobs(experiment)
        # Outside a job graph, each job captures in process.
        solo = ResultStore(tmp_path / "solo")
        execute_job(sibling, solo, weights_cache)
        in_memory = solo.json_path(job_key(sibling)).read_bytes()

        shared = ResultStore(tmp_path / "shared")
        execute_job(first, shared, weights_cache)
        runner_module.clear_runner_memos()
        counted["captures"].clear()
        counted["ideal_evaluations"] = 0
        execute_job(sibling, shared, weights_cache)
        assert counted["captures"] == []  # read back, not recaptured
        assert counted["ideal_evaluations"] == 0
        assert shared.json_path(job_key(sibling)).read_bytes() == in_memory


class TestCalibrationDependencies:
    def test_workload_split_calibration_declares_capture_then_baseline(self):
        job = JobSpec(
            kind="calibration", workload=TINY, images=EVAL_IMAGES, batch_size=16,
            calibration=CalibrationParams(
                calibration_size=TINY.calibration_images, source="workload"
            ),
        )
        assert job.shares_workload_calibration
        capture, baseline = job.dependencies()
        assert capture.kind == "distribution"
        assert capture.distribution.images == TINY.calibration_images
        assert capture.distribution.batch_size == capture_batch_size(16) == 8
        assert capture.distribution.capacity_per_layer == DISTRIBUTION_CAPACITY
        assert capture.distribution.seed == CODESIGN_SEED
        assert baseline.kind == "evaluate" and baseline.datapath == "pim"
        assert baseline.adc == AdcSpec(mode="ideal")
        assert (baseline.images, baseline.batch_size, baseline.engine) == (
            EVAL_IMAGES, 16, job.engine,
        )

    def test_resampled_and_subset_calibrations_have_no_dependencies(self):
        resampled = JobSpec(
            kind="calibration", workload=TINY, images=EVAL_IMAGES,
            calibration=CalibrationParams(calibration_size=4),
        )
        subset = JobSpec(
            kind="calibration", workload=TINY, images=EVAL_IMAGES,
            calibration=CalibrationParams(calibration_size=4, source="workload"),
        )
        for job in (resampled, subset):
            assert not job.shares_workload_calibration
            assert job.dependencies() == []

    def test_power_reaches_the_shared_inputs_through_its_calibration(self):
        power = fig7(workloads=[TINY], images=EVAL_IMAGES).sweep.expand()[0]
        (calibration,) = power.dependencies()
        assert [job_key(dep) for dep in calibration.dependencies()] == [
            job_key(calibration.capture_job()), job_key(calibration.baseline_job()),
        ]


class TestPrecomputedOptimizerInputs:
    def test_precomputed_capture_and_baseline_reproduce_the_standalone_run(
        self, lenet_workload, lenet_eval_data
    ):
        images, labels = lenet_eval_data
        calibration = lenet_workload.calibration

        def optimizer(**kwargs):
            return CoDesignOptimizer(
                lenet_workload.model, calibration.images, calibration.labels,
                search_space=SearchSpaceConfig(num_v_grid_candidates=4),
                max_samples_per_layer=2048, **kwargs,
            )

        standalone = optimizer().run(
            images, labels, batch_size=16, use_accuracy_loop=True, initial_n_max=5
        )
        shared = optimizer(quantized=lenet_workload.quantized)
        samples = shared.collect_distributions(batch_size=capture_batch_size(16))
        baseline = lenet_workload.simulator.evaluate(images, labels, batch_size=16)
        reused = shared.run(
            images, labels, batch_size=16, use_accuracy_loop=True, initial_n_max=5,
            layer_samples=samples, baseline_accuracy=baseline.accuracy,
        )
        assert reused.baseline_accuracy == standalone.baseline_accuracy
        assert reused.final_accuracy == standalone.final_accuracy
        assert reused.calibration.n_max == standalone.calibration.n_max
        assert reused.calibration.settings == standalone.calibration.settings
        assert reused.evaluation_summary == standalone.evaluation_summary
        np.testing.assert_array_equal(
            reused.evaluation.logits, standalone.evaluation.logits
        )
