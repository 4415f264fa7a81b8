"""Bit-line captures are exact histograms, whatever executes them.

A capture runs ideal, noise-free conversion, and the collector receives
count vectors of the exact integer bit-line values, so the histogram is a
function of the images alone: the engine, the batch size, the chunking and
the order in which counts arrive cannot change it.  These tests compare
captures across engines and batch sizes, against the reference loop's
per-block ``np.bincount`` vectors, and check that a stored capture keeps
every layer's true maximum (the reservoir it replaced understated it in
most layers of the benchmark DNNs, and that maximum sets the
calibrated-uniform full scale and Algorithm 1's ``Rideal``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.adc import uniform_config
from repro.experiments import DistributionParams, JobSpec, ResultStore, WorkloadSpec
from repro.experiments import runner as runner_module
from repro.experiments import execute_job, job_key
from repro.nonideal import GaussianReadNoise, NonIdealityStack
from repro.sim import DistributionCollector, PimSimulator
from repro.sim.simulator import CAPTURE_BATCH_SIZE
from repro.workloads import prepare_workload

TINY = WorkloadSpec(
    "lenet5", preset="tiny", train_size=48, test_size=16,
    calibration_images=8, epochs=2, seed=11,
)
IMAGES = 6


class RecordingCollector(DistributionCollector):
    """A collector that also keeps a copy of every count vector it receives:
    one ``np.bincount`` per (cycle, segment) block on the reference engine."""

    def __init__(self) -> None:
        super().__init__()
        self.blocks: Dict[str, List[np.ndarray]] = {}

    def set_layer(self, name: str) -> None:
        super().set_layer(name)
        self.blocks.setdefault(name, [])

    def __call__(self, counts: np.ndarray) -> None:
        self.blocks[self._active_layer].append(np.array(counts))
        super().__call__(counts)


def largest_value(block_counts: np.ndarray) -> int:
    """The largest bit-line value a block's count vector counts."""
    return int(np.flatnonzero(block_counts)[-1])


def capture(simulator: PimSimulator, images, batch_size=CAPTURE_BATCH_SIZE):
    collector = RecordingCollector()
    simulator._forward(images, None, None, batch_size, collector=collector)
    return collector


def assert_same_histograms(left: Dict[str, np.ndarray], right: Dict[str, np.ndarray]):
    assert list(left) == list(right)
    for name in left:
        np.testing.assert_array_equal(left[name], right[name], err_msg=name)


@pytest.fixture(scope="module")
def images(lenet_workload):
    return lenet_workload.calibration.images[:IMAGES]


@pytest.fixture(scope="module")
def reference_capture(lenet_workload, images):
    return capture(PimSimulator(lenet_workload.quantized, engine="reference"), images)


class TestCaptureInvariance:
    def test_fast_and_reference_engines_capture_equal_histograms(
        self, lenet_workload, images, reference_capture
    ):
        fast = lenet_workload.simulator.collect_bitline_distributions(images)
        assert_same_histograms(fast, reference_capture.histograms())

    def test_histograms_equal_the_sum_of_the_reference_block_counts(
        self, lenet_workload, images, reference_capture
    ):
        fast = lenet_workload.simulator.collect_bitline_distributions(images)
        footprints = lenet_workload.simulator.mapping_summary()
        for name, blocks in reference_capture.blocks.items():
            # The observer contract the collector relies on: one int64
            # bincount of every (cycle, segment) block of ideal values.
            footprint = footprints[name]
            assert len(blocks) % (footprint.num_input_cycles * footprint.num_segments) == 0
            assert all(block.dtype == np.int64 and block.ndim == 1 for block in blocks)
            total = np.zeros(max(block.size for block in blocks), dtype=np.int64)
            for block in blocks:
                total[: block.size] += block
            np.testing.assert_array_equal(fast[name], np.trim_zeros(total, "b"))

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_histograms_do_not_depend_on_batch_size_or_chunking(
        self, lenet_workload, images, engine
    ):
        quantized = lenet_workload.quantized
        batch_8 = capture(PimSimulator(quantized, engine=engine), images, 8)
        batch_16 = capture(PimSimulator(quantized, engine=engine), images, 16)
        chunked = capture(PimSimulator(quantized, chunk_size=5, engine=engine), images, 3)
        assert_same_histograms(batch_8.histograms(), batch_16.histograms())
        assert_same_histograms(batch_8.histograms(), chunked.histograms())

    def test_histogram_total_is_one_count_per_ideal_conversion(
        self, lenet_workload, images
    ):
        histograms = lenet_workload.simulator.collect_bitline_distributions(images)
        ideal = lenet_workload.simulator.evaluate(
            images, lenet_workload.calibration.labels[:IMAGES], None, batch_size=4
        )
        for name, histogram in histograms.items():
            assert histogram.sum() == ideal.layer_stats[name].conversions


    def test_captures_need_ideal_noise_free_runs(self, lenet_workload, images):
        simulator = lenet_workload.simulator
        configs = {name: uniform_config(resolution=8, bits=4) for name in simulator.layer_names()}
        stack = NonIdealityStack([GaussianReadNoise(sigma=0.5)], seed=1)
        for adc_configs, stacks in ((configs, None), (None, [stack])):
            with pytest.raises(ValueError, match="ideal conversion without noise"):
                simulator._forward(images, None, adc_configs, CAPTURE_BATCH_SIZE, stacks,
                                   collector=DistributionCollector())


class TestStoredCapture:
    def test_each_stored_maximum_is_the_largest_observed_value(self, tmp_path):
        job = JobSpec(
            kind="distribution", workload=TINY,
            distribution=DistributionParams(images=TINY.calibration_images),
        )
        cache = str(tmp_path / "weights")
        store = ResultStore(tmp_path / "store")
        runner_module.clear_runner_memos()
        execute_job(job, store, cache)
        key = job_key(job)
        stored = store.load_arrays(key)
        payload = store.load(key)

        prepared = prepare_workload(
            TINY.name, preset=TINY.preset, train_size=TINY.train_size,
            test_size=TINY.test_size, calibration_images=TINY.calibration_images,
            epochs=TINY.epochs, seed=TINY.seed, cache_dir=cache,
        )
        observed = capture(
            PimSimulator(prepared.quantized, engine="reference"), prepared.calibration.images
        )
        assert list(stored) == list(observed.blocks)
        for name, blocks in observed.blocks.items():
            largest = max(largest_value(block) for block in blocks)
            histogram = stored[name]
            assert histogram.dtype == np.int64
            assert histogram.size - 1 == largest and histogram[-1] > 0
            summary = payload["layer_summaries"][name]
            assert summary["max"] == largest
            assert summary["count"] == sum(int(block.sum()) for block in blocks)
        assert payload["row"]["pooled_max"] == max(
            largest_value(block) for blocks in observed.blocks.values() for block in blocks
        )
        assert payload["row"]["total_samples"] == sum(
            int(block.sum()) for blocks in observed.blocks.values() for block in blocks
        )
