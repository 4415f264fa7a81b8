"""Figure-reproduction pipeline tests (:mod:`repro.report.figures` + presets).

The load-bearing assertion is **shim equivalence**: the Fig. 6c record
rebuilt from the experiment store must be byte-identical to what the
pre-port benchmark code path (fresh optimizer + explicit final evaluation,
as in the seed's ``bench_fig6c_adc_ops.py``) produces on the same smoke
grid.  Alongside it: the calibrated-uniform evaluate path matches the
legacy ``uniform_adc_configs`` flow, stored Fig. 3 samples round-trip
bit-exactly, figure presets are full cache hits on rerun, and the
markdown/CSV emitters render every record.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CoDesignOptimizer, SearchSpaceConfig, uniform_adc_configs
from repro.experiments import ResultStore, WorkloadSpec, job_key, run_sweep
from repro.experiments import runner as runner_module
from repro.experiments.presets import fig3, fig6a, fig6c
from repro.report import (
    fig3a_distribution_record,
    fig6c_ops_record,
    fig6c_record_from_run,
    figure_records_from_run,
    record_to_csv,
    record_to_markdown,
)
from repro.workloads import prepare_workload

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: The smoke grid of the equivalence checks: one deliberately tiny workload.
TINY = WorkloadSpec(
    "lenet5", preset="tiny", train_size=48, test_size=16,
    calibration_images=8, epochs=2, seed=11,
)
EVAL_IMAGES = 4


@pytest.fixture(scope="module")
def weights_cache(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("weights"))


@pytest.fixture(autouse=True)
def _cold_runner():
    runner_module.clear_runner_memos()
    yield


@pytest.fixture(scope="module")
def prepared(weights_cache):
    """The pre-port pipeline's workload preparation (same spec as TINY)."""
    return prepare_workload(
        TINY.name, preset=TINY.preset, train_size=TINY.train_size,
        test_size=TINY.test_size, calibration_images=TINY.calibration_images,
        epochs=TINY.epochs, seed=TINY.seed, cache_dir=weights_cache,
    )


def record_json(record) -> bytes:
    return json.dumps(record.to_dict(), sort_keys=True, default=float).encode()


# --------------------------------------------------------------------- #
# Shim equivalence: runner-produced fig6c == pre-port seed output
# --------------------------------------------------------------------- #
class TestFig6cShimEquivalence:
    def test_runner_record_is_byte_identical_to_legacy_path(
        self, prepared, weights_cache, tmp_path
    ):
        experiment = fig6c(workloads=[TINY], images=EVAL_IMAGES)
        run = run_sweep(
            experiment.sweep, tmp_path / "store",
            weights_cache_dir=weights_cache, experiment=experiment,
        )
        ported = fig6c_record_from_run(run, ResultStore(tmp_path / "store"))

        # The pre-port benchmark body (seed bench_fig6c_adc_ops.py), with
        # the preset's own parameters so the two paths cannot drift apart.
        params = experiment.sweep.expand()[0].calibration
        assert params.source == "workload"
        split = prepared.eval_split(EVAL_IMAGES)
        optimizer = CoDesignOptimizer(
            prepared.model,
            prepared.calibration.images,
            prepared.calibration.labels,
            search_space=SearchSpaceConfig(
                num_v_grid_candidates=params.num_v_grid_candidates
            ),
        )
        result = optimizer.run(
            split.images, split.labels, batch_size=16,
            use_accuracy_loop=params.use_accuracy_loop,
            initial_n_max=params.initial_n_max,
        )
        final = prepared.simulator.evaluate(
            split.images, split.labels, result.adc_configs, batch_size=16
        )
        legacy = fig6c_ops_record(
            {TINY.name: final.remaining_ops_fraction},
            per_layer={TINY.name: final.per_layer_remaining_fraction()},
        )
        legacy.metadata["accuracy_ideal_vs_trq"] = {
            TINY.name: {"ideal": result.baseline_accuracy, "trq": final.accuracy}
        }
        legacy.metadata["eval_images"] = EVAL_IMAGES

        assert record_json(ported) == record_json(legacy)

    def test_fig6c_rerun_is_full_cache_hit_and_byte_identical(
        self, weights_cache, tmp_path
    ):
        experiment = fig6c(workloads=[TINY], images=EVAL_IMAGES)
        store = ResultStore(tmp_path / "store")
        first = run_sweep(experiment.sweep, store,
                          weights_cache_dir=weights_cache, experiment=experiment)
        runner_module.clear_runner_memos()
        rerun = run_sweep(experiment.sweep, store,
                          weights_cache_dir=weights_cache, experiment=experiment)
        assert rerun.stats.computed == 0
        assert rerun.stats.cached == rerun.stats.total
        assert record_json(fig6c_record_from_run(rerun, store)) == \
               record_json(fig6c_record_from_run(first, store))


# --------------------------------------------------------------------- #
# Calibrated-uniform evaluations match the legacy uniform_adc_configs flow
# --------------------------------------------------------------------- #
class TestFig6aEquivalence:
    def test_calibrated_uniform_rows_match_legacy_evaluate(
        self, prepared, weights_cache, tmp_path
    ):
        experiment = fig6a(workloads=[TINY], images=EVAL_IMAGES, bits=[8, 4])
        store = ResultStore(tmp_path / "store")
        run = run_sweep(experiment.sweep, store,
                        weights_cache_dir=weights_cache, experiment=experiment)
        by_config = {row["config"]: row for row in run.rows}

        split = prepared.eval_split(EVAL_IMAGES)
        histograms = prepared.simulator.collect_bitline_distributions(
            prepared.calibration.images[:16]
        )
        for bits in (8, 4):
            legacy = prepared.simulator.evaluate(
                split.images, split.labels,
                uniform_adc_configs(histograms, bits=bits), batch_size=16,
            )
            assert by_config[str(bits)]["accuracy"] == legacy.accuracy
            assert by_config[str(bits)]["remaining_ops_fraction"] == \
                   legacy.remaining_ops_fraction

    def test_reference_rows_match_model_forward(self, prepared, weights_cache, tmp_path):
        from repro.nn import top1_accuracy

        experiment = fig6a(workloads=[TINY], images=EVAL_IMAGES, bits=[4])
        run = run_sweep(experiment.sweep, tmp_path / "store",
                        weights_cache_dir=weights_cache, experiment=experiment)
        by_config = {row["config"]: row for row in run.rows}
        split = prepared.eval_split(EVAL_IMAGES)
        assert by_config["f/f"]["accuracy"] == top1_accuracy(
            prepared.model(split.images), split.labels
        )


# --------------------------------------------------------------------- #
# Fig. 3 histograms round-trip bit-exactly through the store
# --------------------------------------------------------------------- #
class TestFig3Pipeline:
    def test_stored_histograms_rebuild_the_legacy_record(
        self, prepared, weights_cache, tmp_path
    ):
        experiment = fig3(workloads=[TINY])
        store = ResultStore(tmp_path / "store")
        run = run_sweep(experiment.sweep, store,
                        weights_cache_dir=weights_cache, experiment=experiment)
        capture = experiment.sweep.expand()[0].distribution
        legacy_histograms = prepared.simulator.collect_bitline_distributions(
            prepared.calibration.images[: capture.images]
        )
        stored = store.load_arrays(run.keys[0])
        assert list(stored) == list(legacy_histograms)
        for name in stored:
            assert stored[name].dtype == legacy_histograms[name].dtype
            np.testing.assert_array_equal(stored[name], legacy_histograms[name])

        records = figure_records_from_run("fig3", run, store)
        rebuilt = records[f"fig3a_{TINY.name}"]
        legacy = fig3a_distribution_record(legacy_histograms, num_bins=16)
        legacy.metadata.update(
            {"workload": TINY.name, "calibration_images": capture.images}
        )
        assert record_json(rebuilt) == record_json(legacy)


# --------------------------------------------------------------------- #
# Emitters render every record
# --------------------------------------------------------------------- #
class TestEmitters:
    def test_markdown_and_csv_render_rows(self, weights_cache, tmp_path):
        experiment = fig6c(workloads=[TINY], images=EVAL_IMAGES)
        store = ResultStore(tmp_path / "store")
        run = run_sweep(experiment.sweep, store,
                        weights_cache_dir=weights_cache, experiment=experiment)
        record = fig6c_record_from_run(run, store)
        markdown = record_to_markdown(record)
        assert markdown.startswith("# fig6c:")
        assert "| workload |" in markdown
        csv_text = record_to_csv(record)
        header, first = csv_text.splitlines()[:2]
        assert header.startswith("workload,")
        assert first.startswith(f"{TINY.name},")

    def test_ascii_output_renders_bar_charts(self, weights_cache, tmp_path):
        """The --ascii format: render_figure_outputs writes a <stem>.txt
        with bar charts (the once-unused ascii_bar_chart, now wired in)."""
        from repro.report import record_to_ascii, render_figure_outputs

        experiment = fig6c(workloads=[TINY], images=EVAL_IMAGES)
        store = ResultStore(tmp_path / "store")
        run = run_sweep(experiment.sweep, store,
                        weights_cache_dir=weights_cache, experiment=experiment)
        record = fig6c_record_from_run(run, store)
        text = record_to_ascii(record)
        assert text.startswith("# fig6c:")
        assert "#" in text.splitlines()[4]  # a bar of the chart
        assert "remaining_fraction" in text

        written = render_figure_outputs(
            "fig6c", run, store, tmp_path / "out",
            formats=("json", "md", "csv", "ascii"),
        )
        txt = [p for p in written if p.suffix == ".txt"]
        assert len(txt) == 1 and txt[0].name == "fig6c.txt"
        assert txt[0].read_text() == text
        # the default format set stays unchanged (no .txt unless asked)
        default = render_figure_outputs("fig6c", run, store, tmp_path / "out2")
        assert not [p for p in default if p.suffix == ".txt"]
