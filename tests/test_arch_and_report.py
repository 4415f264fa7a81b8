"""Tests for the architecture model (mapping, power, latency) and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import (
    COMPONENTS,
    AcceleratorMapping,
    EnergyConstants,
    IsaacArchitecture,
    LatencyModel,
    PowerModel,
    breakdown_table,
    compare_configurations,
    trace_layer_geometry,
)
from repro.report import (
    ExperimentRecord,
    ascii_bar_chart,
    fig3a_distribution_record,
    fig6_accuracy_record,
    fig6c_ops_record,
    fig7_power_record,
    format_series,
    format_table,
    histogram_rows,
    summarize_records,
)


# --------------------------------------------------------------------- #
# architecture
# --------------------------------------------------------------------- #
class TestArchitecture:
    def test_isaac_derived_quantities(self):
        arch = IsaacArchitecture()
        assert arch.crossbar_pairs_per_tile == 64
        assert arch.adcs_per_tile == 64
        assert arch.baseline_adc_resolution == 8
        assert arch.tiles_needed(0) == 0
        assert arch.tiles_needed(65) == 2
        with pytest.raises(ValueError):
            arch.tiles_needed(-1)
        with pytest.raises(ValueError):
            IsaacArchitecture(pes_per_tile=0)

    def test_trace_layer_geometry(self, lenet_workload):
        geometries = trace_layer_geometry(lenet_workload.model, (1, 28, 28))
        assert set(geometries) == set(lenet_workload.simulator.layer_names())
        first_conv = geometries[lenet_workload.simulator.layer_names()[0]]
        assert first_conv.kind == "conv"
        assert first_conv.mvms_per_image == 28 * 28  # 5x5 conv, padding 2, stride 1
        last = geometries[lenet_workload.simulator.layer_names()[-1]]
        assert last.kind == "linear" and last.mvms_per_image == 1
        # Tracing restores training mode and leaves no hooks behind.
        assert not lenet_workload.model.training

    def test_accelerator_mapping_totals(self, lenet_workload):
        mapping = AcceleratorMapping(lenet_workload.quantized, (1, 28, 28))
        summary = mapping.summary()
        assert summary["layers"] == len(lenet_workload.simulator.layer_names())
        assert summary["crossbar_pairs"] >= summary["layers"]
        assert summary["conversions_per_image"] > 0
        assert mapping.total_tiles >= 1
        workload = next(iter(mapping.layer_workloads.values()))
        assert workload.conversions_per_image == (
            workload.geometry.mvms_per_image * workload.conversions_per_mvm
        )

    def test_mapping_conversions_match_simulator(self, lenet_workload, lenet_eval_data):
        """Eq. 3 analytic counts equal the simulator's measured conversions."""
        images, labels = lenet_eval_data
        n = 4
        result = lenet_workload.simulator.evaluate(images[:n], labels[:n], None, batch_size=4)
        mapping = AcceleratorMapping(lenet_workload.quantized, (1, 28, 28))
        assert result.total_conversions == n * mapping.total_conversions_per_image


class TestPowerModel:
    def test_baseline_breakdown_is_adc_dominated(self, lenet_workload):
        mapping = AcceleratorMapping(lenet_workload.quantized, (1, 28, 28))
        breakdown = PowerModel().baseline_breakdown(mapping)
        assert set(breakdown.per_component) == set(COMPONENTS)
        assert breakdown.total > 0
        # The paper's motivation: ADC dominates the accelerator power (over
        # 60% on the full-size networks; the scaled-down test workload stays
        # the clear largest component and above half the total).
        fractions = breakdown.fractions()
        assert fractions["ADC"] > 0.5
        assert fractions["ADC"] == max(fractions.values())
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_trq_reduces_only_adc_component(self, lenet_workload):
        mapping = AcceleratorMapping(lenet_workload.quantized, (1, 28, 28))
        model = PowerModel()
        baseline = model.baseline_breakdown(mapping)
        trq_ops = {name: 4.0 for name in mapping.layer_names}
        ours = model.breakdown(mapping, ops_per_conversion=trq_ops, label="Ours/4b")
        assert ours.per_component["ADC"] == pytest.approx(baseline.per_component["ADC"] / 2)
        for component in COMPONENTS:
            if component != "ADC":
                assert ours.per_component[component] == pytest.approx(
                    baseline.per_component[component]
                )

    def test_comparison_and_table(self, lenet_workload):
        mapping = AcceleratorMapping(lenet_workload.quantized, (1, 28, 28))
        comparison = compare_configurations(
            "lenet5", mapping, {name: 4.5 for name in mapping.layer_names}, uniform_bits=7
        )
        assert comparison.labels == ["ISAAC", "Ours/4b", "UQ(7b)"]
        assert comparison.adc_reduction_vs_baseline("Ours/4b") == pytest.approx(8 / 4.5)
        assert comparison.total_reduction_vs_baseline("Ours/4b") > 1.0
        rows = breakdown_table([comparison])
        assert len(rows) == 3
        assert {row["config"] for row in rows} == {"ISAAC", "Ours/4b", "UQ(7b)"}
        with pytest.raises(KeyError):
            comparison.by_label("missing")

    def test_breakdown_helpers(self, lenet_workload):
        mapping = AcceleratorMapping(lenet_workload.quantized, (1, 28, 28))
        breakdown = PowerModel().uniform_breakdown(mapping, bits=7)
        assert breakdown.label == "UQ(7b)"
        scaled = breakdown.scaled(2.0)
        assert scaled.total == pytest.approx(2 * breakdown.total)
        power = breakdown.as_power(1e-3)
        assert power["ADC"] == pytest.approx(breakdown.per_component["ADC"] / 1e-3)
        with pytest.raises(ValueError):
            breakdown.as_power(0.0)
        with pytest.raises(ValueError):
            PowerModel().uniform_breakdown(mapping, bits=0)
        with pytest.raises(ValueError):
            EnergyConstants(e_adc_op=-1.0)

    def test_latency_model(self, lenet_workload):
        mapping = AcceleratorMapping(lenet_workload.quantized, (1, 28, 28))
        model = LatencyModel()
        baseline = model.breakdown(mapping)
        faster = model.breakdown(mapping, default_ops_per_conversion=4.0)
        assert baseline.total > 0
        assert faster.total <= baseline.total


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
class TestReport:
    def test_format_table_alignment_and_empty(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        table = format_table(rows)
        assert "a" in table.splitlines()[0]
        assert len(table.splitlines()) == 4
        assert format_table([]) == "(empty table)"

    def test_format_series_and_bar_chart(self):
        series = format_series("acc", ["8", "4"], [0.9, 0.7])
        assert "8=0.9" in series
        chart = ascii_bar_chart({"ADC": 10.0, "DAC": 5.0})
        assert chart.count("\n") == 1 and "#" in chart
        assert ascii_bar_chart({}) == "(no data)"

    def test_histogram_rows(self, skewed_samples):
        rows = histogram_rows(skewed_samples, np.ones_like(skewed_samples), num_bins=8)
        assert len(rows) == 8
        assert sum(r["count"] for r in rows) == skewed_samples.size
        assert histogram_rows(np.array([]), np.array([])) == []
        # A weighted distribution bins exactly like the sample it counts.
        values, counts = np.unique(skewed_samples, return_counts=True)
        assert histogram_rows(values, counts, num_bins=8) == rows

    def test_experiment_record_round_trip(self, tmp_path):
        record = ExperimentRecord(
            experiment_id="fig6c",
            description="Remaining ops",
            paper_reference="42-62%",
        )
        record.add_row(workload="lenet5", remaining_fraction=0.55)
        record.metadata["preset"] = "tiny"
        path = record.save(tmp_path / "fig6c.json")
        loaded = ExperimentRecord.load(path)
        assert loaded.rows == record.rows
        assert loaded.metadata["preset"] == "tiny"
        table = record.to_table()
        assert "fig6c" in table and "remaining_fraction" in table
        index = summarize_records([record])
        assert "fig6c" in index

    def test_figure_builders(self, skewed_samples):
        histogram = np.bincount(skewed_samples.astype(np.int64))
        fig3 = fig3a_distribution_record({"layer0": histogram}, num_bins=8)
        row = fig3.rows[0]
        assert row["frac_below_max_over_8"] > 0.5
        assert "layer0" in fig3.metadata["histograms"]
        # Read from cumulative counts, the statistics equal the sample's own.
        assert row["count"] == skewed_samples.size
        assert row["median"] == np.median(skewed_samples)
        assert row["p95"] == pytest.approx(np.percentile(skewed_samples, 95), rel=1e-12)
        assert row["max"] == skewed_samples.max()
        assert row["frac_below_max_over_8"] == np.mean(
            skewed_samples <= skewed_samples.max() / 8.0
        )

        fig6 = fig6_accuracy_record(
            "fig6a", "Accuracy vs resolution", "ref",
            {"lenet5": {"f/f": 0.9, "4": 0.6}},
        )
        assert len(fig6.rows) == 2

        fig6c = fig6c_ops_record({"lenet5": 0.5}, per_layer={"lenet5": {"conv1": 0.4}})
        assert fig6c.rows[0]["reduction_factor"] == pytest.approx(2.0)

        fig7 = fig7_power_record([{"workload": "lenet5", "config": "ISAAC", "ADC": 1.0}])
        assert fig7.rows[0]["config"] == "ISAAC"
