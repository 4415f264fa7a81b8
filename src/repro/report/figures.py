"""Builders that assemble the paper's figures as experiment records.

These helpers contain the *reporting* logic shared between the benchmark
harness, the experiments CLI and CI: given simulator/calibration outputs —
or, since the figure pipeline moved onto the experiment store, a
:class:`~repro.experiments.runner.SweepRun` plus the store its jobs wrote —
they produce the rows of each figure.  The heavy lifting (training,
simulation, search) stays in the runner so figure sweeps cache, resume and
parallelise like any other experiment.

Two layers of API:

* ``fig*_record(...)`` — pure row builders from in-memory data (the
  original seed interface, still used directly by tests).
* ``fig*_record_from_run(run, store)`` / :func:`render_figure_outputs` —
  the store-backed path: rebuild each figure's record from a figure
  preset's stored rows/arrays and emit the paper-style JSON + markdown +
  CSV tables.  This is the one code path shared by the ``bench_fig*.py``
  shims, ``python -m repro.experiments run --preset fig*`` and CI.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.distribution import histogram_values, weighted_quantile
from repro.report.experiments import ExperimentRecord
from repro.report.tables import (
    ascii_bar_chart,
    format_cell,
    format_table,
    histogram_rows,
    union_columns,
)


def distribution_statistics(histogram, low_share: int = 8) -> Dict[str, float]:
    """Fig. 3a's statistics of one bit-line histogram (entry ``v`` counts
    the value ``v``), read from its cumulative counts: how many values it
    holds, their median, 95th percentile and maximum, and the fraction at
    most ``max / low_share``."""
    values, counts = histogram_values(histogram)
    total = int(counts.sum())
    maximum = float(values[-1])
    low = int(counts[values <= maximum / low_share].sum()) / total if maximum > 0 else 1.0
    return {
        "count": total,
        "median": weighted_quantile(values, counts, 50),
        "p95": weighted_quantile(values, counts, 95),
        "max": maximum,
        f"frac_below_max_over_{low_share}": low,
    }


def fig3a_distribution_record(
    layer_histograms: Mapping[str, np.ndarray],
    num_bins: int = 16,
    max_layers: Optional[int] = None,
) -> ExperimentRecord:
    """Fig. 3a: the skewed distribution of crossbar bit-line outputs, from
    per-layer bit-line histograms (entry ``v`` counts the value ``v``)."""
    record = ExperimentRecord(
        experiment_id="fig3a",
        description="Distribution of crossbar bit-line outputs",
        paper_reference=(
            "Highly imbalanced distribution; the majority of samples concentrate "
            "in a small interval close to zero (Fig. 3a)"
        ),
    )
    names = [name for name in layer_histograms if np.any(layer_histograms[name])]
    if max_layers is not None:
        names = names[:max_layers]
    for name in names:
        record.add_row(layer=name, **distribution_statistics(layer_histograms[name]))
    record.metadata["histograms"] = {
        name: histogram_rows(*histogram_values(layer_histograms[name]), num_bins=num_bins)
        for name in names
    }
    return record


def fig6_accuracy_record(
    experiment_id: str,
    description: str,
    paper_reference: str,
    accuracy_by_config: Mapping[str, Mapping[str, float]],
) -> ExperimentRecord:
    """Fig. 6a/6b: accuracy versus ADC sensing precision.

    ``accuracy_by_config`` maps workload name to an ordered mapping of
    configuration label (``"f/f"``, ``"8/f"``, ``"8"``, … ``"4"``) to accuracy.
    """
    record = ExperimentRecord(
        experiment_id=experiment_id,
        description=description,
        paper_reference=paper_reference,
    )
    for workload, series in accuracy_by_config.items():
        for label, accuracy in series.items():
            record.add_row(workload=workload, config=label, accuracy=float(accuracy))
    return record


def fig6c_ops_record(
    remaining_by_workload: Mapping[str, float],
    per_layer: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> ExperimentRecord:
    """Fig. 6c: remaining A/D operations with TRQ (relative to 8-op baseline)."""
    record = ExperimentRecord(
        experiment_id="fig6c",
        description="Remaining A/D operations with TRQ",
        paper_reference="42%-62% of baseline operations remain (1.6-2.3x reduction)",
    )
    for workload, fraction in remaining_by_workload.items():
        record.add_row(
            workload=workload,
            remaining_fraction=float(fraction),
            reduction_factor=float(1.0 / fraction) if fraction > 0 else float("inf"),
        )
    if per_layer:
        record.metadata["per_layer_remaining_fraction"] = {
            workload: dict(layers) for workload, layers in per_layer.items()
        }
    return record


def fig7_power_record(rows: Sequence[Dict[str, object]]) -> ExperimentRecord:
    """Fig. 7: power/energy breakdown per workload and configuration."""
    record = ExperimentRecord(
        experiment_id="fig7",
        description="Accelerator energy breakdown (ISAAC vs Ours vs UQ)",
        paper_reference=(
            "ADC dominates the ISAAC baseline (>60%); TRQ significantly reduces the "
            "ADC component while other components stay unchanged (Fig. 7)"
        ),
    )
    for row in rows:
        record.add_row(**row)
    return record


# --------------------------------------------------------------------- #
# Store-backed figure reports: rebuild each figure from a figure preset's
# SweepRun + ResultStore (the post-port pipeline).
# --------------------------------------------------------------------- #
def _stored(run, store):
    """(job, key, payload) for every job of the run with a stored artifact,
    in grid order (tolerated failures simply contribute nothing)."""
    for job, key in zip(run.sweep.expand(), run.keys):
        if store.has(key):
            yield job, key, store.load(key)


def _workload_series(
    run, store, include
) -> Dict[str, Dict[str, float]]:
    """Per-workload ``{config label: accuracy}`` series in grid order."""
    series: Dict[str, Dict[str, float]] = {}
    for job, _key, payload in _stored(run, store):
        label = job.label_dict
        config = label.get("config")
        if config is None or not include(job, config):
            continue
        series.setdefault(label["workload"], {})[config] = payload["row"]["accuracy"]
    return series


def _eval_images(run) -> Optional[int]:
    counts = {job.images for job in run.sweep.expand() if job.kind != "distribution"}
    return sorted(counts)[0] if counts else None


def fig3a_records_from_run(run, store) -> Dict[str, ExperimentRecord]:
    """Per-workload Fig. 3a records rebuilt from stored bit-line histograms."""
    records: Dict[str, ExperimentRecord] = {}
    for job, key, _payload in _stored(run, store):
        if job.kind != "distribution":
            continue
        record = fig3a_distribution_record(store.load_arrays(key), num_bins=16)
        record.metadata.update(
            {"workload": job.workload.name,
             "calibration_images": job.distribution.images}
        )
        records[job.workload.name] = record
    return records


def fig6a_record_from_run(run, store) -> ExperimentRecord:
    """Fig. 6a from stored reference + calibrated-uniform evaluation rows."""
    def include(job, config):
        return job.kind == "evaluate" and (
            job.datapath in ("float", "fakequant") or config.isdigit()
        )

    raw = _workload_series(run, store, include)
    accuracy_by_config: Dict[str, Dict[str, float]] = {}
    for workload, series in raw.items():
        bits = sorted((int(c) for c in series if c.isdigit()), reverse=True)
        ordered: Dict[str, float] = {}
        for config in ("f/f", "8/f", *map(str, bits)):
            if config in series:
                ordered[config] = series[config]
        accuracy_by_config[workload] = ordered
    record = fig6_accuracy_record(
        "fig6a",
        "Accuracy vs ADC resolution, uniform ADC (no TRQ)",
        "Uniform quantization needs >= 7 bits to preserve accuracy (Fig. 6a)",
        accuracy_by_config,
    )
    if (images := _eval_images(run)) is not None:
        record.metadata["eval_images"] = images
    return record


def fig6b_record_from_run(run, store) -> ExperimentRecord:
    """Fig. 6b from stored TRQ calibration rows (+ the uniform 4-bit point)."""
    accuracy_by_config: Dict[str, Dict[str, float]] = {}
    ops_by_config: Dict[str, Dict[str, float]] = {}
    uniform_4bit: Dict[str, float] = {}
    for job, _key, payload in _stored(run, store):
        config = job.label_dict.get("config", "")
        workload = job.workload.name
        row = payload["row"]
        if job.kind == "evaluate" and config == "4":
            uniform_4bit[workload] = row["accuracy"]
        elif job.kind == "calibration" and config.startswith("trq"):
            bits = config[len("trq"):]
            series = accuracy_by_config.setdefault(workload, {})
            series[bits] = row["accuracy"]
            if "ideal" not in series:
                series["ideal"] = row["baseline_accuracy"]
            ops_by_config.setdefault(workload, {})[bits] = row["remaining_ops_fraction"]
    record = fig6_accuracy_record(
        "fig6b",
        "Accuracy vs ADC resolution with TRQ",
        "TRQ at 4-bit sensing matches uniform conversion at 7-8 bits (Fig. 6b)",
        accuracy_by_config,
    )
    record.metadata["remaining_ops_fraction"] = ops_by_config
    record.metadata["uniform_4bit_accuracy"] = uniform_4bit
    if (images := _eval_images(run)) is not None:
        record.metadata["eval_images"] = images
    return record


def fig6c_record_from_run(run, store) -> ExperimentRecord:
    """Fig. 6c from the stored 4-bit TRQ calibration artifacts.

    Byte-identical to the pre-port benchmark's record: same row builder
    (:func:`fig6c_ops_record`), same per-layer metadata, values read back
    from the store's exact-round-trip JSON.
    """
    remaining: Dict[str, float] = {}
    per_layer: Dict[str, Dict[str, float]] = {}
    accuracy: Dict[str, Dict[str, float]] = {}
    for job, _key, payload in _stored(run, store):
        if job.kind != "calibration" or job.calibration.initial_n_max != 4:
            continue
        workload = job.workload.name
        row = payload["row"]
        remaining[workload] = row["remaining_ops_fraction"]
        per_layer[workload] = dict(payload["per_layer_remaining_fraction"])
        accuracy[workload] = {"ideal": row["baseline_accuracy"], "trq": row["accuracy"]}
    record = fig6c_ops_record(remaining, per_layer=per_layer)
    record.metadata["accuracy_ideal_vs_trq"] = accuracy
    if (images := _eval_images(run)) is not None:
        record.metadata["eval_images"] = images
    return record


def fig7_record_from_run(run, store) -> ExperimentRecord:
    """Fig. 7 from the stored power-breakdown artifacts."""
    rows: List[Dict[str, object]] = []
    adc_reduction: Dict[str, float] = {}
    for job, _key, payload in _stored(run, store):
        if job.kind != "power":
            continue
        rows.extend(payload["breakdown_rows"])
        adc_reduction[job.workload.name] = payload["row"]["adc_reduction_vs_isaac"]
    record = fig7_power_record(rows)
    record.metadata["adc_reduction_vs_isaac"] = adc_reduction
    return record


# --------------------------------------------------------------------- #
# Markdown / CSV emitters and the one-stop renderer
# --------------------------------------------------------------------- #
def record_to_markdown(record: ExperimentRecord) -> str:
    """A GitHub-flavoured markdown rendering of one experiment record."""
    lines = [
        f"# {record.experiment_id}: {record.description}",
        "",
        f"> paper: {record.paper_reference}",
        "",
    ]
    if record.rows:
        columns = union_columns(record.rows)
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in columns) + "|")
        for row in record.rows:
            lines.append(
                "| "
                + " | ".join(format_cell(row.get(c, "")) for c in columns)
                + " |"
            )
    else:
        lines.append("_(no rows)_")
    lines.append("")
    return "\n".join(lines)


#: Per-record-stem (label column, value column) picks for the ASCII charts;
#: records not listed fall back to the first string + first numeric column.
_ASCII_CHART_COLUMNS = {
    "fig6a": ("config", "accuracy"),
    "fig6b": ("config", "accuracy"),
    "fig6c": ("workload", "remaining_fraction"),
    "fig7": ("config", "total_J"),
}


def _ascii_chart_columns(record: ExperimentRecord):
    stem = record.experiment_id.split("_")[0]
    preferred = _ASCII_CHART_COLUMNS.get(stem)
    columns = union_columns(record.rows)
    if preferred and all(c in columns for c in preferred):
        return preferred
    label = next(
        (c for c in columns
         if any(isinstance(row.get(c), str) for row in record.rows)),
        columns[0] if columns else None,
    )
    value = next(
        (c for c in columns
         if c != label
         and any(isinstance(row.get(c), (int, float)) for row in record.rows)),
        None,
    )
    return (label, value) if label is not None and value is not None else None


def record_to_ascii(record: ExperimentRecord, width: int = 40) -> str:
    """A terminal rendering of one figure record: bar charts + the table.

    Rows are grouped by workload when a ``workload`` column exists (one
    chart per workload, mirroring the paper's per-workload panels); the
    bar value/label columns are figure-aware with a generic fallback, and
    the full aligned table follows so no column is lost to the chart.
    """
    lines = [
        f"# {record.experiment_id}: {record.description}",
        f"paper: {record.paper_reference}",
        "",
    ]
    picked = _ascii_chart_columns(record)
    if record.rows and picked is not None:
        label_col, value_col = picked
        groups: Dict[str, Dict[str, float]] = {}
        for row in record.rows:
            value = row.get(value_col)
            # Guard each cell: the picker accepts a column when ANY row is
            # numeric, but a sparse/mixed column must skip (not crash on)
            # its non-numeric cells.
            if label_col not in row or isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                continue
            group = str(row["workload"]) if "workload" in row else ""
            if label_col == "workload":
                group = ""
            groups.setdefault(group, {})[str(row[label_col])] = float(value)
        for group, series in groups.items():
            if group:
                lines.append(f"{group} ({value_col}):")
            else:
                lines.append(f"{value_col}:")
            lines.append(ascii_bar_chart(series, width=width))
            lines.append("")
    lines.append(format_table(record.rows) if record.rows else "(no rows)")
    lines.append("")
    return "\n".join(lines)


def record_to_csv(record: ExperimentRecord) -> str:
    """A CSV rendering of one experiment record's rows."""
    columns = union_columns(record.rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in record.rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buffer.getvalue()


def figure_records_from_run(
    experiment_id: str, run, store
) -> Dict[str, ExperimentRecord]:
    """Every figure record a preset's run can rebuild, keyed by output stem.

    ``fig6`` yields all three of its sub-figures; ``fig3`` yields one
    record per workload (``fig3a_<workload>``).
    """
    records: Dict[str, ExperimentRecord] = {}
    if experiment_id == "fig3":
        for workload, record in fig3a_records_from_run(run, store).items():
            records[f"fig3a_{workload}"] = record
    if experiment_id in ("fig6", "fig6a"):
        records["fig6a"] = fig6a_record_from_run(run, store)
    if experiment_id in ("fig6", "fig6b"):
        records["fig6b"] = fig6b_record_from_run(run, store)
    if experiment_id in ("fig6", "fig6c"):
        records["fig6c"] = fig6c_record_from_run(run, store)
    if experiment_id == "fig7":
        records["fig7"] = fig7_record_from_run(run, store)
    return records


def render_figure_outputs(
    experiment_id: str,
    run,
    store,
    out_dir: Union[str, Path],
    formats: Sequence[str] = ("json", "md", "csv"),
) -> List[Path]:
    """Write each figure record as JSON + markdown + CSV tables.

    The shared reporting path of the ``bench_fig*.py`` shims, the CLI
    (``run --preset fig*``) and CI; returns the written paths.  Unknown
    experiment ids write nothing.  Add ``"ascii"`` to ``formats`` (the
    shims' and CLI's ``--ascii`` flag) for a ``<stem>.txt`` terminal
    rendering — per-workload bar charts plus the aligned table.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for stem, record in figure_records_from_run(experiment_id, run, store).items():
        if "json" in formats:
            written.append(record.save(out_dir / f"{stem}.json"))
        if "md" in formats:
            path = out_dir / f"{stem}.md"
            path.write_text(record_to_markdown(record))
            written.append(path)
        if "csv" in formats:
            path = out_dir / f"{stem}.csv"
            path.write_text(record_to_csv(record))
            written.append(path)
        if "ascii" in formats:
            path = out_dir / f"{stem}.txt"
            path.write_text(record_to_ascii(record))
            written.append(path)
    return written
