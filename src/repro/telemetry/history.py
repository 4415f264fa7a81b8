"""Durable performance history: one JSONL record per traced sweep.

After a traced ``run_sweep`` completes, the runner appends a compact
summary record — elapsed time, critical path, per-wave utilization,
cache efficiency, per-kind duration quantiles, peak RSS — to
``benchmarks/results/history.jsonl`` (:func:`append_history`).  The file
is the repo's performance trajectory: ``trace history`` lists it,
``trace regress`` compares the latest record against a pinned baseline
and exits nonzero on regression, so CI catches slowdowns in the fast
engine or the executors before they ship.

Regression detection mirrors ``find_stragglers``' two-gate design: a
metric regresses only when it exceeds the baseline by a *relative*
factor **and** an *absolute* gap.  Seconds-fast smoke runs therefore
never flag timing noise (a 3× slowdown from 0.2 s to 0.6 s fails the
absolute gate), while a real multi-minute regression trips both.

Records are plain dicts ingested from
:func:`repro.telemetry.analysis.summary_to_jsonable` — the same
serialization ``trace summary --json`` prints, so external consumers and
this module read one schema.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

#: File name of the history log (conventionally under the benchmark
#: results directory, next to the store).
HISTORY_FILENAME = "history.jsonl"


def default_history_path(out_dir: Union[str, Path]) -> Path:
    """The conventional history location for a results directory."""
    return Path(out_dir) / HISTORY_FILENAME


# --------------------------------------------------------------------- #
# Record construction + persistence
# --------------------------------------------------------------------- #
def history_record(
    summary: Dict[str, object],
    executor: Optional[str] = None,
    trial_batch: Optional[int] = None,
) -> Dict[str, object]:
    """One compact history record from a jsonable trace summary.

    ``summary`` is :func:`~repro.telemetry.analysis.summary_to_jsonable`
    output.  Only trajectory-relevant aggregates are kept — per-job
    detail stays in the telemetry run directory, addressed by the
    recorded ``run_id``.

    ``trial_batch`` is the sweep's Monte Carlo batching knob: it changes
    wall time without changing results, so the record keeps it next to
    the timings it explains.
    """
    waves = [
        {
            "wave": wave.get("wave"),
            "jobs": wave.get("jobs"),
            "streams": wave.get("streams"),
            "span_s": wave.get("span_s"),
            "utilization": wave.get("utilization"),
        }
        for wave in summary.get("waves", ())  # type: ignore[union-attr]
    ]
    chain = list(summary.get("critical_path", ()))  # type: ignore[arg-type]
    record: Dict[str, object] = {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "run_id": summary.get("run_id"),
        "sweep": summary.get("sweep"),
        "executor": executor,
        "trial_batch": trial_batch,
        "elapsed_s": summary.get("elapsed_s"),
        "critical_path_s": summary.get("critical_path_s"),
        "critical_path_fraction": summary.get("critical_path_fraction"),
        "critical_path_kinds": [str(e.get("kind", "?")) for e in chain],
        "jobs": {
            "executed": summary.get("executed"),
            "ok": summary.get("ok"),
            "failed": summary.get("failed"),
            "cached": summary.get("cached"),
            "upstream_failed": summary.get("upstream_failed"),
            "aborted": summary.get("aborted"),
        },
        "cache": summary.get("cache"),
        "waves": waves,
        "kinds": summary.get("kinds"),
        "resources": summary.get("resources"),
    }
    return {k: v for k, v in record.items() if v is not None}


def append_history(path: Union[str, Path], record: Dict[str, object]) -> Path:
    """Append one record to the history log (single atomic line write)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, default=str) + "\n"
    # O_APPEND single-write: concurrent appenders (parallel CI shards)
    # never interleave within a line.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)
    return path


def load_history(
    path: Union[str, Path], sweep: Optional[str] = None
) -> List[Dict[str, object]]:
    """All history records, oldest first, optionally filtered to one sweep.

    Missing file → ``[]``; torn final lines are skipped like telemetry
    streams.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: List[Dict[str, object]] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if sweep is not None and record.get("sweep") != sweep:
            continue
        records.append(record)
    return records


def find_baseline(
    records: Sequence[Dict[str, object]], baseline: str = "first"
) -> Optional[Dict[str, object]]:
    """Resolve a baseline spec against a record list.

    ``"first"`` → the oldest record; an integer string → that index
    (negatives count from the end, Python-style); anything else → the
    newest record whose ``run_id`` matches.  ``None`` when nothing
    matches.
    """
    if not records:
        return None
    if baseline == "first":
        return records[0]
    try:
        return records[int(baseline)]
    except (ValueError, IndexError):
        pass
    for record in reversed(records):
        if record.get("run_id") == baseline:
            return record
    return None


# --------------------------------------------------------------------- #
# Regression comparison
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class Regression:
    """One metric that exceeded both regression gates."""

    metric: str
    baseline: float
    latest: float
    factor: float       # latest / baseline (inf-safe: baseline > 0 here)
    gap: float          # latest - baseline, metric units

    def describe(self) -> str:
        return (
            f"{self.metric}: {self.latest:.3f} vs baseline "
            f"{self.baseline:.3f} ({self.factor:.2f}x, +{self.gap:.3f})"
        )


def metric_value(record: Dict[str, object], path: Sequence[str]) -> Optional[float]:
    node: object = record
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    try:
        return float(node)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def compare_records(
    baseline: Dict[str, object],
    latest: Dict[str, object],
    factor: float = 1.5,
    min_gap_s: float = 5.0,
    rss_factor: float = 1.5,
    min_gap_rss_kb: float = 262144.0,
) -> List[Regression]:
    """Two-gate regression comparison between two history records.

    Timing metrics (``elapsed_s``, ``critical_path_s``) regress when
    ``latest > factor × baseline`` **and** ``latest - baseline >
    min_gap_s``.  Peak RSS uses its own gates (``rss_factor``,
    ``min_gap_rss_kb`` — default 256 MiB).  Metrics absent from either
    record are skipped: a smoke run with no resource support never
    fails on RSS.
    """
    gates = [
        (("elapsed_s",), factor, min_gap_s),
        (("critical_path_s",), factor, min_gap_s),
        (("resources", "peak_rss_kb"), rss_factor, min_gap_rss_kb),
    ]
    regressions: List[Regression] = []
    from repro.telemetry.analysis import exceeds_gates  # lazy: heavy deps

    for path, gate_factor, gate_gap in gates:
        base = metric_value(baseline, path)
        new = metric_value(latest, path)
        if base is None or new is None or base <= 0:
            continue
        if exceeds_gates(new, base, gate_factor, gate_gap):
            regressions.append(
                Regression(
                    metric=".".join(path),
                    baseline=base,
                    latest=new,
                    factor=new / base,
                    gap=new - base,
                )
            )
    return regressions
