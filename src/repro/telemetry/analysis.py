"""Timeline reconstruction and critical-path analysis over a trace run.

Everything here is a pure function of one telemetry run directory (the
merged event streams plus the optional ``run.json``/``graph.json``
manifests).  The central object is :class:`TraceRun`:

* :meth:`TraceRun.executions` pairs ``job_start`` with
  ``job_finish``/``job_failed`` records per stream into
  :class:`JobExecution` intervals — the reconstructed timeline.
* :func:`critical_path` walks the scheduler's dependency graph (from the
  ``deps`` carried on the job events, unioned with ``graph.json``) and
  extracts the chain of dependent jobs with the largest summed duration —
  the chain that bounded the sweep's wall-clock.  Its summed duration is
  a *lower bound* on elapsed time: no schedule, however parallel, can
  beat it without changing the jobs.
* :func:`wave_stats` computes per-wave spans and utilization
  (``busy time / (streams × span)``) from the job intervals themselves, so
  it works identically for serial, process-pool and ``shard run``
  traces.
* :func:`find_stragglers` flags workers/shards whose busy time within a
  wave is far above their wave's median — the "which shard straggled"
  question.  Thresholds are relative *and* absolute (``factor`` ×  median
  and at least ``min_gap_s`` slower), so balanced seconds-fast smoke runs
  never flag noise.
* :func:`summarize` bundles the above plus cache-efficiency counters and
  per-kind duration histograms into one plain dict (what ``trace
  summary`` prints and tests assert on).
"""

from __future__ import annotations

import dataclasses
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry import events as ev
from repro.telemetry.tracer import load_events, load_graph, load_run_manifest


@dataclasses.dataclass
class JobExecution:
    """One reconstructed job execution interval."""

    key: str
    kind: str
    stream: str
    start_mono: float
    end_mono: Optional[float] = None
    duration_s: Optional[float] = None
    # "computed" | "failed" | "running" (no close yet) | "aborted" (no
    # close and the run recorded a terminal sweep_abort after the start).
    outcome: str = "running"
    index: Optional[int] = None
    wave: Optional[int] = None
    shard: Optional[int] = None
    queue_wait_s: Optional[float] = None
    error: Optional[str] = None
    deps: Tuple[str, ...] = ()
    cpu_s: Optional[float] = None
    max_rss_kb: Optional[float] = None

    @property
    def closed(self) -> bool:
        return self.end_mono is not None


@dataclasses.dataclass
class WaveStats:
    """Utilization of one topological wave."""

    wave: Optional[int]
    jobs: int
    streams: int
    busy_s: float
    span_s: float
    utilization: float


@dataclasses.dataclass
class Straggler:
    """A worker stream whose busy time dominated its wave."""

    wave: Optional[int]
    stream: str
    shard: Optional[int]
    busy_s: float
    median_busy_s: float
    jobs: int


class TraceRun:
    """One loaded telemetry run: events + manifests, lazily analysed."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.events: List[Dict[str, object]] = load_events(self.directory)
        self.manifest: Dict[str, object] = load_run_manifest(self.directory)
        self.graph: Dict[str, Dict[str, object]] = load_graph(self.directory)
        self._executions: Optional[List[JobExecution]] = None

    @property
    def run_id(self) -> str:
        if self.manifest.get("run_id"):
            return str(self.manifest["run_id"])
        for event in self.events:
            if event.get("run_id"):
                return str(event["run_id"])
        return self.directory.name

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------ #
    def select(self, *names: str) -> List[Dict[str, object]]:
        return [e for e in self.events if e.get("event") in names]

    def executions(self) -> List[JobExecution]:
        """Job intervals, paired per (key, stream) in stream order.

        A job executed twice (two racing shards both computing a shared
        sibling) yields two entries — :func:`summarize` surfaces the
        duplicate count rather than silently collapsing it.
        """
        if self._executions is not None:
            return self._executions
        open_by_stream_key: Dict[Tuple[str, str], JobExecution] = {}
        executions: List[JobExecution] = []
        for event in self.events:
            name = event.get("event")
            if name not in (*ev.JOB_OPEN_EVENTS, *ev.JOB_CLOSE_EVENTS):
                continue
            key = str(event.get("key", ""))
            stream = str(event.get("stream", ""))
            handle = (stream, key)
            if name in ev.JOB_OPEN_EVENTS:
                execution = JobExecution(
                    key=key,
                    kind=str(event.get("kind", "?")),
                    stream=stream,
                    start_mono=float(event.get("t_mono", 0.0)),
                    index=event.get("index"),
                    wave=event.get("wave"),
                    shard=event.get("shard"),
                    queue_wait_s=event.get("queue_wait_s"),
                    deps=tuple(event.get("deps", ()) or ()),
                )
                open_by_stream_key[handle] = execution
                executions.append(execution)
                continue
            execution = open_by_stream_key.pop(handle, None)
            if execution is None:
                continue  # close without an open (torn stream head)
            execution.end_mono = float(event.get("t_mono", 0.0))
            execution.duration_s = float(
                event.get("duration_s", execution.end_mono - execution.start_mono)
            )
            execution.outcome = (
                "computed" if name == ev.JOB_FINISH else "failed"
            )
            execution.error = event.get("error")
            if event.get("cpu_s") is not None:
                execution.cpu_s = float(event["cpu_s"])
            if event.get("max_rss_kb") is not None:
                execution.max_rss_kb = float(event["max_rss_kb"])
        # A terminal sweep_abort (executor __exit__ on Ctrl-C / exhausted
        # failure budget) means no close is ever coming for the intervals
        # still open at that instant: mark them aborted, not forever-running.
        aborts = self.select(ev.SWEEP_ABORT)
        if aborts:
            abort_mono = max(float(e.get("t_mono", 0.0)) for e in aborts)
            for execution in open_by_stream_key.values():
                if execution.start_mono <= abort_mono:
                    execution.outcome = "aborted"
        self._executions = executions
        return executions

    def executions_by_key(self) -> Dict[str, JobExecution]:
        """First (usually only) execution per content address."""
        by_key: Dict[str, JobExecution] = {}
        for execution in self.executions():
            by_key.setdefault(execution.key, execution)
        return by_key

    def duplicate_keys(self) -> List[str]:
        """Keys executed more than once (shards racing on a shared sibling)."""
        seen: Dict[str, int] = {}
        for execution in self.executions():
            seen[execution.key] = seen.get(execution.key, 0) + 1
        return sorted(key for key, count in seen.items() if count > 1)

    def cached_keys(self) -> List[str]:
        return [str(e.get("key", "")) for e in self.select(ev.JOB_CACHED)]

    def upstream_failed_keys(self) -> List[str]:
        return [
            str(e.get("key", "")) for e in self.select(ev.JOB_UPSTREAM_FAILED)
        ]

    def counters(self) -> Dict[str, float]:
        """Latest sample per counter name."""
        values: Dict[str, float] = {}
        for event in self.select(ev.COUNTER):
            values[str(event.get("name"))] = float(event.get("value", 0.0))
        return values

    def elapsed_s(self) -> Optional[float]:
        """Sweep elapsed time: the sweep span when recorded, else the span
        of the observed job executions."""
        starts = self.select(ev.SWEEP_START)
        finishes = self.select(ev.SWEEP_FINISH)
        if starts and finishes:
            return float(finishes[-1]["t_mono"]) - float(starts[0]["t_mono"])
        closed = [e for e in self.executions() if e.closed]
        if not closed:
            return None
        return max(e.end_mono for e in closed) - min(e.start_mono for e in closed)

    def dependency_map(self) -> Dict[str, Tuple[str, ...]]:
        """Scheduled-dependency adjacency: job-event ``deps`` ∪ ``graph.json``."""
        adjacency: Dict[str, Tuple[str, ...]] = {}
        for key, node in self.graph.items():
            adjacency[key] = tuple(node.get("deps", ()) or ())
        for execution in self.executions():
            if execution.deps or execution.key not in adjacency:
                merged = dict.fromkeys(adjacency.get(execution.key, ()))
                merged.update(dict.fromkeys(execution.deps))
                adjacency[execution.key] = tuple(merged)
        return adjacency


def load_run(directory: Union[str, Path]) -> TraceRun:
    return TraceRun(directory)


# --------------------------------------------------------------------- #
# Critical path
# --------------------------------------------------------------------- #
def critical_path(run: TraceRun) -> List[JobExecution]:
    """The executed dependency chain with the largest summed duration.

    Classic longest path over the DAG restricted to *executed* jobs
    (cached dependencies cost nothing — they bounded no wall-clock).
    Returned in execution order (upstream first); empty when nothing
    executed.  The chain is dependency-consistent: each entry after the
    first names its predecessor in ``deps``/``graph.json``.
    """
    executions = run.executions_by_key()
    adjacency = run.dependency_map()
    cost: Dict[str, float] = {}
    best_parent: Dict[str, Optional[str]] = {}

    def resolve(key: str, trail: frozenset) -> float:
        if key in cost:
            return cost[key]
        execution = executions.get(key)
        duration = execution.duration_s or 0.0 if execution else 0.0
        parent: Optional[str] = None
        upstream = 0.0
        for dep in adjacency.get(key, ()):
            if dep == key or dep in trail or dep not in executions:
                continue  # cached/absent deps bounded nothing
            dep_cost = resolve(dep, trail | {key})
            if dep_cost > upstream:
                upstream, parent = dep_cost, dep
        cost[key] = upstream + duration
        best_parent[key] = parent
        return cost[key]

    for key in executions:
        resolve(key, frozenset())
    if not cost:
        return []
    terminal = max(cost, key=lambda key: (cost[key], key))
    chain: List[JobExecution] = []
    cursor: Optional[str] = terminal
    while cursor is not None:
        chain.append(executions[cursor])
        cursor = best_parent.get(cursor)
    chain.reverse()
    return chain


# --------------------------------------------------------------------- #
# Waves, utilization, stragglers
# --------------------------------------------------------------------- #
def _by_wave(executions: Sequence[JobExecution]) -> Dict[Optional[int], List[JobExecution]]:
    waves: Dict[Optional[int], List[JobExecution]] = {}
    for execution in executions:
        if not execution.closed:
            continue
        waves.setdefault(execution.wave, []).append(execution)
    return waves


def wave_stats(run: TraceRun) -> List[WaveStats]:
    """Per-wave span, busy time and utilization, from the job intervals.

    ``span`` is first start → last end within the wave; ``busy`` sums the
    wave's job durations; ``utilization = busy / (streams × span)`` — 1.0
    means every participating worker computed for the whole wave span.
    """
    stats: List[WaveStats] = []
    for wave, members in sorted(
        _by_wave(run.executions()).items(),
        key=lambda item: (item[0] is None, item[0]),
    ):
        busy = sum(e.duration_s or 0.0 for e in members)
        span = max(e.end_mono for e in members) - min(e.start_mono for e in members)
        streams = len({e.stream for e in members})
        utilization = (
            busy / (streams * span) if span > 0 and streams else 1.0
        )
        stats.append(
            WaveStats(
                wave=wave, jobs=len(members), streams=streams,
                busy_s=busy, span_s=span, utilization=min(utilization, 1.0),
            )
        )
    return stats


def exceeds_gates(
    value: float, baseline: float, factor: float, min_gap: float
) -> bool:
    """The two-gate threshold shared by every "is this slow?" decision.

    ``value`` is flagged only when it exceeds ``baseline`` by the
    *relative* ``factor`` **and** by the *absolute* ``min_gap`` — so
    seconds-fast smoke runs never flag noise (a 3× slowdown from 0.2 s
    to 0.6 s fails the absolute gate) while real regressions trip both.
    Used by :func:`find_stragglers` and ``trace regress``
    (:func:`repro.telemetry.history.compare_records`), so the two
    consumers can never drift apart.
    """
    return value > factor * baseline and value - baseline > min_gap


def find_stragglers(
    run: TraceRun, factor: float = 2.0, min_gap_s: float = 5.0
) -> List[Straggler]:
    """Workers whose per-wave busy time dominated their peers'.

    A stream straggles in a wave when its busy time exceeds ``factor`` ×
    the median busy time of that wave's streams **and** the absolute gap
    exceeds ``min_gap_s`` (so sub-second imbalance in smoke runs never
    counts).  Waves with a single stream cannot straggle.
    """
    stragglers: List[Straggler] = []
    for wave, members in sorted(
        _by_wave(run.executions()).items(),
        key=lambda item: (item[0] is None, item[0]),
    ):
        busy_by_stream: Dict[str, List[JobExecution]] = {}
        for execution in members:
            busy_by_stream.setdefault(execution.stream, []).append(execution)
        if len(busy_by_stream) < 2:
            continue
        busies = {
            stream: sum(e.duration_s or 0.0 for e in items)
            for stream, items in busy_by_stream.items()
        }
        median = statistics.median(busies.values())
        for stream, busy in sorted(busies.items()):
            if exceeds_gates(busy, median, factor, min_gap_s):
                shards = {e.shard for e in busy_by_stream[stream]}
                stragglers.append(
                    Straggler(
                        wave=wave, stream=stream,
                        shard=next(iter(shards)) if len(shards) == 1 else None,
                        busy_s=busy, median_busy_s=median,
                        jobs=len(busy_by_stream[stream]),
                    )
                )
    return stragglers


# --------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sequence (0 <= q <= 1)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def kind_histogram(run: TraceRun) -> Dict[str, Dict[str, float]]:
    """Per-kind duration stats (incl. p50/p90) over the closed executions."""
    by_kind: Dict[str, List[float]] = {}
    for execution in run.executions():
        if execution.closed and execution.duration_s is not None:
            by_kind.setdefault(execution.kind, []).append(execution.duration_s)
    return {
        kind: {
            "count": float(len(durations)),
            "total_s": sum(durations),
            "mean_s": sum(durations) / len(durations),
            "min_s": min(durations),
            "p50_s": quantile(durations, 0.5),
            "p90_s": quantile(durations, 0.9),
            "max_s": max(durations),
        }
        for kind, durations in sorted(by_kind.items())
    }


def resource_summary(run: TraceRun) -> Dict[str, float]:
    """Peak RSS and total CPU across every stream of a run.

    ``peak_rss_kb`` is the maximum high-water mark any participating
    process reported (via periodic ``resource_sample`` events or the
    ``max_rss_kb`` riding on ``job_finish``); ``cpu_total_s`` sums the
    *last* cumulative CPU sample of each stream (``getrusage`` values are
    per-process monotone, so the last sample is the process total so
    far).  Empty on platforms without resource support.
    """
    peak = 0.0
    cpu_by_stream: Dict[str, float] = {}
    samples = 0
    for event in run.events:
        name = event.get("event")
        if name == ev.RESOURCE_SAMPLE:
            samples += 1
            stream = str(event.get("stream", ""))
            user = float(event.get("cpu_user_s", 0.0) or 0.0)
            system = float(event.get("cpu_system_s", 0.0) or 0.0)
            if user or system:
                cpu_by_stream[stream] = user + system
        elif name != ev.JOB_FINISH:
            continue
        if event.get("max_rss_kb") is not None:
            peak = max(peak, float(event["max_rss_kb"]))
    if not samples and peak == 0.0:
        return {}
    summary: Dict[str, float] = {"samples": float(samples)}
    if peak:
        summary["peak_rss_kb"] = peak
    if cpu_by_stream:
        summary["cpu_total_s"] = sum(cpu_by_stream.values())
    return summary


def cache_summary(run: TraceRun) -> Dict[str, float]:
    """Cache efficiency: hits (store skips) vs executed jobs."""
    executed = [e for e in run.executions() if e.closed]
    hits = run.counters().get(ev.COUNTER_CACHE_HITS)
    if hits is None:
        hits = float(len(run.cached_keys()))
    total = hits + len(executed)
    return {
        "hits": hits,
        "executed": float(len(executed)),
        "hit_rate": hits / total if total else 0.0,
    }


def summarize(run: TraceRun) -> Dict[str, object]:
    """Everything ``trace summary`` prints, as one plain dict."""
    executions = [e for e in run.executions() if e.closed]
    failed = [e for e in executions if e.outcome == "failed"]
    open_executions = [e for e in run.executions() if not e.closed]
    chain = critical_path(run)
    elapsed = run.elapsed_s()
    chain_s = sum(e.duration_s or 0.0 for e in chain)
    return {
        "run_id": run.run_id,
        "sweep": run.manifest.get("sweep"),
        "events": len(run.events),
        "streams": len({e.get("stream") for e in run.events}),
        "executed": len(executions),
        "ok": len(executions) - len(failed),
        "failed": len(failed),
        "aborted": sum(1 for e in open_executions if e.outcome == "aborted"),
        "running": sum(1 for e in open_executions if e.outcome == "running"),
        "cached": len(run.cached_keys()),
        "upstream_failed": len(run.upstream_failed_keys()),
        "duplicates": run.duplicate_keys(),
        "elapsed_s": elapsed,
        "critical_path": chain,
        "critical_path_s": chain_s,
        "critical_path_fraction": (
            chain_s / elapsed if elapsed and elapsed > 0 else None
        ),
        "waves": wave_stats(run),
        "stragglers": find_stragglers(run),
        "kinds": kind_histogram(run),
        "cache": cache_summary(run),
        "resources": resource_summary(run),
        "counters": run.counters(),
    }


def execution_to_dict(execution: JobExecution) -> Dict[str, object]:
    """One job interval as a plain JSON-serializable dict (None dropped)."""
    raw = dataclasses.asdict(execution)
    raw["deps"] = list(execution.deps)
    return {name: value for name, value in raw.items() if value is not None}


def summary_to_jsonable(summary: Dict[str, object]) -> Dict[str, object]:
    """A :func:`summarize` dict with every dataclass flattened to plain JSON.

    This is the one serialization of a trace summary: ``trace summary
    --json`` prints it, CI assertions parse it, and the perf-history layer
    (:mod:`repro.telemetry.history`) ingests it — so machine consumers
    never scrape the human-oriented summary lines.
    """
    jsonable = dict(summary)
    jsonable["critical_path"] = [
        execution_to_dict(e) for e in summary.get("critical_path", ())
    ]
    jsonable["waves"] = [
        dataclasses.asdict(stats) for stats in summary.get("waves", ())
    ]
    jsonable["stragglers"] = [
        dataclasses.asdict(straggler) for straggler in summary.get("stragglers", ())
    ]
    return jsonable
