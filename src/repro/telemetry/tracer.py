"""Structured-trace emission: spans, events and counters as JSONL streams.

One telemetry *run* is a directory — conventionally
``<store>/telemetry/<run_id>/`` (:func:`run_directory`) — holding:

* ``events-<stream>.jsonl`` — one file per writing process.  Every
  participant (the orchestrating parent, each process-pool worker, each
  ``shard run`` subprocess) appends whole lines to its *own* file, so
  concurrent writers never interleave and a crash can at worst truncate
  the final line of one stream.  :func:`load_events` tolerates that.
* ``run.json`` — the run manifest (sweep name, executor, salt, format),
  written once by the orchestrating process.
* ``graph.json`` — the scheduler's dependency adjacency over the run's
  scheduled jobs, written by the orchestrator so analysis can reconstruct
  the timeline against the exact graph that executed.

:func:`load_events` reads the streams back as one time-ordered list.

The :class:`Tracer` base class is the **disabled** tracer: every method is
a no-op, so the fast path pays one dynamic call per would-be event and
nothing else.  :class:`JsonlTracer` is the real writer.  Neither touches
job addressing or stored artifacts — telemetry is strictly out-of-band.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import secrets
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.telemetry.events import TELEMETRY_DIRNAME, TELEMETRY_FORMAT

RUN_MANIFEST_NAME = "run.json"
GRAPH_NAME = "graph.json"


def new_run_id() -> str:
    """A sortable, collision-safe run id: UTC stamp + pid + random tail."""
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return f"{stamp}-p{os.getpid()}-{secrets.token_hex(3)}"


def telemetry_root(store_root: Union[str, Path]) -> Path:
    """The telemetry directory of a result store."""
    return Path(store_root) / TELEMETRY_DIRNAME


def run_directory(store_root: Union[str, Path], run_id: str) -> Path:
    return telemetry_root(store_root) / run_id


# --------------------------------------------------------------------- #
# Tracers
# --------------------------------------------------------------------- #
class Tracer:
    """The disabled tracer: every operation is a cheap no-op.

    Doubles as the interface: :meth:`emit` records one event,
    :meth:`span` wraps a block in ``<name>_start``/``<name>_finish``
    events carrying ``duration_s``, :meth:`counter` emits a named sample.
    """

    enabled: bool = False

    def emit(self, event: str, **fields: object) -> None:  # noqa: ARG002
        return None

    def counter(self, name: str, value: float = 1) -> None:  # noqa: ARG002
        return None

    @contextlib.contextmanager
    def span(self, name: str, **fields: object) -> Iterator[None]:  # noqa: ARG002
        yield

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


#: The shared no-op instance (stateless, safe to reuse everywhere).
NULL_TRACER = Tracer()


class JsonlTracer(Tracer):
    """Append-only JSONL event writer: one stream file per process.

    The stream name defaults to ``p<pid>-<random>`` so two processes (or
    one pid recycled across forks) can never collide on a file.  Records
    are written as single lines and flushed immediately; the file handle
    opens lazily on the first event, so constructing a tracer that never
    fires is free.
    """

    enabled = True

    def __init__(
        self,
        directory: Union[str, Path],
        run_id: Optional[str] = None,
        stream: Optional[str] = None,
    ) -> None:
        self.directory = Path(directory)
        self.run_id = run_id if run_id is not None else self.directory.name
        self.stream = (
            stream if stream is not None
            else f"p{os.getpid()}-{secrets.token_hex(3)}"
        )
        self.path = self.directory / f"events-{self.stream}.jsonl"
        self._handle = None
        self._seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def emit(self, event: str, **fields: object) -> None:
        record: Dict[str, object] = {
            "event": event,
            "run_id": self.run_id,
            "stream": self.stream,
            "pid": os.getpid(),
            "t_wall": time.time(),
            "t_mono": time.monotonic(),
        }
        for name, value in fields.items():
            if value is not None:
                record[name] = value
        with self._lock:
            # seq is assigned under the lock so stream order and seq order
            # always agree.
            self._seq += 1
            record["seq"] = self._seq
            line = json.dumps(record, sort_keys=True, default=str)
            if self._handle is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def counter(self, name: str, value: float = 1) -> None:
        self.emit("counter", name=name, value=value)

    @contextlib.contextmanager
    def span(self, name: str, **fields: object) -> Iterator[None]:
        started = time.monotonic()
        self.emit(f"{name}_start", **fields)
        try:
            yield
        finally:
            self.emit(
                f"{name}_finish",
                duration_s=time.monotonic() - started,
                **fields,
            )

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# Per-process tracer memo for pool workers / shard subprocesses: one stream
# per (directory, pid).  Keyed on the pid so a forked child never reuses
# (and interleaves into) its parent's inherited stream.
_PROCESS_TRACERS: Dict[tuple, JsonlTracer] = {}


def process_tracer(directory: Union[str, Path]) -> JsonlTracer:
    """The calling process's tracer for ``directory`` (created on first use).

    Its run id is the directory's name, as for every run ``run_sweep``
    starts.
    """
    key = (str(directory), os.getpid())
    tracer = _PROCESS_TRACERS.get(key)
    if tracer is None:
        tracer = JsonlTracer(directory)
        _PROCESS_TRACERS[key] = tracer
    return tracer


def resolve_tracer(trace: Optional[bool], store_root: Union[str, Path]) -> Tracer:
    """Resolve ``run_sweep``'s ``trace`` flag to a tracer instance.

    ``None``/``False`` → the no-op tracer; ``True`` → a fresh run under
    ``<store>/telemetry/<new run id>``.  Anything else (a run id, a tracer)
    is a ``TypeError``: every traced sweep starts its own run.
    """
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is not True:
        raise TypeError(f"trace must be a bool, got {trace!r}")
    run_id = new_run_id()
    return JsonlTracer(run_directory(store_root, run_id), run_id=run_id)


# --------------------------------------------------------------------- #
# Run-directory manifests
# --------------------------------------------------------------------- #
def write_run_manifest(directory: Union[str, Path], **info: object) -> Path:
    """Write a run's ``run.json`` (format marker + caller-supplied info)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": TELEMETRY_FORMAT,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **{k: v for k, v in info.items() if v is not None},
    }
    path = directory / RUN_MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def load_run_manifest(directory: Union[str, Path]) -> Dict[str, object]:
    """The run manifest (``{}`` when the run has none, e.g. bare shard runs)."""
    path = Path(directory) / RUN_MANIFEST_NAME
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def write_graph(
    directory: Union[str, Path], adjacency: Dict[str, Dict[str, object]]
) -> Path:
    """Write a run's ``graph.json``: the scheduled dependency graph.

    ``adjacency`` maps each scheduled key to ``{"kind", "index", "deps"}``.
    ``run_sweep`` writes it once, into the fresh run directory it traces
    to; ``shard run`` writes none (its job events carry ``deps`` instead).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / GRAPH_NAME
    path.write_text(json.dumps(adjacency, indent=2, sort_keys=True))
    return path


def load_graph(directory: Union[str, Path]) -> Dict[str, Dict[str, object]]:
    path = Path(directory) / GRAPH_NAME
    if not path.exists():
        return {}
    return json.loads(path.read_text())


# --------------------------------------------------------------------- #
# Reading streams back
# --------------------------------------------------------------------- #
def stream_paths(directory: Union[str, Path]) -> List[Path]:
    return sorted(Path(directory).glob("events-*.jsonl"))


def load_events(directory: Union[str, Path]) -> List[Dict[str, object]]:
    """The time-ordered union of every stream in a run directory.

    Records are ordered by ``(t_mono, stream, seq)`` — monotonic clocks
    are comparable across one host's processes, and the per-stream ``seq``
    breaks exact ties deterministically.  A truncated final line (writer
    killed mid-write) is skipped, not fatal.
    """
    events: List[Dict[str, object]] = []
    for path in stream_paths(directory):
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail of a killed writer
    events.sort(
        key=lambda e: (
            float(e.get("t_mono", 0.0)),
            str(e.get("stream", "")),
            int(e.get("seq", 0)),
        )
    )
    return events


def list_runs(store_root: Union[str, Path]) -> List[Path]:
    """Run directories under a store's telemetry root, oldest first."""
    root = telemetry_root(store_root)
    if not root.is_dir():
        return []
    return sorted(p for p in root.iterdir() if p.is_dir())


def latest_run(
    store_root: Union[str, Path], sweep: Optional[str] = None
) -> Optional[Path]:
    """The newest run directory (optionally: of one sweep) or ``None``.

    Run ids sort chronologically by construction; runs without a manifest
    (bare ``shard run --trace-dir`` directories) match no sweep filter.
    """
    runs = list_runs(store_root)
    if sweep is not None:
        named = [
            run for run in runs
            if load_run_manifest(run).get("sweep") == sweep
        ]
        if named:
            return named[-1]
        return None
    return runs[-1] if runs else None
