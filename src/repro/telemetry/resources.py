"""Per-process resource metrics: peak RSS and CPU time, stdlib only.

Two consumers, both strictly out-of-band (resource numbers never touch job
addressing or stored artifact bytes):

* :class:`JobResourceProbe` brackets one job execution and reports the
  CPU-seconds the job consumed plus the process's RSS high-water mark at
  completion — the runner attaches these to every ``job_finish`` event and
  to the ``<store>/meta/<key>.json`` sidecar.
* :class:`ResourceSampler` is a daemon thread emitting periodic
  ``resource_sample`` events on a tracer — one per executor process
  (the ``run_sweep`` parent, each pool worker, each shard subprocess).
  They feed the ``resources`` block of ``trace summary --json`` (peak RSS,
  CPU totals) and the peak RSS that ``trace regress`` gates on.

Sources are stdlib-only and degrade gracefully:

* ``resource.getrusage(RUSAGE_SELF)`` — user/system CPU seconds and
  ``ru_maxrss`` (the process-lifetime peak RSS; KiB on Linux, bytes on
  macOS — normalised to KiB here).  Absent on non-POSIX platforms, in
  which case every probe returns ``{}`` and no sampler thread starts.
* ``/proc/self/status`` — current ``VmRSS`` and ``VmHWM`` (Linux only;
  silently skipped elsewhere).

Peak-RSS semantics: the kernel's high-water mark is per *process*, not per
job, and cannot be reset without privileged ``/proc`` writes — so
``max_rss_kb`` on a ``job_finish`` event is the worker's peak *as of that
job's completion* (monotone across one worker's successive jobs), while
``cpu_s`` is a true per-job delta.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, Optional

try:  # POSIX only; Windows has no stdlib resource module
    import resource as _resource
except ImportError:  # pragma: no cover - exercised only off POSIX
    _resource = None  # type: ignore[assignment]

from repro.telemetry import events as ev
from repro.telemetry.tracer import Tracer

#: Default cadence of the periodic sampler.  The first sample is emitted
#: immediately on start, so even sub-second runs record one per process.
DEFAULT_SAMPLE_INTERVAL_S = 5.0

_PROC_STATUS = "/proc/self/status"


def _proc_status_kb() -> Dict[str, float]:
    """``{"rss_kb", "hwm_kb"}`` from ``/proc/self/status`` (Linux only)."""
    wanted = {"VmRSS:": "rss_kb", "VmHWM:": "hwm_kb"}
    values: Dict[str, float] = {}
    try:
        with open(_PROC_STATUS, "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                parts = line.split()
                name = wanted.get(parts[0] if parts else "")
                if name and len(parts) >= 2:
                    values[name] = float(parts[1])  # kB per proc(5)
                if len(values) == len(wanted):
                    break
    except OSError:
        return {}
    return values


def resources_supported() -> bool:
    """Whether this platform can report any resource metrics at all."""
    return _resource is not None


def sample_resources() -> Dict[str, float]:
    """One point-in-time snapshot of this process's resource usage.

    Keys (each present only when the platform provides it):
    ``cpu_user_s``/``cpu_system_s`` (cumulative process CPU),
    ``max_rss_kb`` (process-lifetime peak RSS, KiB) and ``rss_kb``
    (current RSS, Linux only).  ``{}`` when nothing is measurable.
    """
    if _resource is None:
        return {}
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    max_rss_kb = float(usage.ru_maxrss)
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        max_rss_kb /= 1024.0
    sample = {
        "cpu_user_s": float(usage.ru_utime),
        "cpu_system_s": float(usage.ru_stime),
        "max_rss_kb": max_rss_kb,
    }
    status = _proc_status_kb()
    if "rss_kb" in status:
        sample["rss_kb"] = status["rss_kb"]
    # Prefer the kernel's VmHWM when both exist (identical on Linux in
    # practice; VmHWM survives some getrusage quirks under threads).
    if status.get("hwm_kb"):
        sample["max_rss_kb"] = max(sample["max_rss_kb"], status["hwm_kb"])
    return sample


class JobResourceProbe:
    """Brackets one job: CPU delta + peak RSS at completion.

    Construct immediately before executing a job; :meth:`finish` returns
    the fields the runner attaches to the ``job_finish`` event and the
    meta sidecar (``{}`` on unsupported platforms, so callers can always
    splat the result).
    """

    def __init__(self) -> None:
        self._start = sample_resources()

    def finish(self) -> Dict[str, float]:
        end = sample_resources()
        if not end:
            return {}
        fields: Dict[str, float] = {}
        if "cpu_user_s" in end and "cpu_user_s" in self._start:
            fields["cpu_s"] = round(
                (end["cpu_user_s"] - self._start["cpu_user_s"])
                + (end["cpu_system_s"] - self._start["cpu_system_s"]),
                6,
            )
        if "max_rss_kb" in end:
            fields["max_rss_kb"] = end["max_rss_kb"]
        return fields


class ResourceSampler:
    """A daemon thread emitting periodic ``resource_sample`` events.

    One per (tracer, process).  The first sample fires synchronously on
    :meth:`start` — short-lived processes therefore always record at least
    one — and subsequent samples every ``interval_s`` until :meth:`stop`
    (or process exit; the thread is a daemon and holds no resources worth
    a clean shutdown).  On platforms without resource support, ``start``
    is a no-op.
    """

    def __init__(
        self, tracer: Tracer, interval_s: float = DEFAULT_SAMPLE_INTERVAL_S
    ) -> None:
        self.tracer = tracer
        self.interval_s = max(float(interval_s), 0.05)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _emit_once(self) -> bool:
        sample = sample_resources()
        if not sample:
            return False
        self.tracer.emit(ev.RESOURCE_SAMPLE, **sample)
        return True

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._emit_once()

    def start(self) -> "ResourceSampler":
        if self._thread is not None or not self.tracer.enabled:
            return self
        if not self._emit_once():  # unsupported platform: stay dormant
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        """Stop the thread; by default emit one last sample first, so the
        stream's final cumulative CPU/peak-RSS reading is current."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        if final_sample:
            self._emit_once()


# One sampler per (process, stream): pool workers and shard subprocesses
# call ensure_process_sampler from their job entry points; the memo makes
# repeated calls (one per job a worker executes) cheap and keeps exactly
# one sampling thread per process stream.
_PROCESS_SAMPLERS: Dict[tuple, ResourceSampler] = {}


def ensure_process_sampler(
    tracer: Tracer, interval_s: float = DEFAULT_SAMPLE_INTERVAL_S
) -> ResourceSampler:
    """This process's running sampler for ``tracer`` (started on first use)."""
    key = (os.getpid(), id(tracer))
    sampler = _PROCESS_SAMPLERS.get(key)
    if sampler is None:
        sampler = ResourceSampler(tracer, interval_s=interval_s).start()
        _PROCESS_SAMPLERS[key] = sampler
    return sampler
