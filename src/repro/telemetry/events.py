"""The telemetry event schema.

Every telemetry record is one JSON object on one line of a per-process
stream file (``events-<stream>.jsonl``).  The writer
(:class:`repro.telemetry.tracer.JsonlTracer`) stamps the envelope; emitters
add event-specific fields.  The schema is documented here (and in
``docs/observability.md``) so the analysis layer and external consumers
share one contract.

Envelope fields (present on every record):

``event``
    Event name, one of the constants below.
``seq``
    Per-stream monotonically increasing sequence number (1-based) —
    the deterministic tie-break when two records share a timestamp.
``stream``
    The stream identity (one per writing process, unique per run).
``pid``
    Writing process id.
``run_id``
    The telemetry run this record belongs to.
``t_wall``
    Wall-clock UNIX timestamp (``time.time()``), for humans.
``t_mono``
    ``time.monotonic()`` at emission.  On Linux this is
    ``CLOCK_MONOTONIC`` — boot-relative and therefore comparable across
    the processes of one run on one host; the analysis layer orders and
    subtracts ``t_mono``, never ``t_wall``.

Job events additionally carry ``key`` (the content address), ``kind``,
and — when known — ``index`` (sweep expansion index), ``wave``, ``shard``
and ``deps`` (the scheduled dependency keys, making each stream
self-contained for critical-path analysis).

Timing semantics: ``queue_wait_s`` on :data:`JOB_START` is the time
between the job's wave being handed to the executor and the job actually
starting (for a serial executor this includes the run time of the jobs
before it in the wave — that *is* its queue wait); ``duration_s`` on
:data:`JOB_FINISH`/:data:`JOB_FAILED` is pure execution time.

Telemetry is strictly out-of-band: no event, counter or timing ever
feeds back into job addressing or stored artifacts, so traced and
untraced runs produce byte-identical aggregates.
"""

from __future__ import annotations

#: Stream-format marker, recorded in each run's ``run.json`` manifest.
#: Bump on incompatible record-layout changes.
TELEMETRY_FORMAT = "repro-telemetry/v1"

#: Subdirectory of a result store holding telemetry runs.
TELEMETRY_DIRNAME = "telemetry"

# Sweep lifecycle (emitted once per traced run_sweep, parent process).
SWEEP_START = "sweep_start"   # sweep, executor, jobs, total, cached, pending, scheduled, salt
SWEEP_FINISH = "sweep_finish"  # elapsed_s, computed, failed, cached

#: Terminal abort marker, emitted by the *executor's* ``__exit__`` when the
#: sweep unwinds on an exception (Ctrl-C, first-failure abort,
#: ``MaxFailuresExceeded``): ``reason`` (exception type name), ``error``.
#: Consumers treat still-open job intervals as *aborted*, not
#: forever-running; the emitting tracer is flushed immediately after.
SWEEP_ABORT = "sweep_abort"

# Prewarm span (parent process, around prewarm_workloads).
PREWARM_START = "prewarm_start"
PREWARM_FINISH = "prewarm_finish"  # duration_s

# Wave lifecycle (the process driving execute_graph).
WAVE_START = "wave_start"     # wave, jobs
WAVE_FINISH = "wave_finish"   # wave, duration_s

# Per-job lifecycle (emitted by whichever process executes the job).
# ``job_finish`` additionally carries the executing process's resource
# deltas when the platform supports them (see
# :mod:`repro.telemetry.resources`): ``cpu_s`` (user+system CPU seconds
# consumed by the job) and ``max_rss_kb`` (the process's peak RSS at job
# completion, in KiB — a per-process high-water mark, monotone across a
# worker's successive jobs).
JOB_START = "job_start"       # key, kind, index, wave, shard, deps, queue_wait_s
JOB_FINISH = "job_finish"     # key, kind, ..., duration_s, outcome="computed", cpu_s, max_rss_kb
JOB_FAILED = "job_failed"     # key, kind, ..., duration_s, error
JOB_CACHED = "job_cached"     # key, kind, index — store hit, nothing executed
JOB_UPSTREAM_FAILED = "job_upstream_failed"  # key, cause_key, wave, shard — not run

#: A named monotonic counter sample: ``name``, ``value``.
COUNTER = "counter"

#: Periodic per-process resource sample (one per executor process —
#: serial parent, pool worker, shard subprocess): ``cpu_user_s``,
#: ``cpu_system_s``, ``max_rss_kb`` (``resource.getrusage``, cumulative
#: for the process) and ``rss_kb`` (current ``/proc/self/status`` VmRSS,
#: Linux only).  Absent fields mean the platform cannot report them; on
#: platforms with no stdlib ``resource`` module no sample is emitted at
#: all.
RESOURCE_SAMPLE = "resource_sample"

#: The events that open/close one job execution (used by the analysis
#: layer to pair start/end records).
JOB_OPEN_EVENTS = (JOB_START,)
JOB_CLOSE_EVENTS = (JOB_FINISH, JOB_FAILED)

#: Counter names the runner emits (the analysis layer recognises these;
#: arbitrary additional counters are allowed and surfaced verbatim).
COUNTER_CACHE_HITS = "store.cache_hits"
COUNTER_CACHE_MISSES = "store.cache_misses"
COUNTER_JOBS_TOTAL = "sweep.jobs_total"
COUNTER_JOBS_COMPUTED = "sweep.jobs_computed"
COUNTER_JOBS_FAILED = "sweep.jobs_failed"
COUNTER_PREWARM_S = "sweep.prewarm_s"
