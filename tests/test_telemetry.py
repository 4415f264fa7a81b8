"""Tests of the sweep-telemetry subsystem (tracing, analysis, CLI).

The contracts pinned here:

* Telemetry is strictly out-of-band: serial, process-pool, resumed and
  traced ``shard run`` runs produce aggregate records and store contents
  byte-identical to an untraced serial run.
* The merged event stream accounts for every executed job exactly once
  (one start + one finish pair per content address, bracketing that job's
  own work — trial-batched Monte Carlo jobs included), and cache-hit
  counters match the store's skip count.
* ``critical_path`` returns a dependency-consistent chain (each job
  waited on its predecessor) whose summed duration never exceeds the
  sweep's elapsed time.
* Straggler detection is relative *and* absolute, so seconds-fast
  balanced runs never flag noise.
* The CLI wires ``-v/-vv/-q`` to ``set_verbosity`` on every subcommand,
  ``show`` surfaces per-job timing metadata and sweep-level telemetry,
  and the ``trace`` subcommands render the recorded runs.
* Resource metrics ride along out-of-band: every ``job_finish`` event and
  meta sidecar carries ``cpu_s``/``max_rss_kb``, every executor process
  emits ``resource_sample`` events, and none of it perturbs artifacts.
* An injected failure is traced like a real one: ``job_start`` then
  ``job_failed`` on every executor, so ``summarize`` counts it.
* An abnormal unwind (first-failure abort, exceeded failure budget)
  records a terminal ``sweep_abort`` event before executor teardown.
* Perf history appends one record per traced sweep and ``trace regress``
  flags only changes that exceed a relative *and* an absolute gate.
"""

from __future__ import annotations

import json
import logging
import threading
import time

import pytest

from repro.experiments import (
    NoiseScenario,
    ResultStore,
    SweepSpec,
    WorkloadSpec,
    build_preset,
    execute_job,
    job_key,
    load_shard_manifest,
    run_shard_manifest,
    run_sweep,
    write_shard_manifests,
)
from repro.experiments import runner as runner_module
from repro.experiments.cli import main as cli_main
from repro.telemetry import (
    NULL_TRACER,
    JsonlTracer,
    TraceRun,
    append_history,
    compare_records,
    critical_path,
    find_baseline,
    find_stragglers,
    latest_run,
    load_events,
    load_history,
    load_run,
    resolve_tracer,
    resource_summary,
    resources_supported,
    sample_resources,
    summarize,
    wave_stats,
)
from repro.telemetry import events as ev
from repro.telemetry import resources as resources_module
from repro.utils import threads
from repro.utils.logging import set_verbosity, verbosity_to_level

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

TINY = WorkloadSpec(
    "lenet5", preset="tiny", train_size=48, test_size=16,
    calibration_images=8, epochs=2, seed=11,
)

NOISE = NoiseScenario(
    models=[{"model": "gaussian_read_noise", "sigma": 0.5}], label={"sigma": 0.5},
)


def tiny_mc_sweep(name: str = "telemetry-sweep") -> SweepSpec:
    """One zero-noise evaluate (the shared clean reference) + two MC jobs."""
    return SweepSpec(
        name=name,
        kind="monte_carlo",
        workloads=[TINY],
        noises=[NoiseScenario(label={"sigma": 0.0}), NOISE],
        mc_seeds=[0, 1],
        trials=2,
        images=4,
        batch_size=4,
    )


@pytest.fixture(scope="module")
def weights_cache(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("weights"))


@pytest.fixture(autouse=True)
def _cold_runner():
    runner_module.clear_runner_memos()
    yield


def record_bytes(run) -> bytes:
    return json.dumps(run.record.to_dict(), sort_keys=True).encode("utf-8")


def store_listing(store: ResultStore):
    """(name, bytes) of every artifact — the store-equality oracle."""
    return {
        path.name: path.read_bytes()
        for path in sorted(store.root.glob("*.json"))
    }


def write_stream(directory, stream, events):
    """Hand-craft one JSONL stream file for analysis-layer unit tests."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for seq, event in enumerate(events, start=1):
        lines.append(json.dumps({
            "run_id": "synthetic", "stream": stream, "pid": 1, "seq": seq,
            "t_wall": 0.0, **event,
        }))
    (directory / f"events-{stream}.jsonl").write_text("\n".join(lines) + "\n")


def job_pair(key, kind, start, end, stream=None, wave=1, deps=()):
    """A start/finish event pair for one synthetic job execution."""
    return [
        {"event": ev.JOB_START, "key": key, "kind": kind, "wave": wave,
         "deps": list(deps), "t_mono": start},
        {"event": ev.JOB_FINISH, "key": key, "kind": kind, "wave": wave,
         "duration_s": end - start, "t_mono": end},
    ]


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #
class TestTracer:
    def test_emit_writes_enveloped_jsonl_lines(self, tmp_path):
        tracer = JsonlTracer(tmp_path / "run", run_id="r1", stream="s1")
        tracer.emit("job_start", key="k", kind="evaluate", skipped=None)
        tracer.emit("job_finish", key="k", duration_s=0.5)
        tracer.close()
        events = load_events(tmp_path / "run")
        assert [e["event"] for e in events] == ["job_start", "job_finish"]
        first = events[0]
        assert first["run_id"] == "r1" and first["stream"] == "s1"
        assert first["seq"] == 1 and events[1]["seq"] == 2
        assert "t_mono" in first and "t_wall" in first and "pid" in first
        assert "skipped" not in first  # None-valued fields are dropped

    def test_span_emits_start_and_finish_with_duration(self, tmp_path):
        tracer = JsonlTracer(tmp_path, stream="s")
        with tracer.span("prewarm"):
            pass
        tracer.close()
        events = load_events(tmp_path)
        assert [e["event"] for e in events] == ["prewarm_start", "prewarm_finish"]
        assert events[1]["duration_s"] >= 0.0

    def test_null_tracer_is_disabled_and_writes_nothing(self, tmp_path):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit("job_start", key="k")
        NULL_TRACER.counter("c", 1)
        with NULL_TRACER.span("x"):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_resolve_tracer_mapping(self, tmp_path):
        assert resolve_tracer(None, tmp_path) is NULL_TRACER
        assert resolve_tracer(False, tmp_path) is NULL_TRACER
        fresh = resolve_tracer(True, tmp_path)
        assert fresh.enabled
        assert fresh.directory.parent == tmp_path / "telemetry"
        assert fresh.run_id == fresh.directory.name
        # Every traced sweep starts its own run: no run id, no caller tracer.
        for other in ("run-42", JsonlTracer(tmp_path / "mine")):
            with pytest.raises(TypeError, match="trace must be a bool"):
                resolve_tracer(other, tmp_path)

    def test_load_events_merges_streams_and_skips_torn_tail(self, tmp_path):
        write_stream(tmp_path, "a", [{"event": "x", "t_mono": 2.0}])
        write_stream(tmp_path, "b", [{"event": "y", "t_mono": 1.0}])
        with open(tmp_path / "events-b.jsonl", "a") as handle:
            handle.write('{"event": "torn", "t_mo')  # killed mid-write
        events = load_events(tmp_path)
        assert [e["event"] for e in events] == ["y", "x"]  # t_mono order


# --------------------------------------------------------------------- #
# Analysis (synthetic streams)
# --------------------------------------------------------------------- #
class TestAnalysis:
    def test_critical_path_follows_the_longest_dependency_chain(self, tmp_path):
        events = []
        events += job_pair("k1", "distribution", 0.0, 5.0, wave=1)
        events += job_pair("k2", "evaluate", 5.0, 6.0, wave=2, deps=["k1"])
        events += job_pair("k3", "evaluate", 0.0, 3.0, wave=1)  # independent
        write_stream(tmp_path, "s", events)
        chain = critical_path(TraceRun(tmp_path))
        assert [e.key for e in chain] == ["k1", "k2"]
        assert sum(e.duration_s for e in chain) == pytest.approx(6.0)

    def test_critical_path_ignores_cached_dependencies(self, tmp_path):
        # k2 depends on k9, which was a cache hit: it bounded nothing.
        events = [{"event": ev.JOB_CACHED, "key": "k9", "kind": "evaluate",
                   "t_mono": 0.0}]
        events += job_pair("k2", "monte_carlo", 0.0, 2.0, deps=["k9"])
        write_stream(tmp_path, "s", events)
        chain = critical_path(TraceRun(tmp_path))
        assert [e.key for e in chain] == ["k2"]

    def test_wave_stats_utilization(self, tmp_path):
        # Two streams, one wave spanning 10s: A busy 10, B busy 4.
        write_stream(tmp_path, "a", job_pair("a1", "evaluate", 0.0, 10.0))
        write_stream(tmp_path, "b", job_pair("b1", "evaluate", 0.0, 4.0))
        (stats,) = wave_stats(TraceRun(tmp_path))
        assert stats.jobs == 2 and stats.streams == 2
        assert stats.span_s == pytest.approx(10.0)
        assert stats.utilization == pytest.approx(14.0 / 20.0)

    def test_straggler_detection_is_relative_and_absolute(self, tmp_path):
        write_stream(tmp_path, "a", job_pair("a1", "monte_carlo", 0.0, 10.0))
        write_stream(tmp_path, "b", job_pair("b1", "monte_carlo", 0.0, 1.0))
        write_stream(tmp_path, "c", job_pair("c1", "monte_carlo", 0.0, 1.0))
        run = TraceRun(tmp_path)
        (straggler,) = find_stragglers(run)
        assert straggler.stream == "a"
        assert straggler.busy_s == pytest.approx(10.0)
        # Same shape scaled to sub-second: relative gap alone must not flag.
        fast = tmp_path / "fast"
        write_stream(fast, "a", job_pair("a1", "monte_carlo", 0.0, 0.3))
        write_stream(fast, "b", job_pair("b1", "monte_carlo", 0.0, 0.1))
        write_stream(fast, "c", job_pair("c1", "monte_carlo", 0.0, 0.1))
        assert find_stragglers(TraceRun(fast)) == []

    def test_duplicate_executions_are_surfaced_not_collapsed(self, tmp_path):
        # Two racing shards honestly both computed the shared sibling.
        write_stream(tmp_path, "a", job_pair("dup", "evaluate", 0.0, 1.0))
        write_stream(tmp_path, "b", job_pair("dup", "evaluate", 0.5, 1.5))
        run = TraceRun(tmp_path)
        assert len(run.executions()) == 2
        assert run.duplicate_keys() == ["dup"]
        assert summarize(run)["duplicates"] == ["dup"]

    def test_counters_keep_the_latest_sample(self, tmp_path):
        write_stream(tmp_path, "s", [
            {"event": ev.COUNTER, "name": "c", "value": 1, "t_mono": 0.0},
            {"event": ev.COUNTER, "name": "c", "value": 3, "t_mono": 1.0},
        ])
        assert TraceRun(tmp_path).counters() == {"c": 3.0}


# --------------------------------------------------------------------- #
# Execution metadata sidecar (satellite: promoted per-job timing)
# --------------------------------------------------------------------- #
class TestMetaSidecar:
    def test_execute_job_records_duration_and_worker(self, tmp_path, weights_cache):
        job = tiny_mc_sweep().expand()[0]
        store = ResultStore(tmp_path)
        key = execute_job(job, store, weights_cache)
        meta = store.load_meta(key)
        assert meta["duration_s"] > 0.0
        assert meta["worker"].startswith("pid-")
        assert meta["kind"] == job.kind

    def test_meta_lives_outside_the_artifact_namespace(self, tmp_path, weights_cache):
        job = tiny_mc_sweep().expand()[0]
        store = ResultStore(tmp_path)
        key = execute_job(job, store, weights_cache)
        assert list(store.keys()) == [key]  # meta/ never pollutes the root
        assert store.meta_path(key).parent.name == "meta"

    def test_delete_drops_the_sidecar_too(self, tmp_path, weights_cache):
        job = tiny_mc_sweep().expand()[0]
        store = ResultStore(tmp_path)
        key = execute_job(job, store, weights_cache)
        store.delete(key)
        assert store.load_meta(key) == {}
        assert not store.meta_path(key).exists()


# --------------------------------------------------------------------- #
# Traced execution across every executor
# --------------------------------------------------------------------- #
def _traced_runs(experiment, tmp_path, weights_cache):
    """Serial/process/resumed runs of one sweep, all traced."""
    sweep = experiment.sweep
    runs = {}

    serial = run_sweep(
        sweep, ResultStore(tmp_path / "serial"),
        weights_cache_dir=weights_cache, experiment=experiment, trace=True,
    )
    runs["serial"] = serial

    runner_module.clear_runner_memos()
    runs["process"] = run_sweep(
        sweep, ResultStore(tmp_path / "process"), jobs=2, executor="process",
        weights_cache_dir=weights_cache, experiment=experiment, trace=True,
    )

    # Resume: compute the first half out-of-band, then the traced run.
    runner_module.clear_runner_memos()
    resumed_store = ResultStore(tmp_path / "resumed")
    jobs = sweep.expand()
    for job in jobs[: len(jobs) // 2]:
        execute_job(job, resumed_store, weights_cache)
    runner_module.clear_runner_memos()
    runs["resumed"] = run_sweep(
        sweep, resumed_store, weights_cache_dir=weights_cache,
        experiment=experiment, trace=True,
    )
    return runs


class TestTracedExecutors:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory, weights_cache):
        runner_module.clear_runner_memos()
        tmp_path = tmp_path_factory.mktemp("traced-modes")
        experiment = build_preset(
            "robustness-noise", smoke=True, images=4, trials=2,
        )
        runner_module.clear_runner_memos()
        untraced = run_sweep(
            experiment.sweep, ResultStore(tmp_path / "reference"),
            weights_cache_dir=weights_cache, experiment=experiment,
        )
        return {
            "tmp_path": tmp_path,
            "reference": untraced,
            "runs": _traced_runs(experiment, tmp_path, weights_cache),
        }

    def test_traced_runs_are_byte_identical_to_untraced(self, traced):
        tmp_path = traced["tmp_path"]
        reference_record = record_bytes(traced["reference"])
        reference_store = store_listing(ResultStore(tmp_path / "reference"))
        for mode, run in traced["runs"].items():
            assert record_bytes(run) == reference_record, f"{mode} differs"
            assert store_listing(ResultStore(tmp_path / mode)) == reference_store, (
                f"{mode} store contents differ"
            )

    def test_every_mode_records_a_telemetry_run(self, traced):
        for mode, run in traced["runs"].items():
            assert run.telemetry_dir is not None, mode
            trace = load_run(run.telemetry_dir)
            assert trace.events, mode
            assert trace.manifest.get("sweep") == run.sweep.name

    def test_event_streams_account_for_every_executed_job_exactly_once(
        self, traced
    ):
        for mode, run in traced["runs"].items():
            trace = load_run(run.telemetry_dir)
            executions = trace.executions()
            assert all(e.closed for e in executions), mode
            assert trace.duplicate_keys() == [], mode
            executed_keys = {e.key for e in executions}
            cached_keys = set(trace.cached_keys())
            assert len(executions) + len(cached_keys) >= run.stats.total, mode
            assert executed_keys.isdisjoint(cached_keys), mode
            # The raw per-process streams tell the same story.
            events = load_events(trace.directory)
            starts = [e for e in events if e["event"] == ev.JOB_START]
            closes = [e for e in events if e["event"] in (ev.JOB_FINISH, ev.JOB_FAILED)]
            assert len(starts) == len(closes) == len(executions), mode
            assert sorted(e["key"] for e in starts) == sorted(e.key for e in executions), mode

    def test_computed_counts_match_the_events(self, traced):
        for mode, run in traced["runs"].items():
            trace = load_run(run.telemetry_dir)
            computed = [
                e for e in trace.executions()
                if e.outcome == "computed" and e.index is not None
            ]
            # Grid-point executions (shared artifacts carry no index).
            assert len(computed) == run.stats.computed, mode

    def test_critical_path_is_dependency_consistent_and_bounded(self, traced):
        for mode, run in traced["runs"].items():
            trace = load_run(run.telemetry_dir)
            chain = critical_path(trace)
            assert chain, mode
            deps_map = trace.dependency_map()
            for upstream, downstream in zip(chain, chain[1:]):
                assert upstream.key in deps_map.get(downstream.key, ()), mode
            total = sum(e.duration_s for e in chain)
            assert total <= trace.elapsed_s() + 1e-6, mode

    def test_cache_hit_counter_matches_store_skips(self, traced):
        for mode, run in traced["runs"].items():
            trace = load_run(run.telemetry_dir)
            assert trace.counters()[ev.COUNTER_CACHE_HITS] == run.stats.cached, mode

    @pytest.mark.skipif(not resources_supported(),
                        reason="no resource module on this platform")
    def test_every_executor_process_emits_resource_samples(self, traced):
        for mode, run in traced["runs"].items():
            trace = load_run(run.telemetry_dir)
            samples = trace.select(ev.RESOURCE_SAMPLE)
            assert samples, mode
            assert all(s["max_rss_kb"] > 0 for s in samples), mode
            if mode == "process":
                # The parent samples, and so does at least one worker —
                # distinct streams prove it.
                assert len({s["stream"] for s in samples}) > 1, mode
            summary = resource_summary(trace)
            assert summary["samples"] == len(samples), mode
            assert summary["peak_rss_kb"] > 0, mode

    def test_traced_shards_account_for_every_job_once(self, traced, weights_cache):
        """Both manifests of a two-shard emit, traced into one run
        directory: every executed job opens and closes exactly once, each
        job event names the shard that ran it, and the store matches the
        untraced serial run byte for byte."""
        tmp_path = traced["tmp_path"]
        store = ResultStore(tmp_path / "shards")
        trace_dir = tmp_path / "shard-trace"
        shard_of = {}  # (key, status) -> shard_index of the manifest run
        paths = write_shard_manifests(traced["reference"].sweep, 2, tmp_path / "manifests")
        for path in paths:
            manifest = load_shard_manifest(path)
            runner_module.clear_runner_memos()  # each shard is a fresh process
            statuses = run_shard_manifest(
                manifest, store, weights_cache, trace_dir=trace_dir,
            )
            for status in statuses:
                shard_of[status["key"], status["status"]] = manifest["shard_index"]
        assert {status for _, status in shard_of} <= {"done", "cached"}
        assert store_listing(store) == store_listing(ResultStore(tmp_path / "reference"))

        trace = load_run(trace_dir)
        executions = trace.executions()
        assert sorted(e.key for e in executions) == sorted(
            key for key, status in shard_of if status == "done"
        )
        assert all(e.closed for e in executions)
        assert trace.duplicate_keys() == []
        for event in trace.select(ev.JOB_START, ev.JOB_FINISH):
            assert event["shard"] == shard_of[event["key"], "done"]
        for event in trace.select(ev.JOB_CACHED):
            assert event["shard"] == shard_of[event["key"], "cached"]


class TestCacheCounters:
    def test_full_cache_hit_rerun_counts_every_skip(self, tmp_path, weights_cache):
        sweep = tiny_mc_sweep("cache-count")
        store = ResultStore(tmp_path)
        first = run_sweep(sweep, store, weights_cache_dir=weights_cache, trace=True)
        assert first.stats.computed == first.stats.total
        second = run_sweep(sweep, store, weights_cache_dir=weights_cache, trace=True)
        assert second.stats.cached == second.stats.total
        trace = load_run(second.telemetry_dir)
        assert trace.counters()[ev.COUNTER_CACHE_HITS] == second.stats.total
        assert len(trace.cached_keys()) == second.stats.total
        assert trace.executions() == []  # nothing ran
        summary = summarize(trace)
        assert summary["cache"]["hits"] == second.stats.total
        assert summary["cache"]["hit_rate"] == pytest.approx(1.0)


class TestMonteCarloLifecycle:
    def test_trial_batched_jobs_each_time_their_own_lifecycle(
        self, tmp_path, weights_cache
    ):
        """Seed-sibling Monte Carlo jobs at ``trial_batch=3`` on the serial
        executor: each key opens and closes exactly once, around its own
        work, so the gap between its events is its ``duration_s``."""
        sweep = SweepSpec(
            name="mc-lifecycle", kind="monte_carlo", workloads=[TINY],
            noises=[NOISE], mc_seeds=[0, 1], trials=3, images=8, batch_size=4,
        )
        run = run_sweep(
            sweep, ResultStore(tmp_path), weights_cache_dir=weights_cache,
            trial_batch=3, trace=True,
        )
        events = load_events(run.telemetry_dir)
        mc_keys = [job_key(job) for job in sweep.expand() if job.kind == "monte_carlo"]
        assert len(mc_keys) == 2
        for key in mc_keys:
            starts = [e for e in events if e["event"] == ev.JOB_START and e["key"] == key]
            finishes = [e for e in events if e["event"] == ev.JOB_FINISH and e["key"] == key]
            assert len(starts) == len(finishes) == 1, key
            finish = finishes[0]
            assert finish["trial_batch"] == 3
            assert finish["kernel_threads"] == threads.kernel_threads()
            gap = finish["t_mono"] - starts[0]["t_mono"]
            assert abs(gap - finish["duration_s"]) <= 0.01 + 0.1 * finish["duration_s"], (
                key, gap, finish["duration_s"],
            )
        assert not [e for e in events if "coalesced" in e]


class TestFailureEvents:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
    def test_injected_failure_marks_dependents_upstream_failed(
        self, tmp_path, weights_cache, jobs
    ):
        sweep = tiny_mc_sweep("fail-trace")
        # Index 0 is the zero-noise evaluate — the shared clean reference
        # of both Monte Carlo jobs.
        run = run_sweep(
            sweep, ResultStore(tmp_path), weights_cache_dir=weights_cache,
            inject_failures=[0], max_failures=1, trace=True, jobs=jobs,
        )
        assert run.stats.failed == 3  # the root + two dependents
        trace = load_run(run.telemetry_dir)
        # The injected root is traced like a real failure: started, failed.
        (failed,) = trace.select(ev.JOB_FAILED)
        assert failed["key"] == job_key(sweep.expand()[0])
        assert "injected failure" in failed["error"]
        assert [e["key"] for e in trace.select(ev.JOB_START)] == [failed["key"]]
        assert summarize(trace)["failed"] == 1
        assert len(trace.upstream_failed_keys()) == 2
        finishes = trace.select(ev.SWEEP_FINISH)
        assert len(finishes) == 1 and finishes[0]["failed"] == 3
        assert trace.counters()[ev.COUNTER_JOBS_FAILED] == 3

    def test_a_store_hit_does_not_skip_the_injection(self, tmp_path):
        """``execute_job`` checks the injection before its store-hit
        return: an injected job fails, traced, even when it is stored."""
        job = tiny_mc_sweep().expand()[0]
        store = ResultStore(tmp_path / "store")
        key = job_key(job)
        store.save(key, {"key": key})
        tracer = JsonlTracer(tmp_path / "trace")
        with pytest.raises(RuntimeError, match="injected failure"):
            execute_job(job, store, tracer=tracer, inject_failure=True)
        assert execute_job(job, store, tracer=tracer) == key  # a plain hit
        tracer.close()
        assert [e["event"] for e in load_events(tmp_path / "trace")] == [
            ev.JOB_START, ev.JOB_FAILED, ev.JOB_CACHED,
        ]


# --------------------------------------------------------------------- #
# CLI: verbosity flags
# --------------------------------------------------------------------- #
class TestCliVerbosity:
    @pytest.fixture(autouse=True)
    def _restore_level(self):
        yield
        set_verbosity(logging.WARNING)

    def test_verbosity_to_level_mapping(self):
        assert verbosity_to_level(0, False) == logging.WARNING
        assert verbosity_to_level(1, False) == logging.INFO
        assert verbosity_to_level(2, False) == logging.DEBUG
        assert verbosity_to_level(3, False) == logging.DEBUG
        assert verbosity_to_level(2, True) == logging.ERROR  # -q wins

    @pytest.mark.parametrize("argv,level", [
        (["-v", "list"], logging.INFO),       # flag before the subcommand
        (["list", "-v"], logging.INFO),       # flag after the subcommand
        (["list", "-vv"], logging.DEBUG),
        (["list", "-q"], logging.ERROR),
        (["list"], logging.WARNING),
    ])
    def test_flags_set_the_library_level(self, argv, level, capsys):
        assert cli_main(argv) == 0
        assert logging.getLogger("repro").level == level
        capsys.readouterr()


# --------------------------------------------------------------------- #
# CLI: show timing + trace subcommands
# --------------------------------------------------------------------- #
class TestCliTelemetry:
    @pytest.fixture(scope="class")
    def traced_store(self, tmp_path_factory, weights_cache):
        runner_module.clear_runner_memos()
        tmp_path = tmp_path_factory.mktemp("cli-telemetry")
        sweep = tiny_mc_sweep("cli-sweep")
        store = ResultStore(tmp_path / "store")
        run = run_sweep(sweep, store, weights_cache_dir=weights_cache, trace=True)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep.to_dict()))
        return {"store": store, "run": run, "spec_path": spec_path}

    def test_show_prints_job_timing_and_sweep_telemetry(self, traced_store, capsys):
        assert cli_main([
            "show", str(traced_store["spec_path"]),
            "--store", str(traced_store["store"].root),
        ]) == 0
        out = capsys.readouterr().out
        stored_lines = [l for l in out.splitlines() if " stored " in l]
        assert stored_lines and all("s @ " in l for l in stored_lines)
        assert "telemetry (" in out and "elapsed" in out
        assert "wave 1:" in out

    def test_show_degrades_without_telemetry(self, traced_store, tmp_path, capsys):
        assert cli_main([
            "show", str(traced_store["spec_path"]), "--store", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry: none recorded" in out

    def test_trace_list_names_the_run(self, traced_store, capsys):
        assert cli_main(["trace", "list",
                         "--store", str(traced_store["store"].root)]) == 0
        out = capsys.readouterr().out
        run_id = str(traced_store["run"].telemetry_dir).rsplit("/", 1)[-1]
        assert run_id in out and "sweep=cli-sweep" in out

    def test_trace_summary_reports_jobs_and_stragglers(self, traced_store, capsys):
        assert cli_main(["trace", "summary",
                         "--store", str(traced_store["store"].root)]) == 0
        out = capsys.readouterr().out
        run = traced_store["run"]
        assert f"jobs executed: {run.stats.computed} " in out
        assert f"({run.stats.computed} ok, 0 failed)" in out
        assert "stragglers: 0" in out
        assert "critical path:" in out

    def test_trace_critical_path_prints_the_chain(self, traced_store, capsys):
        assert cli_main(["trace", "critical-path",
                         "--store", str(traced_store["store"].root)]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        # evaluate (clean reference) strictly precedes its monte_carlo user.
        lines = [l for l in out.splitlines() if ". " in l and "wave" in l]
        kinds = [l.split()[2] for l in lines]
        assert "monte_carlo" in kinds
        assert kinds.index("evaluate") < kinds.index("monte_carlo")

    def test_trace_show_filters_and_limits(self, traced_store, capsys):
        assert cli_main([
            "trace", "show", "--store", str(traced_store["store"].root),
            "--event", "job_finish", "--limit", "2",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(json.loads(l)["event"] == "job_finish" for l in lines)

    def test_trace_summary_without_telemetry_exits_with_hint(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="no telemetry recorded"):
            cli_main(["trace", "summary", "--store", str(tmp_path)])
        capsys.readouterr()

    def test_trace_summary_json_is_machine_readable(self, traced_store, capsys):
        assert cli_main(["trace", "summary", "--json",
                         "--store", str(traced_store["store"].root)]) == 0
        summary = json.loads(capsys.readouterr().out)
        run = traced_store["run"]
        assert summary["sweep"] == "cli-sweep"
        assert summary["executed"] == summary["ok"] == run.stats.computed
        assert summary["failed"] == 0
        assert summary["cache"]["hits"] == run.stats.cached
        assert summary["critical_path_s"] <= summary["elapsed_s"] + 1e-6
        # The chain is plain dicts — the same shape perf history ingests.
        assert all(isinstance(job, dict) for job in summary["critical_path"])

    def test_trace_critical_path_json(self, traced_store, capsys):
        assert cli_main(["trace", "critical-path", "--json",
                         "--store", str(traced_store["store"].root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = [job["kind"] for job in payload["jobs"]]
        assert "monte_carlo" in kinds
        assert kinds.index("evaluate") < kinds.index("monte_carlo")
        assert payload["critical_path_s"] <= payload["elapsed_s"] + 1e-6


# --------------------------------------------------------------------- #
# Resource metrics (per-job probes + per-process samplers)
# --------------------------------------------------------------------- #
needs_resources = pytest.mark.skipif(
    not resources_supported(), reason="no resource module on this platform"
)


class TestResourceMetrics:
    @needs_resources
    def test_sample_reports_cpu_and_peak_rss(self):
        sample = sample_resources()
        assert sample["max_rss_kb"] > 0
        assert sample["cpu_user_s"] >= 0.0 and sample["cpu_system_s"] >= 0.0

    @needs_resources
    def test_probe_reports_a_per_job_cpu_delta(self):
        probe = resources_module.JobResourceProbe()
        deadline = time.process_time() + 0.05
        while time.process_time() < deadline:
            pass
        fields = probe.finish()
        assert fields["cpu_s"] >= 0.04
        assert fields["max_rss_kb"] > 0

    def test_unsupported_platform_degrades_to_noops(self, tmp_path, monkeypatch):
        monkeypatch.setattr(resources_module, "_resource", None)
        assert not resources_module.resources_supported()
        assert resources_module.sample_resources() == {}
        assert resources_module.JobResourceProbe().finish() == {}
        tracer = JsonlTracer(tmp_path / "run")
        sampler = resources_module.ResourceSampler(tracer).start()
        sampler.stop()
        tracer.close()
        assert load_events(tmp_path / "run") == []  # dormant: nothing emitted

    @needs_resources
    def test_sampler_emits_an_immediate_and_a_final_sample(self, tmp_path):
        tracer = JsonlTracer(tmp_path / "run", stream="main")
        sampler = resources_module.ResourceSampler(tracer, interval_s=30.0)
        sampler.start()
        sampler.stop()
        tracer.close()
        events = load_events(tmp_path / "run")
        assert [e["event"] for e in events] == [ev.RESOURCE_SAMPLE] * 2
        assert all(e["max_rss_kb"] > 0 for e in events)

    @needs_resources
    def test_shard_run_samples_only_while_it_runs(self, tmp_path, weights_cache):
        """An in-process traced ``run_shard_manifest`` starts its own
        sampler and stops it on return, with one last sample after the last
        job, so the caller is left with no sampling thread."""
        (path,) = write_shard_manifests(tiny_mc_sweep("sampled-shard"), 1, tmp_path)
        before = set(threading.enumerate())
        run_shard_manifest(
            load_shard_manifest(path), ResultStore(tmp_path / "store"),
            weights_cache, trace_dir=tmp_path / "trace",
        )
        assert [
            thread for thread in threading.enumerate()
            if thread not in before and thread.name == "repro-resource-sampler"
        ] == []
        events = load_run(tmp_path / "trace").events
        samples = [i for i, e in enumerate(events) if e["event"] == ev.RESOURCE_SAMPLE]
        jobs = [i for i, e in enumerate(events) if e["event"] in (ev.JOB_START, ev.JOB_FINISH)]
        assert len(jobs) == 6  # three jobs, each started and finished
        assert samples[0] < jobs[0] and samples[-1] > jobs[-1]

    @needs_resources
    def test_traced_run_attaches_resources_everywhere(
        self, tmp_path, weights_cache
    ):
        sweep = tiny_mc_sweep("resource-sweep")
        store = ResultStore(tmp_path)
        run = run_sweep(sweep, store, weights_cache_dir=weights_cache, trace=True)
        trace = load_run(run.telemetry_dir)
        finishes = trace.select(ev.JOB_FINISH)
        assert finishes
        for event in finishes:
            assert event["cpu_s"] >= 0.0
            assert event["max_rss_kb"] > 0
        # The meta sidecar mirrors the event fields for untraced consumers.
        for key in store.keys():
            meta = store.load_meta(key)
            assert meta["cpu_s"] >= 0.0 and meta["max_rss_kb"] > 0
        summary = summarize(trace)
        assert summary["resources"]["peak_rss_kb"] >= max(
            e["max_rss_kb"] for e in finishes
        )
        assert summary["resources"]["cpu_total_s"] > 0.0


# --------------------------------------------------------------------- #
# Abnormal termination records a terminal sweep_abort
# --------------------------------------------------------------------- #
class TestSweepAbortEvents:
    def test_first_failure_abort_records_sweep_abort(
        self, tmp_path, weights_cache
    ):
        sweep = tiny_mc_sweep("abort-sweep")
        store = ResultStore(tmp_path)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_sweep(sweep, store, weights_cache_dir=weights_cache,
                      inject_failures=[0], trace=True)
        trace = load_run(latest_run(store.root))
        (abort,) = trace.select(ev.SWEEP_ABORT)
        assert abort["reason"] == "RuntimeError"
        assert "injected failure" in abort["error"]
        # The failure that caused the abort is in the trace too.
        assert summarize(trace)["failed"] == 1

    def test_exceeded_failure_budget_records_its_own_reason(
        self, tmp_path, weights_cache
    ):
        sweep = tiny_mc_sweep("budget-abort")
        with pytest.raises(runner_module.MaxFailuresExceeded):
            run_sweep(sweep, ResultStore(tmp_path),
                      weights_cache_dir=weights_cache,
                      inject_failures=[0], max_failures=0, trace=True)
        trace = load_run(latest_run(tmp_path))
        (abort,) = trace.select(ev.SWEEP_ABORT)
        assert abort["reason"] == "MaxFailuresExceeded"


# --------------------------------------------------------------------- #
# Perf history + regression gates
# --------------------------------------------------------------------- #
class TestPerfHistory:
    def test_append_load_round_trip_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, {"run_id": "r1", "sweep": "s", "elapsed_s": 1.0})
        append_history(path, {"run_id": "r2", "sweep": "other", "elapsed_s": 2.0})
        with open(path, "a") as handle:
            handle.write('{"run_id": "torn"')  # killed mid-append
        assert [r["run_id"] for r in load_history(path)] == ["r1", "r2"]
        assert [r["run_id"] for r in load_history(path, sweep="s")] == ["r1"]
        assert load_history(tmp_path / "missing.jsonl") == []

    def test_find_baseline_variants(self):
        records = [{"run_id": "a"}, {"run_id": "b"}, {"run_id": "c"}]
        assert find_baseline(records)["run_id"] == "a"
        assert find_baseline(records, "-2")["run_id"] == "b"
        assert find_baseline(records, "c")["run_id"] == "c"
        assert find_baseline(records, "nope") is None
        assert find_baseline([], "first") is None

    def test_regression_needs_both_gates(self):
        base = {"elapsed_s": 0.2, "critical_path_s": 0.1,
                "resources": {"peak_rss_kb": 50000.0}}
        # 4.5x slower but under the absolute gate: smoke-run noise.
        noisy = {"elapsed_s": 0.9, "critical_path_s": 0.4,
                 "resources": {"peak_rss_kb": 60000.0}}
        assert compare_records(base, noisy) == []
        # 600x and +119.8 s: both timing gates trip.
        slow = dict(base, elapsed_s=120.0)
        (regression,) = compare_records(base, slow)
        assert regression.metric == "elapsed_s"
        assert regression.factor == pytest.approx(600.0)
        assert "vs baseline" in regression.describe()
        # A big absolute gap alone is not enough either.
        assert compare_records({"elapsed_s": 1000.0}, {"elapsed_s": 1200.0}) == []

    def test_rss_gate_has_its_own_thresholds(self):
        base = {"resources": {"peak_rss_kb": 100000.0}}
        bloated = {"resources": {"peak_rss_kb": 500000.0}}
        (regression,) = compare_records(base, bloated)
        assert regression.metric == "resources.peak_rss_kb"
        # 1.3x stays under the relative gate; absent metrics are skipped.
        assert compare_records(
            base, {"resources": {"peak_rss_kb": 130000.0}}
        ) == []
        assert compare_records({}, bloated) == []

    def test_traced_sweeps_append_history_records(self, tmp_path, weights_cache):
        sweep = tiny_mc_sweep("history-sweep")
        store = ResultStore(tmp_path / "store")
        path = tmp_path / "results" / "history.jsonl"
        run_sweep(sweep, store, weights_cache_dir=weights_cache,
                  trace=True, history=path)
        runner_module.clear_runner_memos()
        run_sweep(sweep, store, weights_cache_dir=weights_cache,
                  trace=True, history=path)
        first, second = load_history(path)
        assert first["sweep"] == second["sweep"] == "history-sweep"
        assert first["executor"] == "serial"
        assert first["trial_batch"] == 1
        assert first["kernel_threads"] == threads.kernel_threads()
        assert first["jobs"]["executed"] == 3 and first["cache"]["hits"] == 0
        assert first["elapsed_s"] > 0.0 and first["critical_path_s"] > 0.0
        assert first["waves"] and first["waves"][0]["jobs"] >= 1
        assert "evaluate" in first["kinds"]
        if resources_supported():
            assert first["resources"]["peak_rss_kb"] > 0.0
        # The rerun is a pure cache hit and never flags a regression.
        assert second["jobs"]["executed"] == 0
        assert second["cache"]["hit_rate"] == pytest.approx(1.0)
        assert compare_records(first, second) == []


# --------------------------------------------------------------------- #
# CLI: trace history / trace regress
# --------------------------------------------------------------------- #
class TestCliHistoryRegress:
    @pytest.fixture()
    def history_path(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, {
            "run_id": "base", "sweep": "s",
            "recorded_at": "2026-08-01T00:00:00+00:00",
            "elapsed_s": 10.0, "critical_path_s": 8.0,
            "resources": {"peak_rss_kb": 100000.0},
        })
        append_history(path, {
            "run_id": "latest", "sweep": "s",
            "recorded_at": "2026-08-02T00:00:00+00:00",
            "elapsed_s": 11.0, "critical_path_s": 8.5,
            "resources": {"peak_rss_kb": 110000.0},
        })
        return path

    def test_history_renders_and_limits(self, history_path, capsys):
        assert cli_main(["trace", "history",
                         "--history", str(history_path)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out and "[base]" in out and "[latest]" in out
        assert cli_main(["trace", "history", "--history", str(history_path),
                         "--json", "--limit", "1"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in records] == ["latest"]

    def test_history_is_friendly_when_empty(self, tmp_path, capsys):
        assert cli_main(["trace", "history",
                         "--history", str(tmp_path / "none.jsonl")]) == 0
        assert "no perf history" in capsys.readouterr().out

    def test_regress_passes_within_gates(self, history_path, capsys):
        assert cli_main(["trace", "regress",
                         "--history", str(history_path)]) == 0
        out = capsys.readouterr().out
        assert "no regression" in out and "baseline: base" in out

    def test_regress_exits_five_on_regression(self, history_path, capsys):
        append_history(history_path, {
            "run_id": "slow", "sweep": "s",
            "elapsed_s": 100.0, "critical_path_s": 90.0,
        })
        assert cli_main(["trace", "regress",
                         "--history", str(history_path)]) == 5
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "elapsed_s" in out and "critical_path_s" in out

    def test_regress_threshold_flags_are_wired(self, history_path, capsys):
        # The default gates pass; paranoid gates make the same pair fail.
        assert cli_main(["trace", "regress", "--history", str(history_path),
                         "--factor", "1.01", "--min-gap", "0.5"]) == 5
        capsys.readouterr()

    def test_regress_compares_records_that_name_an_array_backend(
        self, tmp_path, capsys
    ):
        """Older records carry a ``backend`` field; numpy is the only array
        substrate, so such records compare like any others."""
        path = tmp_path / "history.jsonl"
        for run_id, backend in (("base", "torch"), ("latest", "numpy")):
            append_history(path, {
                "run_id": run_id, "sweep": "s", "backend": backend,
                "elapsed_s": 10.0, "critical_path_s": 8.0,
            })
        assert cli_main(["trace", "regress", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no regression" in out and "baseline: base" in out

    def test_regress_needs_two_records(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        append_history(path, {"run_id": "only", "sweep": "s", "elapsed_s": 1.0})
        assert cli_main(["trace", "regress", "--history", str(path)]) == 2
        capsys.readouterr()

    def test_regress_rejects_unknown_baseline(self, history_path, capsys):
        with pytest.raises(SystemExit, match="no history record matches"):
            cli_main(["trace", "regress", "--history", str(history_path),
                      "--baseline", "nope"])
        capsys.readouterr()


# --------------------------------------------------------------------- #
# CLI: run --trace --history
# --------------------------------------------------------------------- #
class TestCliRunTrace:
    def test_run_trace_appends_history_and_prints_the_summary_hint(
        self, tmp_path, weights_cache, capsys
    ):
        sweep = tiny_mc_sweep("cli-trace-sweep")
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep.to_dict()))
        store = tmp_path / "store"
        history = tmp_path / "history.jsonl"
        assert cli_main([
            "run", str(spec_path), "--store", str(store),
            "--cache-dir", weights_cache, "--out", str(tmp_path / "record.json"),
            "--trace", "--history", str(history),
        ]) == 0
        out = capsys.readouterr().out
        (record,) = load_history(history)
        assert record["sweep"] == "cli-trace-sweep"
        assert (tmp_path / "record.json").exists()
        run_id = latest_run(store).name
        assert record["run_id"] == run_id
        assert ("inspect: python -m repro.experiments trace summary "
                f"--store {store} --run {run_id}") in out
