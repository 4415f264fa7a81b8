"""Tests of the sweep-telemetry subsystem (tracing, analysis, CLI).

The contracts pinned here:

* Telemetry is strictly out-of-band: serial, process-pool, sharded and
  resumed runs with ``trace`` on produce aggregate records and store
  contents byte-identical to an untraced serial run.
* The merged event stream accounts for every executed job exactly once
  (one start + one finish pair per content address), and cache-hit
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
* The live tailer follows a *growing* run directory without locks —
  partial last lines are held back, streams appearing mid-watch are
  picked up, cross-stream ``t_mono`` reordering can't regress a status —
  and a watch on a live two-shard sweep reaches completion with the same
  job counts the offline summary reports.
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
from pathlib import Path

import pytest

from repro.experiments import (
    NoiseScenario,
    ResultStore,
    ShardedExecutor,
    SweepSpec,
    WorkloadSpec,
    build_preset,
    execute_job,
    job_key,
    run_sweep,
)
from repro.experiments import runner as runner_module
from repro.experiments.cli import main as cli_main
from repro.telemetry import (
    NULL_TRACER,
    JsonlTracer,
    RunTailer,
    StreamTailer,
    SweepState,
    TraceRun,
    append_history,
    compare_records,
    critical_path,
    find_baseline,
    find_stragglers,
    load_events,
    load_history,
    load_run,
    merge_events,
    render,
    resolve_tracer,
    resource_summary,
    resources_supported,
    run_directory,
    sample_resources,
    summarize,
    watch,
    wave_stats,
)
from repro.telemetry import events as ev
from repro.telemetry import resources as resources_module
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
        own = JsonlTracer(tmp_path / "mine")
        assert resolve_tracer(own, tmp_path) is own
        fresh = resolve_tracer(True, tmp_path)
        assert fresh.enabled
        assert fresh.directory.parent == tmp_path / "telemetry"
        named = resolve_tracer("run-42", tmp_path)
        assert named.directory == tmp_path / "telemetry" / "run-42"
        assert named.run_id == "run-42"

    def test_load_events_merges_streams_and_skips_torn_tail(self, tmp_path):
        write_stream(tmp_path, "a", [{"event": "x", "t_mono": 2.0}])
        write_stream(tmp_path, "b", [{"event": "y", "t_mono": 1.0}])
        with open(tmp_path / "events-b.jsonl", "a") as handle:
            handle.write('{"event": "torn", "t_mo')  # killed mid-write
        events = load_events(tmp_path)
        assert [e["event"] for e in events] == ["y", "x"]  # t_mono order

    def test_merge_events_writes_single_ordered_stream(self, tmp_path):
        write_stream(tmp_path, "a", [{"event": "x", "t_mono": 2.0}])
        write_stream(tmp_path, "b", [{"event": "y", "t_mono": 1.0}])
        merged = merge_events(tmp_path)
        lines = merged.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["y", "x"]


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
    """Serial/process/sharded/resumed runs of one sweep, all traced."""
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

    runner_module.clear_runner_memos()
    runs["sharded"] = run_sweep(
        sweep, ResultStore(tmp_path / "sharded"), executor="sharded", shards=2,
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

    def test_merged_stream_accounts_for_every_executed_job_exactly_once(
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
            # The merged single-file stream tells the same story.
            merged = (trace.directory / "merged.jsonl").read_text().splitlines()
            merged_events = [json.loads(line) for line in merged]
            starts = [e for e in merged_events if e["event"] == ev.JOB_START]
            closes = [
                e for e in merged_events
                if e["event"] in (ev.JOB_FINISH, ev.JOB_FAILED)
            ]
            assert len(starts) == len(closes) == len(executions), mode

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
            if mode in ("process", "sharded"):
                # The parent samples, and so does at least one worker /
                # shard subprocess — distinct streams prove it.
                assert len({s["stream"] for s in samples}) > 1, mode
            summary = resource_summary(trace)
            assert summary["samples"] == len(samples), mode
            assert summary["peak_rss_kb"] > 0, mode


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


class TestFailureEvents:
    def test_injected_failure_marks_dependents_upstream_failed(
        self, tmp_path, weights_cache
    ):
        sweep = tiny_mc_sweep("fail-trace")
        # Index 0 is the zero-noise evaluate — the shared clean reference
        # of both Monte Carlo jobs.
        run = run_sweep(
            sweep, ResultStore(tmp_path), weights_cache_dir=weights_cache,
            inject_failures=[0], max_failures=1, trace=True,
        )
        assert run.stats.failed == 3  # the root + two dependents
        trace = load_run(run.telemetry_dir)
        assert len(trace.upstream_failed_keys()) == 2
        finishes = trace.select(ev.SWEEP_FINISH)
        assert len(finishes) == 1 and finishes[0]["failed"] == 3
        assert trace.counters()[ev.COUNTER_JOBS_FAILED] == 3


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

    def test_trace_watch_on_a_finished_run_exits_zero(self, traced_store, capsys):
        run_id = Path(traced_store["run"].telemetry_dir).name
        assert cli_main([
            "trace", "watch", "--store", str(traced_store["store"].root),
            "--run", run_id, "--ascii", "--interval", "0.05", "--timeout", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep finished" in out
        assert all(ord(char) < 128 for char in out)  # --ascii means ASCII


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
# Live tailing (growing files, torn tails, appearing streams)
# --------------------------------------------------------------------- #
class TestStreamTailer:
    def test_partial_final_line_is_held_until_complete(self, tmp_path):
        path = tmp_path / "events-s.jsonl"
        tailer = StreamTailer(path)
        assert tailer.poll() == []  # file not created yet
        with open(path, "wb") as handle:
            handle.write(b'{"event": "a"}\n{"event": "b"')
        assert [e["event"] for e in tailer.poll()] == ["a"]
        assert tailer.poll() == []  # still torn: nothing new
        with open(path, "ab") as handle:
            handle.write(b"}\n")
        assert [e["event"] for e in tailer.poll()] == ["b"]

    def test_unparseable_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events-s.jsonl"
        path.write_bytes(b'garbage\n{"event": "ok"}\n')
        assert [e["event"] for e in StreamTailer(path).poll()] == ["ok"]


class TestRunTailer:
    def test_streams_appearing_mid_watch_are_picked_up(self, tmp_path):
        directory = tmp_path / "run"
        tailer = RunTailer(directory)
        assert tailer.poll() == []  # directory not materialised yet
        write_stream(directory, "a", [{"event": "x", "t_mono": 1.0}])
        assert [e["event"] for e in tailer.poll()] == ["x"]
        # A new stream appears and the old one grows: one batch, ordered
        # by t_mono across both.
        write_stream(directory, "b", [{"event": "y", "t_mono": 0.5}])
        with open(directory / "events-a.jsonl", "a") as handle:
            handle.write(json.dumps(
                {"event": "z", "stream": "a", "seq": 2, "t_mono": 2.0}
            ) + "\n")
        assert [e["event"] for e in tailer.poll()] == ["y", "z"]

    def test_graph_is_refreshed_when_it_appears(self, tmp_path):
        directory = tmp_path / "run"
        directory.mkdir()
        tailer = RunTailer(directory)
        tailer.poll()
        assert tailer.graph == {}
        (directory / "graph.json").write_text(json.dumps(
            {"k1": {"kind": "evaluate", "index": 0, "deps": []}}
        ))
        tailer.poll()
        assert tailer.graph["k1"]["kind"] == "evaluate"


class TestSweepState:
    def _started(self, scheduled=2):
        state = SweepState()
        state.apply({"event": ev.SWEEP_START, "run_id": "r", "sweep": "s",
                     "executor": "sharded", "scheduled": scheduled,
                     "t_mono": 0.0})
        return state

    def test_out_of_order_close_beats_late_start(self):
        # Shard B's finish flushes before shard A's start of the same key
        # is observed: the status lattice must not regress to "running".
        state = self._started()
        state.apply({"event": ev.JOB_FINISH, "key": "k1", "kind": "evaluate",
                     "duration_s": 1.0, "stream": "b", "t_mono": 2.0})
        state.apply({"event": ev.JOB_START, "key": "k1", "kind": "evaluate",
                     "stream": "a", "t_mono": 1.0})
        snapshot = state.snapshot()
        assert snapshot["counts"]["ok"] == 1
        assert snapshot["counts"]["running"] == 0
        assert snapshot["running_jobs"] == []

    def test_graph_ingest_counts_unstarted_jobs_as_pending(self):
        state = self._started(scheduled=3)
        state.ingest_graph({
            "k1": {"kind": "evaluate"}, "k2": {"kind": "monte_carlo"},
            "k3": {"kind": "monte_carlo"},
        })
        state.apply({"event": ev.JOB_START, "key": "k1", "kind": "evaluate",
                     "stream": "a", "t_mono": 1.0})
        snapshot = state.snapshot()
        assert snapshot["total"] == 3
        assert snapshot["counts"]["pending"] == 2
        assert snapshot["counts"]["running"] == 1
        assert snapshot["eta_s"] is None  # no duration observed yet

    def test_eta_uses_per_kind_means(self):
        state = self._started(scheduled=3)
        state.ingest_graph({
            "k1": {"kind": "evaluate"}, "k2": {"kind": "evaluate"},
            "k3": {"kind": "evaluate"},
        })
        state.apply({"event": ev.JOB_START, "key": "k1", "kind": "evaluate",
                     "stream": "a", "t_mono": 0.0})
        state.apply({"event": ev.JOB_FINISH, "key": "k1", "kind": "evaluate",
                     "duration_s": 2.0, "stream": "a", "t_mono": 2.0})
        # Two pending evaluates at the observed 2 s mean over one stream.
        assert state.snapshot()["eta_s"] == pytest.approx(4.0)

    def test_fully_cached_rerun_counts_cached_jobs_in_total(self):
        # `scheduled` excludes cache hits (they never enter the graph);
        # the denominator must still cover their job_cached events.
        state = self._started(scheduled=0)
        for index in range(3):
            state.apply({"event": ev.JOB_CACHED, "key": f"k{index}",
                         "kind": "evaluate", "t_mono": 1.0})
        snapshot = state.snapshot()
        assert snapshot["total"] == snapshot["done"] == 3
        assert snapshot["counts"]["cached"] == 3

    def test_abort_marks_running_jobs_and_wins_over_late_finish(self):
        state = self._started()
        state.apply({"event": ev.WAVE_START, "wave": 1, "jobs": 2,
                     "t_mono": 0.5})
        state.apply({"event": ev.JOB_START, "key": "k1", "kind": "evaluate",
                     "stream": "a", "t_mono": 1.0, "wave": 1})
        state.apply({"event": ev.SWEEP_ABORT, "reason": "KeyboardInterrupt",
                     "t_mono": 2.0})
        # The runner's cleanup still records sweep_finish after the abort.
        state.apply({"event": ev.SWEEP_FINISH, "t_mono": 2.1})
        assert state.terminal and state.outcome == "aborted"
        snapshot = state.snapshot()
        assert snapshot["counts"]["aborted"] == 1
        assert snapshot["counts"]["running"] == 0

    def test_render_ascii_mode_is_pure_ascii(self):
        state = self._started()
        state.apply({"event": ev.JOB_START, "key": "k1", "kind": "evaluate",
                     "stream": "a", "t_mono": 1.0, "wave": 1})
        state.apply({"event": ev.JOB_FINISH, "key": "k1", "kind": "evaluate",
                     "duration_s": 1.0, "stream": "a", "t_mono": 2.0})
        state.apply({"event": ev.SWEEP_FINISH, "t_mono": 2.0})
        snapshot = state.snapshot()
        text = render(snapshot)
        assert "█" in text and "sweep s" in text
        plain = render(snapshot, ascii_only=True)
        assert all(ord(char) < 128 for char in plain)
        assert "sweep finished" in plain


# --------------------------------------------------------------------- #
# Shard dispatch events of the sharded executor
# --------------------------------------------------------------------- #
class TestShardDispatchEvents:
    @staticmethod
    def _wave_shards(trace, shards=2):
        """Every (wave, shard) pair the executor must dispatch: each wave
        round-robins its runnable jobs into at most ``shards`` groups."""
        return sorted(
            (event["wave"], shard)
            for event in trace.select(ev.WAVE_START)
            for shard in range(min(event["jobs"], shards))
        )

    def test_one_dispatch_per_wave_and_shard(self, tmp_path, weights_cache):
        run = run_sweep(
            tiny_mc_sweep("dispatch-sweep"), ResultStore(tmp_path / "store"),
            weights_cache_dir=weights_cache, executor="sharded", shards=2,
            trace=True,
        )
        trace = load_run(run.telemetry_dir)
        dispatches = trace.select(ev.SHARD_DISPATCH)
        expected = self._wave_shards(trace)
        assert len(expected) == 3  # the clean reference, then two MC shards
        assert sorted((e["wave"], e["shard"]) for e in dispatches) == expected
        assert {e["transport"] for e in dispatches} == {"local"}
        assert {e["attempt"] for e in dispatches} == {0}
        assert trace.select(ev.SHARD_REDISPATCH) == []

    def test_forced_redispatch_backs_up_every_shard(self, tmp_path, weights_cache):
        sweep = tiny_mc_sweep("forced-dispatch-sweep")
        serial_store = ResultStore(tmp_path / "serial")
        serial = run_sweep(sweep, serial_store, weights_cache_dir=weights_cache)
        runner_module.clear_runner_memos()
        store = ResultStore(tmp_path / "store")
        run = run_sweep(
            sweep, store, weights_cache_dir=weights_cache, trace=True,
            executor=ShardedExecutor(shards=2, force_redispatch=True),
        )
        assert record_bytes(run) == record_bytes(serial)
        assert store_listing(store) == store_listing(serial_store)
        trace = load_run(run.telemetry_dir)
        expected = self._wave_shards(trace)
        redispatches = trace.select(ev.SHARD_REDISPATCH)
        assert sorted((e["wave"], e["shard"]) for e in redispatches) == expected
        assert {e["reason"] for e in redispatches} == {"forced"}
        assert {e["attempt"] for e in redispatches} == {1}
        assert sorted(
            (e["wave"], e["shard"]) for e in trace.select(ev.SHARD_DISPATCH)
        ) == expected


# --------------------------------------------------------------------- #
# Watching a live two-shard run to completion
# --------------------------------------------------------------------- #
class TestLiveWatch:
    def _launch(self, sweep, store, run_id, weights_cache):
        errors = []

        def _execute():
            try:
                run_sweep(sweep, store, weights_cache_dir=weights_cache,
                          executor="sharded", shards=2, trace=run_id)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        thread = threading.Thread(target=_execute, daemon=True)
        thread.start()
        return thread, errors

    def test_watch_follows_a_two_shard_run_to_completion(
        self, tmp_path, weights_cache
    ):
        sweep = tiny_mc_sweep("live-shard-sweep")
        store = ResultStore(tmp_path / "store")
        directory = run_directory(store.root, "live-run")
        thread, errors = self._launch(sweep, store, "live-run", weights_cache)
        try:
            final = None
            for snapshot in watch(directory, interval_s=0.1, timeout_s=180.0):
                final = snapshot
        finally:
            thread.join(timeout=180.0)
        assert errors == []
        assert final is not None and final["terminal"]
        assert final["outcome"] == "finished"
        # The live fold and the offline reconstruction tell one story.
        summary = summarize(load_run(directory))
        assert final["counts"]["ok"] == summary["ok"] == final["total"]
        assert final["counts"]["failed"] == summary["failed"] == 0
        assert final["counts"]["pending"] == final["counts"]["running"] == 0
        assert final["done"] == final["total"]

    def test_cli_trace_watch_matches_trace_summary_counts(
        self, tmp_path, weights_cache, capsys
    ):
        sweep = tiny_mc_sweep("cli-watch-sweep")
        store = ResultStore(tmp_path / "store")
        thread, errors = self._launch(sweep, store, "cli-watch", weights_cache)
        try:
            rc = cli_main([
                "trace", "watch", "--store", str(store.root),
                "--run", "cli-watch", "--json",
                "--interval", "0.1", "--timeout", "180",
            ])
        finally:
            thread.join(timeout=180.0)
        assert errors == [] and rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["terminal"] is True
        assert cli_main(["trace", "summary", "--json", "--store",
                         str(store.root), "--run", "cli-watch"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert snapshot["counts"]["ok"] == summary["ok"]
        assert snapshot["counts"]["failed"] == summary["failed"]
        assert snapshot["counts"]["cached"] == summary["cache"]["hits"]
        assert snapshot["done"] == summary["ok"] + summary["cache"]["hits"]


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
                      inject_failures=[0], trace="abort-run")
        trace = load_run(store.root / "telemetry" / "abort-run")
        (abort,) = trace.select(ev.SWEEP_ABORT)
        assert abort["reason"] == "RuntimeError"
        assert "injected failure" in abort["error"]
        # The live fold lands on "aborted" even though the runner's
        # cleanup still records a sweep_finish afterwards.
        state = SweepState()
        for event in trace.events:
            state.apply(event)
        assert state.terminal and state.outcome == "aborted"

    def test_exceeded_failure_budget_records_its_own_reason(
        self, tmp_path, weights_cache
    ):
        sweep = tiny_mc_sweep("budget-abort")
        with pytest.raises(runner_module.MaxFailuresExceeded):
            run_sweep(sweep, ResultStore(tmp_path),
                      weights_cache_dir=weights_cache,
                      inject_failures=[0], max_failures=0, trace="abort-run")
        trace = load_run(tmp_path / "telemetry" / "abort-run")
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
# CLI: run --progress (in-process live renderer)
# --------------------------------------------------------------------- #
class TestCliRunProgress:
    def test_run_progress_renders_and_appends_history(
        self, tmp_path, weights_cache, capsys
    ):
        sweep = tiny_mc_sweep("progress-sweep")
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep.to_dict()))
        history = tmp_path / "history.jsonl"
        assert cli_main([
            "run", str(spec_path), "--store", str(tmp_path / "store"),
            "--cache-dir", weights_cache, "--out", str(tmp_path / "record.json"),
            "--progress", "--ascii", "--history", str(history),
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep finished" in out
        (record,) = load_history(history)
        assert record["sweep"] == "progress-sweep"
        assert (tmp_path / "record.json").exists()
