"""Tests of the dependency-graph scheduler and the pluggable executor layer.

The contracts pinned here:

* ``JobSpec.dependencies()`` declares exactly the sibling artifacts each
  kind loads, and the graph takes the transitive closure (a clean
  reference over a calibrated-uniform ADC reaches the distribution capture
  at depth 2).
* Waves are topological at arbitrary depth — a power sweep schedules its
  calibration sibling strictly earlier; already-stored dependencies are
  satisfied and never rescheduled.
* Shared artifacts dedupe across the sweep: N Monte Carlo siblings
  produce one clean-reference node, and a grid point that *is* the shared
  artifact (the zero-noise evaluate) is the same node.
* A failed upstream job marks its transitive dependents failed-with-cause
  instead of letting them recompute and crash, and the whole subtree
  consumes **one** unit of the ``max_failures`` budget.
* Executors are interchangeable: serial, process-pool, resumed and
  2-shard-merged runs of the ``fig6`` and ``multi_workload_robustness``
  presets produce byte-identical aggregate records and store contents.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys

import pytest

from repro.experiments import (
    AdcSpec,
    DistributionParams,
    FailureLog,
    JobSpec,
    NoiseScenario,
    ProcessPoolExecutor,
    ResultStore,
    SerialExecutor,
    ShardedExecutor,
    SweepSpec,
    WorkloadSpec,
    aggregate_sweep,
    build_job_graph,
    build_preset,
    code_version_salt,
    execute_job,
    expanded_artifacts,
    job_key,
    load_shard_manifest,
    plan_shards,
    resolve_executor,
    run_shard_manifest,
    run_sweep,
    write_shard_manifests,
)
from repro.experiments import runner as runner_module
from repro.experiments.executors import _shard_subprocess_env
from repro.experiments.presets import fig6, fig7
from repro.experiments.scheduler import UpstreamFailed

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

TINY = WorkloadSpec(
    "lenet5", preset="tiny", train_size=48, test_size=16,
    calibration_images=8, epochs=2, seed=11,
)

NOISE = NoiseScenario(
    models=[{"model": "gaussian_read_noise", "sigma": 0.5}], label={"sigma": 0.5},
)


def tiny_mc_sweep(name: str = "sched-sweep") -> SweepSpec:
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


# --------------------------------------------------------------------- #
# JobSpec.dependencies()
# --------------------------------------------------------------------- #
class TestDependencies:
    def test_monte_carlo_depends_on_its_clean_job(self):
        mc = next(j for j in tiny_mc_sweep().expand() if j.kind == "monte_carlo")
        deps = mc.dependencies()
        assert [d.kind for d in deps] == ["evaluate"]
        assert job_key(deps[0]) == job_key(mc.clean_job())

    def test_calibrated_uniform_evaluate_depends_on_the_capture(self):
        job = JobSpec(
            kind="evaluate", workload=TINY, images=4,
            adc=AdcSpec(mode="uniform_calibrated", uniform_bits=4, calib_images=8),
        )
        assert [d.kind for d in job.dependencies()] == ["distribution"]

    def test_power_depends_on_its_calibration_sibling(self):
        power = fig7(workloads=[TINY], images=4).sweep.expand()[0]
        deps = power.dependencies()
        assert [d.kind for d in deps] == ["calibration"]
        assert job_key(deps[0]) == job_key(power.calibration_job())

    def test_reference_datapaths_and_plain_evaluates_have_no_deps(self):
        assert JobSpec(
            kind="evaluate", workload=TINY, datapath="float", images=4
        ).dependencies() == []
        assert JobSpec(kind="evaluate", workload=TINY, images=4).dependencies() == []
        assert JobSpec(
            kind="distribution", workload=TINY,
            distribution=DistributionParams(images=TINY.calibration_images),
        ).dependencies() == []

    def test_transitive_closure_reaches_the_capture_through_the_clean_job(self):
        """An MC job over a calibrated-uniform ADC: its clean reference
        itself depends on the distribution capture (depth 2)."""
        mc = JobSpec(
            kind="monte_carlo", workload=TINY, images=4, batch_size=4,
            adc=AdcSpec(mode="uniform_calibrated", uniform_bits=4, calib_images=8),
            noise=NOISE, trials=1,
        )
        clean_deps = mc.clean_job().dependencies()
        assert [d.kind for d in clean_deps] == ["distribution"]
        artifacts = expanded_artifacts([mc])
        assert sorted(j.kind for j in artifacts.values()) == [
            "distribution", "evaluate", "monte_carlo",
        ]


# --------------------------------------------------------------------- #
# Graph construction: dedupe, satisfied deps, waves
# --------------------------------------------------------------------- #
class TestJobGraph:
    def test_shared_clean_reference_dedupes_across_mc_siblings(self, tmp_path):
        sweep = tiny_mc_sweep()
        jobs = sweep.expand()
        graph = build_job_graph(list(enumerate(jobs)), ResultStore(tmp_path / "s"))
        # 3 sweep jobs -> 3 nodes: the zero-noise evaluate IS the clean
        # reference of both MC jobs (no extra dependency node).
        assert len(graph) == 3
        evaluate = next(n for n in graph if n.job.kind == "evaluate")
        assert evaluate.indices == (0,)
        for node in graph:
            if node.job.kind == "monte_carlo":
                assert node.dependencies == (evaluate.key,)

    def test_power_sweep_schedules_calibration_in_an_earlier_wave(self, tmp_path):
        sweep = fig7(workloads=[TINY], images=4).sweep
        graph = build_job_graph(
            list(enumerate(sweep.expand())), ResultStore(tmp_path / "s")
        )
        waves = graph.waves()
        assert [[n.job.kind for n in wave] for wave in waves] == [
            ["distribution", "evaluate"], ["calibration"], ["power"],
        ]
        capture, baseline = waves[0]
        calibration = waves[1][0]
        power = waves[2][0]
        assert job_key(capture.job) == job_key(calibration.job.capture_job())
        assert job_key(baseline.job) == job_key(calibration.job.baseline_job())
        assert baseline.job.adc.mode == "ideal"
        assert calibration.dependencies == (capture.key, baseline.key)
        assert power.dependencies == (calibration.key,)
        # The shared capture, baseline and calibration nodes are not grid
        # points of the sweep.
        assert capture.indices == baseline.indices == calibration.indices == ()
        assert power.indices == (0,)

    def test_three_deep_waves_for_mc_over_calibrated_uniform(self, tmp_path):
        mc = JobSpec(
            kind="monte_carlo", workload=TINY, images=4, batch_size=4,
            adc=AdcSpec(mode="uniform_calibrated", uniform_bits=4, calib_images=8),
            noise=NOISE, trials=1,
        )
        graph = build_job_graph([(0, mc)], ResultStore(tmp_path / "s"))
        assert [[n.job.kind for n in wave] for wave in graph.waves()] == [
            ["distribution"], ["evaluate"], ["monte_carlo"],
        ]

    def test_stored_dependencies_are_satisfied_not_scheduled(
        self, tmp_path, weights_cache
    ):
        sweep = tiny_mc_sweep()
        jobs = sweep.expand()
        store = ResultStore(tmp_path / "s")
        execute_job(jobs[0], store, weights_cache)  # the clean reference
        pending = [(i, j) for i, j in enumerate(jobs) if not store.has(job_key(j))]
        graph = build_job_graph(pending, store)
        assert len(graph) == 2  # just the MC jobs
        assert all(node.dependencies == () for node in graph)
        assert len(graph.waves()) == 1

    def test_fig6_dedupes_the_distribution_capture(self, tmp_path):
        sweep = fig6(workloads=[TINY], images=4, bits=[5, 4]).sweep
        jobs = sweep.expand()
        graph = build_job_graph(
            list(enumerate(jobs)), ResultStore(tmp_path / "s")
        )
        captures = [n for n in graph if n.job.kind == "distribution"]
        # Both sensing precisions share one capture and both TRQ caps share
        # another; their reservoir capacities differ, so the two cannot merge.
        assert len(captures) == 2
        assert all(c.indices == () for c in captures)  # not grid points
        ucal = [
            n for n in graph
            if n.job.kind == "evaluate" and n.job.adc.needs_distributions
        ]
        calibrations = [n for n in graph if n.job.kind == "calibration"]
        assert len(ucal) == len(calibrations) == 2
        ucal_capture = next(
            c for c in captures if c.key == job_key(ucal[0].job.distribution_job())
        )
        cal_capture = next(c for c in captures if c is not ucal_capture)
        assert (
            ucal_capture.job.distribution.capacity_per_layer
            != cal_capture.job.distribution.capacity_per_layer
        )
        assert all(n.dependencies == (ucal_capture.key,) for n in ucal)
        baselines = [
            n for n in graph if n.job.kind == "evaluate" and n.job.adc.mode == "ideal"
        ]
        assert len(baselines) == 1 and baselines[0].indices == ()
        assert all(
            n.dependencies == (cal_capture.key, baselines[0].key)
            for n in calibrations
        )
        assert len(graph) == len(jobs) + 3

    def test_transitive_dependents(self, tmp_path):
        mc = JobSpec(
            kind="monte_carlo", workload=TINY, images=4, batch_size=4,
            adc=AdcSpec(mode="uniform_calibrated", uniform_bits=4, calib_images=8),
            noise=NOISE, trials=1,
        )
        graph = build_job_graph([(0, mc)], ResultStore(tmp_path / "s"))
        capture = next(n for n in graph if n.job.kind == "distribution")
        downstream = graph.transitive_dependents(capture.key)
        assert [n.job.kind for n in downstream] == ["evaluate", "monte_carlo"]


# --------------------------------------------------------------------- #
# Failure propagation: failed-with-cause, counted once
# --------------------------------------------------------------------- #
class TestUpstreamFailurePropagation:
    def test_dependents_of_a_failed_upstream_are_marked_not_recomputed(
        self, tmp_path, weights_cache
    ):
        """Injecting a failure into the shared clean reference (job 0) must
        mark both MC dependents failed-with-cause — and the whole subtree
        counts ONCE against max_failures (1 root + 2 dependents fits a
        budget of 1)."""
        sweep = tiny_mc_sweep()
        store = ResultStore(tmp_path / "store")
        run = run_sweep(
            sweep, store, weights_cache_dir=weights_cache,
            inject_failures={0}, max_failures=1,
        )
        assert run.stats.failed == 3 and run.stats.computed == 0
        assert run.rows == []
        root_key = run.keys[0]
        log = FailureLog(store)
        assert len(log) == 3
        propagated = [e for e in run.failures if e.get("cause_key")]
        assert len(propagated) == 2
        assert all(e["cause_key"] == root_key for e in propagated)
        assert all("UpstreamFailed" in e["error"] for e in propagated)
        assert [e for e in run.failures if not e.get("cause_key")][0]["key"] == root_key
        # metadata mirrors the cause for downstream tooling
        assert sum(
            1 for f in run.record.metadata["failures"] if f.get("cause_key")
        ) == 2

    def test_budget_of_zero_still_aborts_on_the_root(self, tmp_path, weights_cache):
        from repro.experiments import MaxFailuresExceeded

        with pytest.raises(MaxFailuresExceeded, match="max_failures=0"):
            run_sweep(
                tiny_mc_sweep(), ResultStore(tmp_path / "store"),
                weights_cache_dir=weights_cache,
                inject_failures={0}, max_failures=0,
            )

    def test_rerun_heals_the_whole_subtree(self, tmp_path, weights_cache):
        sweep = tiny_mc_sweep()
        store = ResultStore(tmp_path / "store")
        run_sweep(sweep, store, weights_cache_dir=weights_cache,
                  inject_failures={0}, max_failures=1)
        assert len(FailureLog(store)) == 3
        healed = run_sweep(sweep, store, weights_cache_dir=weights_cache)
        assert healed.stats.failed == 0
        assert healed.stats.computed == healed.stats.total == 3
        assert len(FailureLog(store)) == 0
        clean = run_sweep(
            tiny_mc_sweep(), ResultStore(tmp_path / "clean"),
            weights_cache_dir=weights_cache,
        )
        assert record_bytes(healed) == record_bytes(clean)

    def test_failed_shared_dependency_heals_on_rerun(
        self, tmp_path, weights_cache, monkeypatch
    ):
        """A root failure on a NON-grid node (fig7's calibration sibling):
        its entry must be surfaced under its own key, count once, and be
        cleared when a rerun recomputes it successfully."""
        experiment = fig7(workloads=[TINY], images=4)
        store = ResultStore(tmp_path / "store")

        def explode(*args, **kwargs):
            raise RuntimeError("calibration died")

        monkeypatch.setattr(runner_module, "_execute_calibration", explode)
        run = run_sweep(
            experiment.sweep, store, weights_cache_dir=weights_cache,
            max_failures=1,
        )
        # 1 root (the shared calibration, no grid index) + 1 propagated
        # power job; the subtree fits a budget of 1.
        assert run.stats.failed == 2 and run.rows == []
        log = FailureLog(store)
        assert len(log) == 2
        root_key = job_key(experiment.sweep.expand()[0].calibration_job())
        assert log.has(root_key)
        assert log.load(root_key).get("index") is None

        monkeypatch.undo()
        runner_module.clear_runner_memos()
        healed = run_sweep(
            experiment.sweep, store, weights_cache_dir=weights_cache,
        )
        assert healed.stats.failed == 0 and len(healed.rows) == 1
        assert len(log) == 0, "healed shared-dependency entry not cleared"

    def test_parallel_propagation_matches_serial(self, tmp_path, weights_cache):
        serial = run_sweep(
            tiny_mc_sweep(), ResultStore(tmp_path / "serial"),
            weights_cache_dir=weights_cache,
            inject_failures={0}, max_failures=1,
        )
        parallel = run_sweep(
            tiny_mc_sweep(), ResultStore(tmp_path / "parallel"), jobs=2,
            weights_cache_dir=weights_cache,
            inject_failures={0}, max_failures=1,
        )
        assert parallel.stats.failed == serial.stats.failed == 3
        assert record_bytes(parallel) == record_bytes(serial)


# --------------------------------------------------------------------- #
# Executor resolution and sharding plumbing
# --------------------------------------------------------------------- #
class TestExecutorResolution:
    def test_default_keeps_historical_behaviour(self):
        assert isinstance(resolve_executor(None, jobs=1), SerialExecutor)
        pool = resolve_executor(None, jobs=3)
        assert isinstance(pool, ProcessPoolExecutor) and pool.max_workers == 3

    def test_names_and_instances(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("process"), ProcessPoolExecutor)
        sharded = resolve_executor("sharded", shards=4)
        assert isinstance(sharded, ShardedExecutor) and sharded.shards == 4
        instance = SerialExecutor()
        assert resolve_executor(instance) is instance
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("banana")

    def test_plan_shards_round_robin(self):
        jobs = tiny_mc_sweep().expand()
        groups = plan_shards(jobs, 2)
        assert [[i for i, _ in g] for g in groups] == [[0, 2], [1]]
        with pytest.raises(ValueError, match="shards"):
            plan_shards(jobs, 0)

    def test_manifest_roundtrip(self, tmp_path):
        experiment = build_preset("robustness-noise", smoke=True)
        paths = write_shard_manifests(
            experiment.sweep, 2, tmp_path / "shards", experiment=experiment,
        )
        assert len(paths) == 2
        total = 0
        for shard_index, path in enumerate(paths):
            manifest = load_shard_manifest(path)
            assert manifest["shard_index"] == shard_index
            assert manifest["shard_count"] == 2
            assert manifest["experiment"]["experiment_id"] == "robustness-noise"
            clone = SweepSpec.from_dict(manifest["sweep"])
            expanded = clone.expand()
            for entry in manifest["jobs"]:
                assert entry["key"] == job_key(expanded[entry["index"]])
            total += len(manifest["jobs"])
        assert total == len(experiment.sweep.expand())

    def test_bad_manifest_rejected(self, tmp_path):
        path = tmp_path / "not-a-manifest.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a shard manifest"):
            load_shard_manifest(path)


# --------------------------------------------------------------------- #
# Shard manifests are checked before any store access
# --------------------------------------------------------------------- #
def _drop_first_spec(manifest):
    manifest["jobs"][0] = {"key": manifest["jobs"][0]["key"]}


def _break_second_spec(manifest):
    manifest["jobs"][1]["spec"] = "evaluate"


#: (edit applied to an emitted manifest, the ValueError it must raise).
MANIFEST_REJECTIONS = {
    "stale-salt": (
        lambda m: m.update(salt="0.9.0/schema-v1"),
        re.escape(f"salt '0.9.0/schema-v1', not this code's salt '{code_version_salt()}'"),
    ),
    "index-string": (lambda m: m.update(shard_index="0"), "shard_index must be an integer"),
    "index-bool": (lambda m: m.update(shard_index=False), "shard_index must be an integer"),
    "count-float": (lambda m: m.update(shard_count=2.0), "shard_count must be an integer"),
    "index-at-count": (lambda m: m.update(shard_index=2), "0 <= shard_index < shard_count"),
    "index-negative": (lambda m: m.update(shard_index=-1), "0 <= shard_index < shard_count"),
    "jobs-object": (lambda m: m.update(jobs={}), "jobs must be a list"),
    "entry-without-spec": (_drop_first_spec, r"jobs\[0\]\.spec must be an object"),
    "spec-not-object": (_break_second_spec, r"jobs\[1\]\.spec must be an object"),
}


def emitted_manifest(tmp_path, edit=None):
    """Shard 0 of a two-shard emit of the tiny sweep, optionally edited."""
    path = write_shard_manifests(tiny_mc_sweep(), 2, tmp_path / "manifests")[0]
    if edit is not None:
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    return path


class TestManifestChecks:
    @pytest.mark.parametrize("case", sorted(MANIFEST_REJECTIONS))
    def test_bad_field_is_rejected_naming_it(self, tmp_path, case):
        edit, message = MANIFEST_REJECTIONS[case]
        with pytest.raises(ValueError, match=message):
            load_shard_manifest(emitted_manifest(tmp_path, edit))

    def test_shard_run_refuses_a_stale_salt_before_touching_the_store(self, tmp_path):
        edit, _ = MANIFEST_REJECTIONS["stale-salt"]
        path = emitted_manifest(tmp_path, edit)
        store = tmp_path / "store"
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "shard", "run", str(path),
             "--store", str(store), "--cache-dir", str(tmp_path / "cache")],
            env=_shard_subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0
        assert "Traceback" not in done.stderr
        assert "0.9.0/schema-v1" in done.stderr and code_version_salt() in done.stderr
        assert list(store.glob("*.json")) == []


# --------------------------------------------------------------------- #
# Acceptance: serial / process / resumed / 2-shard-merged bit-identity
# --------------------------------------------------------------------- #
def _run_all_modes(experiment, tmp_path, weights_cache):
    """Serial, process-pool, resumed and 2-shard-merged runs of one sweep;
    returns the four (record bytes, store listing) pairs."""
    sweep = experiment.sweep
    results = {}

    serial = run_sweep(
        sweep, ResultStore(tmp_path / "serial"),
        weights_cache_dir=weights_cache, experiment=experiment,
    )
    assert serial.stats.computed == serial.stats.total
    results["serial"] = (record_bytes(serial), store_listing(ResultStore(tmp_path / "serial")))

    runner_module.clear_runner_memos()
    parallel = run_sweep(
        sweep, ResultStore(tmp_path / "parallel"), jobs=2,
        weights_cache_dir=weights_cache, experiment=experiment,
    )
    results["process"] = (record_bytes(parallel), store_listing(ResultStore(tmp_path / "parallel")))

    # Resume: compute the first half out-of-band, then run the sweep.
    runner_module.clear_runner_memos()
    resumed_store = ResultStore(tmp_path / "resumed")
    jobs = sweep.expand()
    for job in jobs[: len(jobs) // 2]:
        execute_job(job, resumed_store, weights_cache)
    runner_module.clear_runner_memos()
    resumed = run_sweep(
        sweep, resumed_store, weights_cache_dir=weights_cache,
        experiment=experiment,
    )
    assert resumed.stats.cached == len(jobs) // 2
    results["resumed"] = (record_bytes(resumed), store_listing(resumed_store))

    # Two shards, run in-process via the manifest runner, then merged.
    runner_module.clear_runner_memos()
    shard_store = ResultStore(tmp_path / "sharded")
    manifest_paths = write_shard_manifests(
        sweep, 2, tmp_path / "manifests", experiment=experiment,
    )
    for path in manifest_paths:
        runner_module.clear_runner_memos()  # each shard is a fresh process
        statuses = run_shard_manifest(
            load_shard_manifest(path), shard_store, weights_cache_dir=weights_cache,
        )
        assert all(s["status"] in ("done", "cached") for s in statuses)
    merged = aggregate_sweep(sweep, shard_store, experiment=experiment)
    assert len(merged.rows) == len(jobs)
    results["sharded"] = (record_bytes(merged), store_listing(shard_store))
    return results


class TestExecutorEquivalence:
    def test_fig6_modes_are_byte_identical(self, tmp_path, weights_cache):
        experiment = fig6(workloads=[TINY], images=4, bits=[5, 4])
        results = _run_all_modes(experiment, tmp_path, weights_cache)
        reference_record, reference_store = results["serial"]
        for mode, (record, store) in results.items():
            assert record == reference_record, f"{mode} aggregate differs"
            assert store == reference_store, f"{mode} store contents differ"

    def test_multi_workload_robustness_modes_are_byte_identical(
        self, tmp_path, weights_cache
    ):
        experiment = build_preset(
            "multi-workload-robustness", smoke=True,
            workload_names=["lenet5"], images=4, trials=2,
        )
        results = _run_all_modes(experiment, tmp_path, weights_cache)
        reference_record, reference_store = results["serial"]
        for mode, (record, store) in results.items():
            assert record == reference_record, f"{mode} aggregate differs"
            assert store == reference_store, f"{mode} store contents differ"

    def test_sharded_executor_subprocesses_match_serial(
        self, tmp_path, weights_cache
    ):
        """--executor sharded end to end (real subprocesses) on a cheap
        reference-evaluate sweep."""
        jobs = [
            JobSpec(kind="evaluate", workload=TINY, images=4, datapath=datapath,
                    label={"config": config})
            for datapath, config in (("float", "f/f"), ("fakequant", "8/f"))
        ]
        sweep = SweepSpec(name="sharded-refs", kind="mixed", explicit_jobs=jobs)
        serial = run_sweep(
            sweep, ResultStore(tmp_path / "serial"),
            weights_cache_dir=weights_cache,
        )
        sharded = run_sweep(
            sweep, ResultStore(tmp_path / "sharded"),
            weights_cache_dir=weights_cache, executor="sharded", shards=2,
        )
        assert sharded.stats.computed == sharded.stats.total == 2
        assert record_bytes(sharded) == record_bytes(serial)
        assert store_listing(ResultStore(tmp_path / "sharded")) == \
               store_listing(ResultStore(tmp_path / "serial"))

    def test_sharded_executor_batches_monte_carlo_trials(
        self, tmp_path, weights_cache
    ):
        """Each shard's manifest carries the sweep's ``trial_batch``, so
        every Monte Carlo job runs batched and matches a per-trial serial
        run byte for byte."""
        serial_store = ResultStore(tmp_path / "serial")
        serial = run_sweep(tiny_mc_sweep(), serial_store, weights_cache_dir=weights_cache)
        runner_module.clear_runner_memos()
        store = ResultStore(tmp_path / "sharded")
        sharded = run_sweep(
            tiny_mc_sweep(), store, weights_cache_dir=weights_cache,
            executor="sharded", shards=2, trial_batch=3,
        )
        assert record_bytes(sharded) == record_bytes(serial)
        assert store_listing(store) == store_listing(serial_store)
        mc_jobs = [job for job in tiny_mc_sweep().expand() if job.kind == "monte_carlo"]
        assert mc_jobs
        for job in mc_jobs:
            meta = json.loads(store.meta_path(job_key(job)).read_text())
            assert meta["trial_batch"] == 3


# --------------------------------------------------------------------- #
# Failure-log age and expiry (the `show --expire-failures` plumbing)
# --------------------------------------------------------------------- #
class TestFailureLogAge:
    def test_age_and_expiry(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        log = FailureLog(store)
        job = JobSpec(kind="evaluate", workload=TINY, images=4, datapath="float")
        entry = log.record("k1", job, RuntimeError("boom"), index=0)
        now = __import__("datetime").datetime.fromisoformat(
            entry["logged_at"]
        ).timestamp()
        assert log.age_seconds("k1", now=now) == pytest.approx(0.0, abs=1e-6)
        assert log.age_seconds("k1", now=now + 90) == pytest.approx(90.0, abs=1e-6)
        # expire: too-young entries survive, old ones are dropped
        assert log.expire(120, now=now + 90) == []
        assert log.has("k1")
        assert log.expire(60, now=now + 90) == ["k1"]
        assert not log.has("k1")

    def test_unparsable_timestamps_are_left_alone(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        log = FailureLog(store)
        job = JobSpec(kind="evaluate", workload=TINY, images=4, datapath="float")
        log.record("k1", job, RuntimeError("boom"))
        entry_path = log.path("k1")
        damaged = json.loads(entry_path.read_text())
        damaged["logged_at"] = "not-a-timestamp"
        entry_path.write_text(json.dumps(damaged))
        assert log.age_seconds("k1") is None
        assert log.expire(0) == []
        assert log.has("k1")

    def test_upstream_failed_entries_carry_the_cause(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        log = FailureLog(store)
        job = JobSpec(kind="evaluate", workload=TINY, images=4, datapath="float")
        error = UpstreamFailed("not run: upstream abc failed", "abc123")
        entry = log.record("k2", job, error, cause_key="abc123")
        assert entry["cause_key"] == "abc123"
        assert json.loads(log.path("k2").read_text())["cause_key"] == "abc123"
