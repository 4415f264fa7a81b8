"""Tests of the experiment orchestration subsystem (:mod:`repro.experiments`).

Covers the PR's contracts: content addressing (identical spec → cache hit,
any changed field → new hash, preset edits invalidate), crash-resume
bit-identity, parallel-vs-serial byte-identity (derived-seed determinism
across process boundaries), the shared clean reference, and the Monte Carlo
``trial_batch`` knob on every executor.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments import (
    AdcSpec,
    CalibrationParams,
    DistributionParams,
    ExperimentSpec,
    FailureLog,
    JobSpec,
    MaxFailuresExceeded,
    NoiseScenario,
    PowerSpec,
    ResultStore,
    SweepSpec,
    WorkloadSpec,
    execute_job,
    job_key,
    run_sweep,
)
from repro.experiments import runner as runner_module
from repro.experiments.presets import available_presets, build_preset
from repro.experiments.store import code_version_salt
from repro.workloads import _cache_path, workload_fingerprint

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# --------------------------------------------------------------------- #
# Fixtures: a deliberately tiny workload so jobs run in fractions of a
# second; the trained weights are disk-cached once per test session.
# --------------------------------------------------------------------- #
TINY = WorkloadSpec(
    "lenet5", preset="tiny", train_size=48, test_size=16,
    calibration_images=8, epochs=2, seed=11,
)


def tiny_sweep(name: str = "tiny-sweep") -> SweepSpec:
    return SweepSpec(
        name=name,
        kind="monte_carlo",
        workloads=[TINY],
        noises=[
            NoiseScenario(label={"sigma": 0.0}),
            NoiseScenario(
                models=[{"model": "gaussian_read_noise", "sigma": 0.5}],
                label={"sigma": 0.5},
            ),
        ],
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
    """Each test starts without in-process memos (like a fresh worker)."""
    runner_module.clear_runner_memos()
    yield


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory, weights_cache):
    """One uninterrupted serial run, shared by the equivalence tests."""
    runner_module.clear_runner_memos()
    root = tmp_path_factory.mktemp("store-reference")
    run = run_sweep(tiny_sweep(), ResultStore(root), weights_cache_dir=weights_cache)
    run._store_root = str(root)  # let the tests reopen the same store
    return run


def record_bytes(run) -> bytes:
    return json.dumps(run.record.to_dict(), sort_keys=True).encode("utf-8")


# --------------------------------------------------------------------- #
# Content addressing
# --------------------------------------------------------------------- #
class TestJobKeys:
    def test_identical_specs_share_a_key(self):
        jobs_a = tiny_sweep().expand()
        jobs_b = tiny_sweep().expand()
        assert [job_key(a) for a in jobs_a] == [job_key(b) for b in jobs_b]

    def test_every_changed_field_changes_the_hash(self):
        base = tiny_sweep().expand()[-1]  # a monte_carlo job
        assert base.kind == "monte_carlo"
        variants = [
            dataclasses.replace(base, trials=base.trials + 1),
            dataclasses.replace(base, images=base.images + 1),
            dataclasses.replace(base, batch_size=base.batch_size + 1),
            dataclasses.replace(base, mc_seed=base.mc_seed + 1),
            dataclasses.replace(base, engine="reference"),
            dataclasses.replace(base, confidence=0.9),
            dataclasses.replace(base, adc=AdcSpec(n_r1=3)),
            dataclasses.replace(base, adc=AdcSpec(mode="uniform", uniform_bits=6)),
            dataclasses.replace(
                base, workload=dataclasses.replace(base.workload, seed=12)
            ),
            dataclasses.replace(
                base, workload=dataclasses.replace(base.workload, train_size=64)
            ),
            dataclasses.replace(
                base, workload=dataclasses.replace(base.workload, epochs=3)
            ),
            dataclasses.replace(
                base,
                noise=NoiseScenario(
                    models=[{"model": "gaussian_read_noise", "sigma": 0.25}],
                    label={"sigma": 0.25},
                ),
            ),
            dataclasses.replace(base, noise=dataclasses.replace(base.noise, seed=5)),
        ]
        keys = [job_key(base)] + [job_key(v) for v in variants]
        assert len(set(keys)) == len(keys), "a changed field did not change the hash"

    def test_relabeling_does_not_rehash(self):
        """Labels are reporting metadata: renaming a grid coordinate must
        serve the cached artifact, not re-run the job."""
        base = tiny_sweep().expand()[-1]
        relabeled = dataclasses.replace(base, label={"renamed": True})
        assert job_key(relabeled) == job_key(base)
        # ... including the labels carried by the noise scenario itself.
        scenario_relabel = dataclasses.replace(
            base, noise=dataclasses.replace(base.noise, label={"read_noise": 0.5})
        )
        assert job_key(scenario_relabel) == job_key(base)

    def test_unused_fields_do_not_rehash(self):
        """Fields a job kind never consumes stay out of its address."""
        cal = build_preset("ablation-calibration", smoke=True).sweep.expand()[0]
        assert cal.kind == "calibration"
        assert job_key(dataclasses.replace(cal, adc=AdcSpec(bias=1))) == job_key(cal)
        assert job_key(dataclasses.replace(cal, engine="reference")) == job_key(cal)
        # A uniform-mode ADC spec ignores its (inactive) TRQ fields.
        base = tiny_sweep().expand()[0]
        uniform = dataclasses.replace(
            base, adc=AdcSpec(mode="uniform", uniform_bits=6)
        )
        uniform_trq_edit = dataclasses.replace(
            base, adc=AdcSpec(mode="uniform", uniform_bits=6, n_r1=3)
        )
        assert job_key(uniform) == job_key(uniform_trq_edit)

    def test_salt_changes_the_hash(self):
        job = tiny_sweep().expand()[0]
        assert job_key(job) == job_key(job, code_version_salt())
        assert job_key(job) != job_key(job, "other-salt")

    def test_preset_edit_invalidates_weight_cache_and_job_keys(self, monkeypatch, tmp_path):
        from repro.nn.models import registry

        job = tiny_sweep().expand()[0]
        fingerprint_before = workload_fingerprint("lenet5", "tiny", 48, 2, 11)
        key_before = job_key(job)
        path_before = _cache_path(tmp_path, "lenet5", "tiny", 48, 2, 11)

        edited = dict(registry._PRESETS)
        edited["tiny"] = dict(edited["tiny"], width=0.5)
        monkeypatch.setattr(registry, "_PRESETS", edited)

        assert workload_fingerprint("lenet5", "tiny", 48, 2, 11) != fingerprint_before
        assert job_key(job) != key_before, "preset edit must re-address results"
        assert _cache_path(tmp_path, "lenet5", "tiny", 48, 2, 11) != path_before, (
            "preset edit must never serve stale trained weights"
        )

    def test_monte_carlo_siblings_share_one_clean_job(self):
        jobs = [j for j in tiny_sweep().expand() if j.kind == "monte_carlo"]
        clean_keys = {job_key(j.clean_job()) for j in jobs}
        assert len(clean_keys) == 1  # same workload/ADC/images → one reference


# --------------------------------------------------------------------- #
# Result store
# --------------------------------------------------------------------- #
class TestResultStore:
    def test_json_and_array_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        arrays = {"logits": np.linspace(-1, 1, 12).reshape(4, 3)}
        store.save("abc123", {"row": {"x": 1.5}}, arrays)
        assert store.has("abc123")
        assert store.load("abc123") == {"row": {"x": 1.5}}
        restored = store.load_arrays("abc123")
        np.testing.assert_array_equal(restored["logits"], arrays["logits"])
        assert list(store.keys()) == ["abc123"]
        store.delete("abc123")
        assert not store.has("abc123")
        assert store.load_arrays("abc123") == {}

    def test_no_partial_artifacts_on_writer_failure(self, tmp_path):
        store = ResultStore(tmp_path / "store")

        def exploding_writer(handle):
            handle.write(b"partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError, match="disk on fire"):
            store._atomic_write(store.json_path("k"), exploding_writer)
        assert not store.has("k")
        assert list(tmp_path.joinpath("store").iterdir()) == []


# --------------------------------------------------------------------- #
# Runner: caching, resume, parallel determinism
# --------------------------------------------------------------------- #
class TestRunner:
    def test_identical_sweep_is_a_full_cache_hit(
        self, reference_run, weights_cache, monkeypatch
    ):
        # Re-run against the same store; any compute attempt must blow up.
        for fn in ("_execute_evaluate", "_execute_monte_carlo", "_execute_calibration"):
            monkeypatch.setattr(
                runner_module, fn,
                lambda *a, **k: pytest.fail("cache hit must not recompute"),
            )
        rerun = run_sweep(
            tiny_sweep(), ResultStore(reference_run_store_root(reference_run)),
            weights_cache_dir=weights_cache,
        )
        assert rerun.stats.computed == 0
        assert rerun.stats.cached == rerun.stats.total == len(reference_run.keys)
        assert record_bytes(rerun) == record_bytes(reference_run)

    def test_resume_after_crash_is_bit_identical(
        self, reference_run, weights_cache, tmp_path
    ):
        sweep = tiny_sweep()
        jobs = sweep.expand()
        store = ResultStore(tmp_path / "interrupted")
        # Simulated crash: half the jobs completed, the process died.
        for job in jobs[: len(jobs) // 2]:
            execute_job(job, store, weights_cache)
        runner_module.clear_runner_memos()
        resumed = run_sweep(sweep, store, weights_cache_dir=weights_cache)
        assert resumed.stats.cached == len(jobs) // 2
        assert resumed.stats.computed == len(jobs) - len(jobs) // 2
        assert resumed.rows == reference_run.rows
        assert record_bytes(resumed) == record_bytes(reference_run)

    def test_two_worker_run_matches_serial_byte_for_byte(
        self, reference_run, weights_cache, tmp_path
    ):
        """Derived-seed determinism across process boundaries: a 2-worker
        pool must reproduce the serial run's ordered rows exactly."""
        parallel = run_sweep(
            tiny_sweep(), ResultStore(tmp_path / "parallel"), jobs=2,
            weights_cache_dir=weights_cache,
        )
        assert parallel.stats.computed == parallel.stats.total
        assert parallel.rows == reference_run.rows
        assert record_bytes(parallel) == record_bytes(reference_run)

    def test_force_recomputes(self, reference_run, weights_cache):
        store = ResultStore(reference_run_store_root(reference_run))
        forced = run_sweep(
            tiny_sweep(), store, force=True, weights_cache_dir=weights_cache
        )
        assert forced.stats.computed == forced.stats.total
        assert record_bytes(forced) == record_bytes(reference_run)

    def test_clean_reference_is_shared_via_the_store(
        self, reference_run, weights_cache
    ):
        """Monte Carlo jobs resolve their clean run to the zero-noise
        evaluate artifact — computed once per (workload, config)."""
        store = ResultStore(reference_run_store_root(reference_run))
        sweep = tiny_sweep()
        jobs = sweep.expand()
        evaluate_keys = {
            job_key(job) for job in jobs if job.kind == "evaluate"
        }
        for job in jobs:
            if job.kind == "monte_carlo":
                payload = store.load(job_key(job))
                assert payload["clean_key"] in evaluate_keys
        # The store holds exactly: one artifact per job (the zero-noise
        # evaluate job *is* the shared clean reference, so no extras).
        assert len(list(store.keys())) == len(jobs)

    def test_clean_reference_persists_into_every_store(
        self, reference_run, weights_cache, tmp_path
    ):
        """A warm in-process memo must not skip writing the clean reference
        into a *different* store — its MC artifacts would then carry a
        dangling clean_key."""
        sweep = tiny_sweep()
        mc_job = next(j for j in sweep.expand() if j.kind == "monte_carlo")
        # reference_run warmed the memo for its own store; now execute the
        # same MC job into a fresh store without clearing memos.
        other = ResultStore(tmp_path / "other-store")
        execute_job(mc_job, other, weights_cache)
        payload = other.load(job_key(mc_job))
        assert other.has(payload["clean_key"]), \
            "clean reference missing from the store that references it"

    def test_zero_noise_scenario_runs_as_single_evaluate_job(self):
        jobs = tiny_sweep().expand()
        evaluate_jobs = [j for j in jobs if j.kind == "evaluate"]
        # two mc_seeds × zero-noise scenario still collapse to ONE job
        assert len(evaluate_jobs) == 1
        assert evaluate_jobs[0].label_dict["sigma"] == 0.0


def reference_run_store_root(reference_run) -> str:
    """The store directory the shared reference run executed against."""
    return reference_run._store_root  # attached by the fixture


class TestMonteCarloCoalescing:
    """Trial batching (trial_batch > 1) on every executor: each Monte Carlo
    job batches its own trials and writes the per-trial loop's bytes."""

    def artifact_bytes(self, root) -> dict:
        import hashlib
        from pathlib import Path

        digests = {}
        for path in sorted(Path(root).rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(root)
            # meta sidecars and telemetry record *how* results were
            # produced (durations, worker, trial_batch) — by
            # design outside the byte-identity contract.
            if rel.parts[0] in ("meta", "telemetry") or rel.name == ".lock":
                continue
            digests[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests

    def test_trial_batched_store_is_byte_identical(
        self, reference_run, weights_cache, tmp_path
    ):
        """Serial Monte Carlo jobs batching their trials write byte-identical
        artifacts to the per-trial reference run."""
        runner_module.clear_runner_memos()
        root = tmp_path / "store-batched"
        run = run_sweep(
            tiny_sweep(), ResultStore(root), weights_cache_dir=weights_cache,
            trial_batch=3,
        )
        assert run.stats.computed == run.stats.total
        assert record_bytes(run) == record_bytes(reference_run)
        assert self.artifact_bytes(root) == self.artifact_bytes(
            reference_run_store_root(reference_run)
        )
        # Execution metadata records the batching out-of-band.
        store = ResultStore(root)
        mc_keys = [
            job_key(job) for job in tiny_sweep().expand()
            if job.kind == "monte_carlo"
        ]
        assert len(mc_keys) == 2  # the sigma=0.5 scenario's two seeds
        for key in mc_keys:
            meta = json.loads(store.meta_path(key).read_text())
            assert meta["trial_batch"] == 3

    def mc_metas(self, root) -> list:
        store = ResultStore(root)
        return [
            json.loads(store.meta_path(job_key(job)).read_text())
            for job in tiny_sweep().expand() if job.kind == "monte_carlo"
        ]

    def test_process_pool_batches_every_job_at_the_requested_size(
        self, reference_run, weights_cache, tmp_path
    ):
        """Pool workers run each Monte Carlo job at the sweep's
        ``trial_batch`` (they used to fall back to 1 while the history
        record claimed the requested value)."""
        root = tmp_path / "store-pool"
        run = run_sweep(
            tiny_sweep(), ResultStore(root), jobs=2,
            weights_cache_dir=weights_cache, trial_batch=3,
        )
        assert run.stats.computed == run.stats.total
        assert record_bytes(run) == record_bytes(reference_run)
        assert self.artifact_bytes(root) == self.artifact_bytes(
            reference_run_store_root(reference_run)
        )
        metas = self.mc_metas(root)
        assert len(metas) == 2
        for meta in metas:
            assert meta["trial_batch"] == 3
            assert "coalesced" not in meta


# --------------------------------------------------------------------- #
# Figure-pipeline job kinds: hashing and sibling sharing
# --------------------------------------------------------------------- #
class TestFigureJobKinds:
    def test_new_kinds_hash_on_their_own_axes(self):
        dist = JobSpec(
            kind="distribution", workload=TINY,
            distribution=DistributionParams(images=8),
        )
        assert job_key(dist) != job_key(
            dataclasses.replace(dist, distribution=DistributionParams(images=4))
        )
        power = JobSpec(kind="power", workload=TINY, calibration=CalibrationParams())
        assert job_key(power) != job_key(
            dataclasses.replace(power, power=PowerSpec(uniform_bits=8))
        )
        assert job_key(power) != job_key(
            dataclasses.replace(power, power=PowerSpec(constants={"e_adc_op": 1e-12}))
        )
        assert job_key(power) != job_key(
            dataclasses.replace(
                power, calibration=CalibrationParams(initial_n_max=8)
            )
        )

    def test_reference_datapaths_ignore_unconsumed_fields(self):
        """float/fakequant references are forward passes: no ADC, engine or
        batching in their address."""
        base = JobSpec(kind="evaluate", workload=TINY, datapath="float", images=4)
        assert job_key(base) == job_key(dataclasses.replace(base, adc=AdcSpec(n_r1=3)))
        assert job_key(base) == job_key(dataclasses.replace(base, engine="reference"))
        assert job_key(base) == job_key(dataclasses.replace(base, batch_size=99))
        assert job_key(base) != job_key(dataclasses.replace(base, images=5))
        assert job_key(base) != job_key(dataclasses.replace(base, datapath="fakequant"))

    def test_calibrated_uniform_bits_share_one_distribution_job(self):
        jobs = [
            JobSpec(
                kind="evaluate", workload=TINY, images=4,
                adc=AdcSpec(mode="uniform_calibrated", uniform_bits=bits, calib_images=8),
            )
            for bits in (8, 7, 6, 5, 4)
        ]
        assert len({job_key(j) for j in jobs}) == len(jobs)
        assert len({job_key(j.distribution_job()) for j in jobs}) == 1
        # ... but a different capture is a different artifact.
        other = dataclasses.replace(
            jobs[0], adc=dataclasses.replace(jobs[0].adc, calib_images=4)
        )
        assert job_key(other.distribution_job()) != job_key(jobs[0].distribution_job())

    def test_monte_carlo_with_calibrated_adc_executes(self, weights_cache, tmp_path):
        """An MC job over a uniform_calibrated ADC resolves its configs from
        the shared distribution artifact (it must not hit the
        samples-required ValueError of AdcSpec.build_config)."""
        job = JobSpec(
            kind="monte_carlo", workload=TINY, images=4, batch_size=4,
            adc=AdcSpec(mode="uniform_calibrated", uniform_bits=4, calib_images=8),
            noise=NoiseScenario(
                models=[{"model": "gaussian_read_noise", "sigma": 0.5}],
            ),
            trials=1,
        )
        store = ResultStore(tmp_path / "store")
        execute_job(job, store, weights_cache)
        assert store.has(job_key(job))
        assert store.has(job_key(job.clean_job()))
        assert store.has(job_key(job.distribution_job()))

    def test_power_jobs_share_the_figure_calibration_sibling(self):
        from repro.experiments.presets import fig6c, fig7

        workloads = [TINY]
        cal_jobs = fig6c(workloads=workloads, images=4).sweep.expand()
        power_jobs = fig7(workloads=workloads, images=4).sweep.expand()
        assert job_key(power_jobs[0].calibration_job()) == job_key(cal_jobs[0])

    def test_workload_source_calibration_ignores_resample_seed(self):
        base = JobSpec(
            kind="calibration", workload=TINY,
            calibration=CalibrationParams(calibration_size=8, source="workload"),
        )
        reseeded = dataclasses.replace(
            base, calibration=dataclasses.replace(base.calibration, calib_seed=7)
        )
        assert job_key(base) == job_key(reseeded)
        resampled = dataclasses.replace(
            base, calibration=dataclasses.replace(base.calibration, source="resampled")
        )
        assert job_key(base) != job_key(resampled)

    def test_mixed_sweeps_roundtrip_and_validate(self):
        from repro.experiments.presets import fig6

        sweep = fig6(workloads=[TINY], images=4).sweep
        clone = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert [job_key(j) for j in clone.expand()] == \
               [job_key(j) for j in sweep.expand()]
        with pytest.raises(ValueError, match="explicit_jobs"):
            SweepSpec(name="x", kind="mixed")
        with pytest.raises(ValueError, match="calibration params"):
            JobSpec(kind="power", workload=TINY)


# --------------------------------------------------------------------- #
# Failure policy: logging, tolerance, healing
# --------------------------------------------------------------------- #
def reference_sweep(name: str = "failure-sweep") -> SweepSpec:
    """Cheap evaluate-only sweep (float/fakequant forward passes)."""
    jobs = [
        JobSpec(kind="evaluate", workload=TINY, images=4, datapath=datapath,
                label={"config": config})
        for datapath, config in (("float", "f/f"), ("fakequant", "8/f"))
    ]
    return SweepSpec(name=name, kind="mixed", explicit_jobs=jobs)


class TestFailurePolicy:
    def test_default_policy_logs_and_reraises(self, weights_cache, tmp_path):
        store = ResultStore(tmp_path / "store")
        sweep = reference_sweep()
        with pytest.raises(RuntimeError, match="injected failure"):
            run_sweep(sweep, store, weights_cache_dir=weights_cache,
                      inject_failures={0})
        log = FailureLog(store)
        keys = list(log.keys())
        assert keys == [job_key(sweep.expand()[0])]
        entry = log.load(keys[0])
        assert "RuntimeError" in entry["error"]
        assert "Traceback" in entry["traceback"]
        assert entry["index"] == 0 and entry["kind"] == "evaluate"
        # The failed job left no artifact, partial or otherwise.
        assert not store.has(keys[0])
        leftovers = [p for p in store.root.iterdir()
                     if p.name.startswith(".") and p.name != ".lock"]
        assert leftovers == []

    def test_tolerated_failure_skips_row_and_heals_on_rerun(
        self, weights_cache, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        sweep = reference_sweep()
        run = run_sweep(sweep, store, weights_cache_dir=weights_cache,
                        inject_failures={0}, max_failures=1)
        assert run.stats.failed == 1 and run.stats.computed == 1
        assert [row["config"] for row in run.rows] == ["8/f"]
        assert len(run.failures) == 1
        assert run.record.metadata["failures"][0]["index"] == 0
        log = FailureLog(store)
        assert len(log) == 1
        # Rerunning without injection retries the failed job, clears its log
        # entry, and converges to the clean run's record byte for byte.
        healed = run_sweep(sweep, store, weights_cache_dir=weights_cache)
        assert healed.stats.failed == 0
        assert [row["config"] for row in healed.rows] == ["f/f", "8/f"]
        assert len(log) == 0
        clean = run_sweep(
            reference_sweep(), ResultStore(tmp_path / "clean"),
            weights_cache_dir=weights_cache,
        )
        assert record_bytes(healed) == record_bytes(clean)

    def test_exceeding_max_failures_raises(self, weights_cache, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(MaxFailuresExceeded, match="max_failures=0"):
            run_sweep(reference_sweep(), store, weights_cache_dir=weights_cache,
                      inject_failures={0, 1}, max_failures=0)
        assert len(FailureLog(store)) == 1  # aborted on the first failure

    @pytest.mark.parametrize(
        "policy,message",
        [
            ({"max_failures": -1}, r"^max_failures must be None or >= 0, got -1"),
            ({"inject_failures": {2}}, r"^inject_failures \[2\] lie outside .*\[0, 2\)"),
            ({"inject_failures": {-1, 0}}, r"^inject_failures \[-1\] lie outside"),
        ],
        ids=["negative-budget", "index-past-the-end", "negative-index"],
    )
    def test_bad_failure_policy_inputs_are_refused_before_any_job(
        self, tmp_path, policy, message
    ):
        """A negative budget used to act as 0, and an index outside the
        sweep injected nothing."""
        store = tmp_path / "store"
        with pytest.raises(ValueError, match=message):
            run_sweep(reference_sweep(), store, **policy)
        assert not store.exists()

    def test_inject_failure_check_keeps_each_index_once_and_names_every_outsider(self):
        """The one range check ``run_sweep`` and ``run`` share: indices
        inside the sweep come back as a set; every outsider is named once,
        in order."""
        assert runner_module.check_inject_failures([1, 0, 1], 2) == frozenset({0, 1})
        assert runner_module.check_inject_failures((), 0) == frozenset()
        with pytest.raises(ValueError) as error:
            runner_module.check_inject_failures([9, 0, -2, 2, 9], 2)
        assert str(error.value) == (
            "inject_failures [-2, 2, 9] lie outside the sweep's job indices [0, 2)"
        )

    def test_parallel_failures_follow_the_same_policy(
        self, weights_cache, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        run = run_sweep(reference_sweep(), store, jobs=2,
                        weights_cache_dir=weights_cache,
                        inject_failures={1}, max_failures=2)
        assert run.stats.failed == 1 and run.stats.computed == 1
        assert [row["config"] for row in run.rows] == ["f/f"]
        assert list(FailureLog(store).keys()) == [
            job_key(reference_sweep().expand()[1])
        ]


# --------------------------------------------------------------------- #
# Spec serialization / CLI plumbing
# --------------------------------------------------------------------- #
class TestSpecs:
    def test_sweep_spec_roundtrips_through_json(self):
        sweep = tiny_sweep()
        clone = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert [job_key(j) for j in clone.expand()] == \
               [job_key(j) for j in sweep.expand()]

    def test_experiment_spec_accepts_bare_sweep_dicts(self):
        experiment = ExperimentSpec.from_dict(tiny_sweep().to_dict())
        assert experiment.experiment_id == "tiny-sweep"
        assert len(experiment.sweep.expand()) == len(tiny_sweep().expand())

    def test_presets_expand(self):
        for name in available_presets():
            experiment = build_preset(name, smoke=True)
            jobs = experiment.sweep.expand()
            assert jobs, name
            assert len({job_key(j) for j in jobs}) == len(jobs)

    def test_monte_carlo_job_requires_noise_and_trials(self):
        with pytest.raises(ValueError, match="noise"):
            JobSpec(kind="monte_carlo", workload=TINY, trials=2)
        with pytest.raises(ValueError, match="trials"):
            JobSpec(
                kind="monte_carlo", workload=TINY, trials=0,
                noise=NoiseScenario(models=[{"model": "gaussian_read_noise", "sigma": 1.0}]),
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(kind="banana", workload=TINY)
        with pytest.raises(ValueError, match="kind"):
            SweepSpec(name="x", kind="banana", workloads=[TINY])
