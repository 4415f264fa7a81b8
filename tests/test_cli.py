"""Bad command-line input fails at the parser or as a one-line error.

Count flags (``run --jobs``, ``--trial-batch``, ``shard emit --shards``
and the ``--limit`` of ``trace show`` and ``trace history``) take
integers >= 1 and exit 2 naming the flag, instead of raising a
``ValueError`` traceback from inside the run or printing the wrong number
of lines.  The two-gate thresholds of ``trace summary`` and ``trace
regress`` take finite numbers, factors >= 1 and gaps >= 0, the same way.
A shard manifest that ``shard merge`` or ``shard run`` refuses, a JSON
spec that ``run`` or ``show`` cannot parse, and an ``--inject-failure``
index outside the sweep end the command with the checker's message, not a
traceback, before any job runs.  ``shard merge`` refuses manifests of two sweeps the same way.
``--max-failures`` takes an integer >= 0, and neither the flags of the
deleted shard dispatcher nor those of the deleted live monitor
(``run --progress``, ``trace watch``) parse.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import write_shard_manifests
from repro.experiments.cli import main
from repro.experiments.presets import build_preset

RUN = ["run", "--preset", "fig6", "--smoke"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (RUN + ["--trial-batch", "0"], "--trial-batch"),
        (RUN + ["--jobs", "0"], "--jobs"),
        (RUN + ["--jobs", "two"], "--jobs"),
        (["shard", "emit", "--preset", "fig6", "--smoke", "--shards", "0"], "--shards"),
        (["trace", "show", "--limit", "0"], "--limit"),
        (["trace", "show", "--limit", "-1"], "--limit"),
        (["trace", "history", "--limit", "0"], "--limit"),
        (["trace", "history", "--limit", "-1"], "--limit"),
    ],
)
def test_count_flags_must_be_positive_integers(argv, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "below"])
@pytest.mark.parametrize(
    "command,flag,low",
    [
        ("summary", "--straggler-factor", 1),
        ("summary", "--straggler-min-gap", 0),
        ("regress", "--factor", 1),
        ("regress", "--min-gap", 0),
        ("regress", "--rss-factor", 1),
        ("regress", "--rss-min-gap", 0),
    ],
)
def test_gate_flags_must_be_finite_and_in_range(command, flag, low, value, capsys):
    """A NaN gate flags nothing (``trace regress --factor nan`` passed a
    100x slowdown), so each gate flag is checked at the parser."""
    text = str(low - 0.5) if value == "below" else value
    with pytest.raises(SystemExit) as exit_info:
        main(["trace", command, flag, text])
    assert exit_info.value.code == 2
    assert (
        f"argument {flag}: must be a finite number >= {low}, got {text!r}"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (RUN + ["--executor", "sharded"], "argument --executor: invalid choice: 'sharded'"),
        (RUN + ["--shards", "2"], "unrecognized arguments: --shards"),
    ],
    ids=["executor-sharded", "run-shards"],
)
def test_run_has_no_sharding_flags(argv, message, capsys):
    """``run`` parallelises through ``--jobs`` only; sharding is the
    ``shard`` subcommands' job, so these are parser errors, not aliases."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (RUN + ["--progress"], "unrecognized arguments: --progress"),
        (["trace", "watch"], "argument trace_command: invalid choice: 'watch'"),
    ],
    ids=["run-progress", "trace-watch"],
)
def test_live_monitoring_is_gone(argv, message, capsys):
    """A trace is read after its run (``trace summary``); nothing follows a
    run while it grows, so these are parser errors, not aliases."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def emit(tmp_path, preset, directory):
    """Two-shard manifests of a preset's smoke sweep under ``directory``."""
    experiment = build_preset(preset, smoke=True)
    paths = write_shard_manifests(
        experiment.sweep, 2, tmp_path / directory, experiment=experiment
    )
    return experiment, paths


def merge_error(paths, store):
    """The one-line error ``shard merge`` exits with."""
    with pytest.raises(SystemExit) as exit_info:
        main(["shard", "merge", *map(str, paths), "--store", str(store)])
    return str(exit_info.value.code)


def test_shard_merge_refuses_manifests_of_two_sweeps(tmp_path):
    emit(tmp_path, "fig6", "manifests")
    emit(tmp_path, "robustness-noise", "manifests")
    store = tmp_path / "store"
    assert merge_error([tmp_path / "manifests"], store).startswith(
        "refusing to merge manifests of different sweeps"
    )
    assert not store.exists()


def test_shard_merge_refuses_a_job_of_another_sweep(tmp_path):
    """Only one manifest embeds its sweep; the other's jobs belong to a
    different sweep and are caught by their keys."""
    experiment, _ = emit(tmp_path, "fig6", "fig6")
    _, (foreign, _) = emit(tmp_path, "robustness-noise", "other")
    manifest = json.loads(foreign.read_text())
    del manifest["sweep"]
    foreign.write_text(json.dumps(manifest))
    store = tmp_path / "store"
    assert merge_error([tmp_path / "fig6", foreign], store) == (
        f"{foreign} holds {len(manifest['jobs'])} job(s) that are not part of the "
        f"merged sweep '{experiment.sweep.name}' (mixed sweeps in one directory?); "
        "pass one sweep's manifests explicitly"
    )
    assert not store.exists()


def test_shard_merge_needs_a_manifest_that_embeds_the_sweep(tmp_path):
    _, paths = emit(tmp_path, "fig6", "manifests")
    for path in paths:
        manifest = json.loads(path.read_text())
        del manifest["sweep"]
        path.write_text(json.dumps(manifest))
    assert merge_error(paths, tmp_path / "store").startswith(
        "none of the manifests embeds the sweep spec"
    )


def test_shard_merge_of_a_directory_without_manifests_is_refused(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "fig6-shard0of1.result.json").write_text("{}")  # results are skipped
    assert merge_error([empty], tmp_path / "store").startswith(
        "no shard manifests found under"
    )


def test_shard_merge_reports_a_stale_manifest_without_a_traceback(tmp_path):
    experiment = build_preset("fig6", smoke=True)
    paths = write_shard_manifests(experiment.sweep, 2, tmp_path, experiment=experiment)
    manifest = json.loads(paths[1].read_text())
    manifest["salt"] = "0.9.0/schema-v1"
    paths[1].write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exit_info:
        main(["shard", "merge", str(tmp_path), "--store", str(tmp_path / "store")])
    message = str(exit_info.value.code)
    assert message.startswith("error: ") and "0.9.0/schema-v1" in message


def test_shard_merge_reports_a_malformed_sweep_without_a_traceback(tmp_path):
    experiment = build_preset("fig6", smoke=True)
    paths = write_shard_manifests(experiment.sweep, 2, tmp_path, experiment=experiment)
    manifest = json.loads(paths[0].read_text())
    manifest["sweep"]["mc_seed"] = [3]
    paths[0].write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exit_info:
        main(["shard", "merge", str(tmp_path), "--store", str(tmp_path / "store")])
    assert str(exit_info.value.code).startswith(
        f"error: {paths[0]}: sweep: mc_seed is not a field"
    )


def test_max_failures_must_be_a_non_negative_integer(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(RUN + ["--max-failures", "-1"])
    assert exit_info.value.code == 2
    assert "argument --max-failures: must be an integer >= 0" in capsys.readouterr().err


def test_an_injected_index_outside_the_sweep_is_refused_before_any_job(tmp_path):
    """``--inject-failure 99`` on the 6-job fig6 smoke would inject
    nothing, so the failure-path run would pass without exercising it."""
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exit_info:
        main(RUN + ["--inject-failure", "0", "--inject-failure", "99",
                    "--store", str(store)])
    assert str(exit_info.value.code) == (
        "error: inject_failures [99] lie outside the sweep's job indices [0, 6)"
    )
    assert not store.exists()  # no artifact, no failure entry


def bad_spec_file(tmp_path):
    """A sweep JSON whose workload misspells ``train_size``."""
    sweep = build_preset("robustness-noise", smoke=True).sweep.to_dict()
    sweep["workloads"][0]["train_sise"] = sweep["workloads"][0].pop("train_size")
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    return path


@pytest.mark.parametrize("command", ["run", "show"])
def test_a_bad_json_spec_is_a_one_line_error(command, tmp_path):
    path = bad_spec_file(tmp_path)
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(path), "--store", str(store)])
    message = str(exit_info.value.code)
    assert message.startswith(f"error: {path}: workload.train_sise is not a field")
    assert not store.exists()


def test_shard_run_parses_every_job_spec_before_touching_the_store(tmp_path):
    experiment = build_preset("robustness-noise", smoke=True)
    paths = write_shard_manifests(experiment.sweep, 1, tmp_path, experiment=experiment)
    manifest = json.loads(paths[0].read_text())
    manifest["jobs"][-1]["spec"]["noise"]["sed"] = 4
    paths[0].write_text(json.dumps(manifest))
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exit_info:
        main(["shard", "run", str(paths[0]), "--store", str(store)])
    last = len(manifest["jobs"]) - 1
    assert str(exit_info.value.code).startswith(
        f"error: {paths[0]}: jobs[{last}].spec: noise.sed is not a field"
    )
    assert not store.exists()
