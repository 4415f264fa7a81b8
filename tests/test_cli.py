"""Bad command-line input fails at the parser or as a one-line error.

Count flags (``run --jobs``, ``--shards``, ``--trial-batch`` and ``shard
emit --shards``) take integers >= 1 and exit 2 naming the flag, instead
of raising a ``ValueError`` traceback from inside the run.
``--force-redispatch`` only means something to the sharded executor, so
any other executor is a parser error rather than a silently ignored flag.
A shard manifest that ``shard merge`` refuses ends the command with the
checker's message, not a traceback.
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
        (RUN + ["--executor", "sharded", "--shards", "0"], "--shards"),
        (["shard", "emit", "--preset", "fig6", "--smoke", "--shards", "0"], "--shards"),
    ],
)
def test_count_flags_must_be_positive_integers(argv, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "executor", [[], ["--executor", "serial"], ["--executor", "process"]]
)
def test_force_redispatch_needs_the_sharded_executor(executor, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(RUN + ["--force-redispatch", *executor])
    assert exit_info.value.code == 2
    assert "--force-redispatch requires --executor sharded" in capsys.readouterr().err


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
