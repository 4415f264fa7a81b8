"""Smoke-size self-tests of the benchmark.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

or as ``python3 -m pytest perfbench/selftest.py``.  Each test runs
``perfbench/run.py --smoke`` in a subprocess and checks its result line
against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in CONFIG["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--smoke", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr[-2000:]
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _assert_metrics(result: dict, section: str) -> None:
    expected = {metric["name"]: metric["unit"] for metric in CONFIG[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == expected, sorted(set(printed) ^ set(expected))
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float), name


def test_every_workload_prints_every_metric() -> None:
    for name in WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(_run("--workload", name, "--trace", str(trace)))
            assert result["correct"] and result["failed"] == 0, (name, trace)
            _assert_metrics(result, section)


def test_second_seed_passes_every_check() -> None:
    for name in WORKLOAD_NAMES:
        result = _result(_run("--workload", name, "--seed", "7"))
        assert result["correct"] and result["failed"] == 0, name


def test_injected_job_failure_raises_error_rate() -> None:
    result = _result(_run("--workload", "figures", "--inject-failure", "0"))
    assert not result["correct"]
    assert result["failed"] >= 1
    _assert_metrics(result, "end_to_end")


def test_tampered_reference_trips_identity_check() -> None:
    process = _run("--workload", "montecarlo_batched", "--tamper-reference")
    result = _result(process)
    assert not result["correct"] and result["failed"] >= 1
    assert "FAIL perfbench-montecarlo: record equals the trial_batch=1 record" in process.stdout
    _assert_metrics(result, "end_to_end")


def test_traced_mode_survives_missing_targets_and_broken_hooks() -> None:
    sys.path.insert(0, str(BENCH_DIR))
    import spans

    def broken_hook(*_args) -> None:
        raise KeyError("stale field")

    recorder = spans.SpanRecorder("selftest")
    targets = [
        spans.Target("sim.gone", "repro.sim.simulator", "PimSimulator.no_such_method"),
        spans.Target("sim.gone", "repro.no_such_module", "anything"),
        spans.Target("report.dumps", "json", "dumps", broken_hook),
    ]
    with recorder.phase("sweep"), spans.traced(recorder, targets) as missing:
        assert json.dumps([1]) == "[1]"
    assert json.dumps.__module__ == "json" and not hasattr(json.dumps, "__wrapped__")
    assert missing == [
        "repro.sim.simulator.PimSimulator.no_such_method", "repro.no_such_module.anything",
    ]
    assert recorder.broken == {"json.dumps"}
    assert recorder.calls[("sweep", "report.dumps")] == 1


def test_fails_without_the_program() -> None:
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH_DIR / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            BENCH_DIR, bare / "perfbench",
            ignore=shutil.ignore_patterns(".work", "traces", "__pycache__"),
        )
        process = _run("--workload", "figures", cwd=bare)
        assert process.returncode != 0
        assert '"metrics"' not in process.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as error:
                failures += 1
                print(f"FAIL {name}: {error}")
            else:
                print(f"PASS {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
