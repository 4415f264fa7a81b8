"""In-memory span tracing of the program's layers, from outside the program.

A traced pass installs wrappers on public entry points of each layer (class
methods, and module attributes that callers look up at call time).  Every
call becomes a span — name, start, end, parent span — kept in compact
arrays and written once, with the run id, when the benchmark ends.  Self
time (a span's duration minus the time its child spans cover) and call
counts are also accumulated per phase as spans close, so per-layer metrics
need no second pass over the spans.

Untraced runs install nothing.  A target that no longer exists is reported
as missing instead of failing the run.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import hashlib
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

#: Spans outside the setup and sweep phases (output checks) land here and
#: are excluded from every metric.
OTHER_PHASE = "other"


class SpanRecorder:
    """Span log plus per-(phase, name) call, inclusive and self-time totals."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack: List[list] = []  # [span index, name id, start, child time]
        self.phase_name = OTHER_PHASE
        self.calls: Dict[Tuple[str, str], int] = collections.Counter()
        self.inclusive: Dict[Tuple[str, str], float] = collections.defaultdict(float)
        self.exclusive: Dict[Tuple[str, str], float] = collections.defaultdict(float)
        self.counters: Dict[Tuple[str, str], float] = collections.defaultdict(float)
        self.fingerprints: Dict[Tuple[str, str], Set[object]] = collections.defaultdict(set)
        #: Targets whose count hook raised (their counts are incomplete).
        self.broken: Set[str] = set()

    # ------------------------------------------------------------------ #
    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> None:
        self._name.append(name_id)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._end.append(0.0)
        start = time.perf_counter()
        self._start.append(start)
        self._stack.append([len(self._name) - 1, name_id, start, 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        index, name_id, start, child = self._stack.pop()
        self._end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        key = (self.phase_name, self.names[name_id])
        self.calls[key] += 1
        self.inclusive[key] += duration
        self.exclusive[key] += duration - child

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Tag everything inside with ``name`` under a ``bench.<name>`` span."""
        previous, self.phase_name = self.phase_name, name
        self.open(self.intern(f"bench.{name}"))
        try:
            yield
        finally:
            self.close()
            self.phase_name = previous

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.phase_name, name)] += amount

    def fingerprint(self, name: str, value: object) -> None:
        self.fingerprints[(self.phase_name, name)].add(value)

    # ------------------------------------------------------------------ #
    @property
    def span_count(self) -> int:
        return len(self._name)

    def save(self, path: Path) -> Path:
        """Write every span (columns of one ``.npz``) with the run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
        )
        return path


# --------------------------------------------------------------------- #
# Input fingerprints (for the distinct-input ratios)
# --------------------------------------------------------------------- #
def _array_digest(values) -> str:
    values = np.ascontiguousarray(values)
    digest = hashlib.sha1(f"{values.dtype.str}{values.shape}".encode())
    digest.update(values.tobytes())
    return digest.hexdigest()


def _model_digest(model) -> str:
    digest = hashlib.sha1()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(_array_digest(value).encode())
    return digest.hexdigest()


class _QuantizedDigests:
    """Content digest per QuantizedModel object (computed once; the object
    is kept alive so its id cannot be reused by another model)."""

    def __init__(self) -> None:
        self._memo: Dict[int, Tuple[object, str]] = {}

    def __call__(self, quantized) -> str:
        entry = self._memo.get(id(quantized))
        if entry is None:
            digest = hashlib.sha1(_model_digest(quantized.model).encode())
            digest.update(repr(quantized.config).encode())
            for name, layer in sorted(quantized.layers.items()):
                digest.update(f"{name}{layer.weight_params}{layer.input_params}".encode())
                digest.update(_array_digest(layer.weight_codes).encode())
            entry = (quantized, digest.hexdigest())
            self._memo[id(quantized)] = entry
        return entry[1]


def _noise_fingerprint(noise) -> object:
    if noise is None:
        return None
    specs = getattr(noise, "specs", None)
    if callable(specs):
        return (getattr(noise, "seed", None), json.dumps(specs(), sort_keys=True, default=str))
    return repr(type(noise))


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


# --------------------------------------------------------------------- #
# Targets
# --------------------------------------------------------------------- #
Observer = Callable[["SpanRecorder", tuple, dict, object, object], None]


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``span`` is the span name (``layer.what``) or a function of the call's
    ``(args, kwargs)`` returning it.  ``before(args, kwargs)`` runs ahead of
    the call and its value reaches ``observe``, which records counts after
    the call; a ``costly`` observer runs inside its own ``trace.observe``
    span so its cost is not charged to any layer.
    """

    span: Union[str, Callable[[tuple, dict], str]]
    module: str
    attribute: str
    observe: Optional[Observer] = None
    before: Optional[Callable[[tuple, dict], object]] = None
    costly: bool = False

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attribute}"


def _observe_ptq(rec, args, kwargs, result, _pre) -> None:
    rec.fingerprint("quantization.ptq", (
        _model_digest(_arg(args, kwargs, 0, "model")),
        _array_digest(_arg(args, kwargs, 1, "calibration_images")),
        repr(_arg(args, kwargs, 2, "config")), _arg(args, kwargs, 3, "batch_size", 32),
    ))


def _result_work(rec, result) -> None:
    rec.count("sim.conversions", result.total_conversions)
    rec.count("sim.ad_operations", result.total_operations)


def _observe_evaluate(digests):
    def observe(rec, args, kwargs, result, _pre):
        simulator = args[0]
        noise = _arg(args, kwargs, 5, "noise")
        rec.fingerprint("sim.evaluate", (
            digests(simulator.quantized), simulator.engine, simulator.chunk_size,
            _array_digest(_arg(args, kwargs, 1, "images")),
            repr(_arg(args, kwargs, 3, "adc_configs")),
            _arg(args, kwargs, 4, "batch_size", 16), _noise_fingerprint(noise),
        ))
        _result_work(rec, result)
        if noise is not None:
            rec.count("sim.trials")
    return observe


def _observe_capture(digests):
    def observe(rec, args, kwargs, result, _pre):
        simulator = args[0]
        rec.fingerprint("sim.capture", (
            digests(simulator.quantized), simulator.engine, simulator.chunk_size,
            _array_digest(_arg(args, kwargs, 1, "images")),
            _arg(args, kwargs, 2, "batch_size", 8),
            _arg(args, kwargs, 3, "capacity_per_layer", 100_000),
            _arg(args, kwargs, 4, "seed", 0),
        ))
    return observe


def _observe_trial_batch(rec, args, kwargs, result, _pre) -> None:
    for trial in result:
        _result_work(rec, trial)
    rec.count("sim.trials", len(result))


def _before_reservoir(args, kwargs) -> int:
    return len(args[0])


def _observe_reservoir(rec, args, kwargs, result, retained_before) -> None:
    rec.count("sim.reservoir_values", np.size(_arg(args, kwargs, 1, "values")))
    rec.count("sim.reservoir_retained", len(args[0]) - retained_before)


def _observe_matmul(rec, args, kwargs, result, _pre) -> None:
    rec.count("crossbar.matmul_rows", np.shape(_arg(args, kwargs, 1, "input_codes"))[0])


def _observe_trials(rec, args, kwargs, result, _pre) -> None:
    shape = np.shape(_arg(args, kwargs, 1, "input_codes"))
    rec.count("crossbar.trials_rows", shape[0] * shape[1])


def _job_span(args, kwargs) -> str:
    return f"experiments.job.{getattr(_arg(args, kwargs, 0, 'job'), 'kind', 'unknown')}"


def default_targets() -> List[Target]:
    """The layer entry points the traced run times, one span name each."""
    digests = _QuantizedDigests()
    return [
        Target("workloads.prepare", "repro.workloads", "prepare_workload"),
        Target("nn.train", "repro.workloads", "train_workload_model"),
        Target("quantization.ptq", "repro.workloads", "quantize_model", _observe_ptq,
               costly=True),
        Target("quantization.ptq", "repro.quantization.ptq", "quantize_model", _observe_ptq,
               costly=True),
        Target("experiments.run_sweep", "repro.experiments.runner", "run_sweep"),
        Target(_job_span, "repro.experiments.runner", "execute_job"),
        Target("experiments.mc_group", "repro.experiments.runner", "execute_mc_group"),
        Target("experiments.store_save", "repro.experiments.store", "ResultStore.save"),
        Target("core.codesign", "repro.core.co_design", "CoDesignOptimizer.run"),
        Target("core.search", "repro.core.calibration", "TwinRangeCalibrator.calibrate"),
        Target("sim.evaluate", "repro.sim.simulator", "PimSimulator.evaluate",
               _observe_evaluate(digests), costly=True),
        Target("sim.capture", "repro.sim.simulator",
               "PimSimulator.collect_bitline_distributions",
               _observe_capture(digests), costly=True),
        Target("sim.reservoir", "repro.sim.capture", "ReservoirSampler.add",
               _observe_reservoir, before=_before_reservoir),
        Target("sim.mc", "repro.sim.simulator", "PimSimulator.run_monte_carlo"),
        Target("sim.trial_batch", "repro.sim.simulator",
               "PimSimulator.monte_carlo_trial_results", _observe_trial_batch),
        Target("crossbar.matmul", "repro.crossbar.mapping", "MappedMVMLayer.matmul",
               _observe_matmul),
        Target("crossbar.trials", "repro.crossbar.mapping", "MappedMVMLayer.matmul_trials",
               _observe_trials),
        Target("adc.gather", "repro.crossbar.mapping", "gather_levels"),
        Target("adc.gather", "repro.adc.lut", "TrialLutGather.gather"),
        Target("nonideal.bind", "repro.nonideal.stack", "NonIdealityStack.bind_mapped"),
        Target("nonideal.perturb", "repro.nonideal.stack", "LayerNoiseState.perturb_block"),
        Target("nonideal.perturb_trials", "repro.nonideal.stack",
               "TrialNoiseStates.perturb_trials"),
        Target("nn.im2col", "repro.nn.functional", "im2col"),
        Target("arch.power", "repro.arch", "compare_configurations"),
        Target("report.render", "repro.report.figures", "render_figure_outputs"),
    ]


def _wrap(recorder: SpanRecorder, target: Target, function: Callable) -> Callable:
    fixed_id = recorder.intern(target.span) if isinstance(target.span, str) else None
    observe_id = recorder.intern("trace.observe")
    name_of, observe, before, costly = target.span, target.observe, target.before, target.costly

    def wrapper(*args, **kwargs):
        pre = None
        if before is not None:
            try:
                pre = before(args, kwargs)
            except Exception:  # noqa: BLE001 - a stale hook must not fail the program
                recorder.broken.add(target.label)
        recorder.open(fixed_id if fixed_id is not None else recorder.intern(name_of(args, kwargs)))
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close()
        if observe is not None:
            if costly:
                recorder.open(observe_id)
            try:
                observe(recorder, args, kwargs, result, pre)
            except Exception:  # noqa: BLE001 - a stale observer must not fail the program
                recorder.broken.add(target.label)
            finally:
                if costly:
                    recorder.close()
        return result

    return functools.update_wrapper(wrapper, function)


@contextlib.contextmanager
def traced(recorder: SpanRecorder, targets: List[Target]) -> Iterator[List[str]]:
    """Install every resolvable target for the duration of the block.

    Yields the labels of the targets that could not be resolved (missing
    module, class or attribute); they are skipped, never fatal.
    """
    missing: List[str] = []
    restores: List[Callable[[], None]] = []
    try:
        for target in targets:
            *owner_path, name = target.attribute.split(".")
            try:
                owner = importlib.import_module(target.module)
                for part in owner_path:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                missing.append(target.label)
                continue
            own = vars(owner) if isinstance(owner, type) else None
            function = own.get(name) if own is not None else getattr(owner, name, None)
            if not callable(function):
                missing.append(target.label)
                continue
            setattr(owner, name, _wrap(recorder, target, function))
            restores.append(lambda owner=owner, name=name, function=function:
                            setattr(owner, name, function))
        yield missing
    finally:
        for restore in reversed(restores):
            restore()


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
#: Layers whose self-time share of the traced sweep is reported.
SWEEP_LAYERS = (
    "experiments", "core", "sim", "crossbar", "adc", "nonideal", "nn",
    "quantization", "arch", "report", "trace",
)


class Aggregates:
    """Read-only view of a recorder's totals over a set of phases."""

    def __init__(self, recorder: SpanRecorder, phases: Tuple[str, ...]) -> None:
        self.recorder = recorder
        self.phases = phases

    def _sum(self, table, name: str) -> float:
        return sum(table.get((phase, name), 0) for phase in self.phases)

    def calls(self, name: str) -> int:
        return int(self._sum(self.recorder.calls, name))

    def seconds(self, name: str) -> float:
        return float(self._sum(self.recorder.inclusive, name))

    def self_seconds(self, name: str) -> float:
        return float(self._sum(self.recorder.exclusive, name))

    def counter(self, name: str) -> float:
        return float(self._sum(self.recorder.counters, name))

    def distinct_ratio(self, name: str) -> float:
        calls = self.calls(name)
        seen: Set[object] = set()
        for phase in self.phases:
            seen |= self.recorder.fingerprints.get((phase, name), set())
        return len(seen) / calls if calls else 0.0

    def names(self) -> List[str]:
        return sorted({name for phase, name in self.recorder.calls if phase in self.phases})

    def layer_self_seconds(self, layer: str) -> float:
        return sum(
            self.self_seconds(name) for name in self.names()
            if name.split(".", 1)[0] == layer
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def per_layer_metrics(
    recorder: SpanRecorder,
    jobs_computed: int,
    jobs_failed: int,
    store_mb: float,
    traced_sweep_s: float,
    untraced_sweep_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json`` as ``name -> (value, unit)``.

    Preparation metrics (``workloads``, ``nn.train``, ``quantization``)
    cover setup and sweep; everything else covers the sweep only.
    """
    both = Aggregates(recorder, ("setup", "sweep"))
    sweep = Aggregates(recorder, ("sweep",))
    job_seconds = sum(
        sweep.seconds(name) for name in sweep.names()
        if name.startswith("experiments.job.") or name == "experiments.mc_group"
    )
    datapath_s = sweep.seconds("sim.evaluate") + sweep.seconds("sim.trial_batch")
    crossbar_s = sweep.seconds("crossbar.matmul") + sweep.seconds("crossbar.trials")
    rows = sweep.counter("crossbar.matmul_rows") + sweep.counter("crossbar.trials_rows")
    metrics: Dict[str, Tuple[float, str]] = {
        "workloads.prepare_s": (both.seconds("workloads.prepare"), "s"),
        "nn.train_s": (both.seconds("nn.train"), "s"),
        "quantization.ptq_calls": (both.calls("quantization.ptq"), "count"),
        "quantization.ptq_s": (both.seconds("quantization.ptq"), "s"),
        "quantization.ptq_distinct_ratio": (both.distinct_ratio("quantization.ptq"), "fraction"),
        "experiments.jobs_computed": (jobs_computed, "count"),
        "experiments.jobs_failed": (jobs_failed, "count"),
        "experiments.mc_group_calls": (sweep.calls("experiments.mc_group"), "count"),
        "experiments.store_saves": (sweep.calls("experiments.store_save"), "count"),
        "experiments.store_save_s": (sweep.seconds("experiments.store_save"), "s"),
        "experiments.store_mb": (store_mb, "MB"),
        "experiments.overhead_s": (sweep.seconds("experiments.run_sweep") - job_seconds, "s"),
        "core.codesign_calls": (sweep.calls("core.codesign"), "count"),
        "core.search_calls": (sweep.calls("core.search"), "count"),
        "sim.evaluate_calls": (sweep.calls("sim.evaluate"), "count"),
        "sim.evaluate_s": (sweep.seconds("sim.evaluate"), "s"),
        "sim.evaluate_distinct_ratio": (sweep.distinct_ratio("sim.evaluate"), "fraction"),
        "sim.capture_calls": (sweep.calls("sim.capture"), "count"),
        "sim.capture_distinct_ratio": (sweep.distinct_ratio("sim.capture"), "fraction"),
        "sim.reservoir_calls": (sweep.calls("sim.reservoir"), "count"),
        "sim.reservoir_values": (sweep.counter("sim.reservoir_values"), "count"),
        "sim.reservoir_accept_ratio": (
            _ratio(sweep.counter("sim.reservoir_retained"), sweep.counter("sim.reservoir_values")),
            "fraction",
        ),
        "sim.mc_calls": (sweep.calls("sim.mc"), "count"),
        "sim.trial_batch_calls": (sweep.calls("sim.trial_batch"), "count"),
        "sim.trials": (sweep.counter("sim.trials"), "count"),
        "sim.conversions": (sweep.counter("sim.conversions"), "count"),
        "sim.ad_operations": (sweep.counter("sim.ad_operations"), "count"),
        "sim.conversions_per_s": (_ratio(sweep.counter("sim.conversions"), datapath_s), "1/s"),
        "crossbar.matmul_calls": (sweep.calls("crossbar.matmul"), "count"),
        "crossbar.matmul_rows": (sweep.counter("crossbar.matmul_rows"), "count"),
        "crossbar.matmul_s": (sweep.seconds("crossbar.matmul"), "s"),
        "crossbar.trials_calls": (sweep.calls("crossbar.trials"), "count"),
        "crossbar.trials_rows": (sweep.counter("crossbar.trials_rows"), "count"),
        "crossbar.rows_per_s": (_ratio(rows, crossbar_s), "1/s"),
        "adc.gather_calls": (sweep.calls("adc.gather"), "count"),
        "adc.gather_s": (sweep.seconds("adc.gather"), "s"),
        "nonideal.bind_calls": (sweep.calls("nonideal.bind"), "count"),
        "nonideal.perturb_calls": (sweep.calls("nonideal.perturb"), "count"),
        "nonideal.perturb_trials_calls": (sweep.calls("nonideal.perturb_trials"), "count"),
        "nn.im2col_calls": (sweep.calls("nn.im2col"), "count"),
        "nn.im2col_s": (sweep.seconds("nn.im2col"), "s"),
        "arch.power_calls": (sweep.calls("arch.power"), "count"),
        "report.render_calls": (sweep.calls("report.render"), "count"),
        "trace.spans": (recorder.span_count, "count"),
        "trace.overhead_frac": (_ratio(traced_sweep_s, untraced_sweep_s) - 1.0, "fraction"),
    }
    for layer in SWEEP_LAYERS:
        metrics[f"{layer}.self_share"] = (
            _ratio(sweep.layer_self_seconds(layer), traced_sweep_s), "fraction"
        )
    return metrics


def timing_table(recorder: SpanRecorder, missing: List[str]) -> List[str]:
    """Human-readable per-span and per-layer timing (every phase)."""
    lines = [f"{'span':34s} {'phase':6s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}"]
    for phase in ("setup", "sweep"):
        view = Aggregates(recorder, (phase,))
        for name in view.names():
            lines.append(
                f"{name:34s} {phase:6s} {view.calls(name):9d} "
                f"{view.seconds(name):9.3f} {view.self_seconds(name):9.3f}"
            )
    lines.append("")
    lines.append(f"{'layer self time':34s} {'phase':6s} {'self_s':>9s} {'share':>9s}")
    for phase in ("setup", "sweep"):
        view = Aggregates(recorder, (phase,))
        total = view.seconds(f"bench.{phase}")
        layers = sorted({name.split(".", 1)[0] for name in view.names()})
        for layer in layers:
            seconds = view.layer_self_seconds(layer)
            lines.append(f"{layer:34s} {phase:6s} {seconds:9.3f} {_ratio(seconds, total):9.3f}")
    lines.append("")
    expected = {target.span for target in default_targets() if isinstance(target.span, str)}
    seen = {name for _, name in recorder.calls}
    for name in sorted(expected - seen):
        lines.append(f"not called: {name}")
    for label in missing:
        lines.append(f"MISSING target: {label}")
    for label in sorted(recorder.broken):
        lines.append(f"BROKEN count hook (counts incomplete): {label}")
    return lines
