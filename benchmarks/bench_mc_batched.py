"""Benchmark the batched Monte Carlo kernel vs the per-trial loop.

``MappedMVMLayer.matmul_trials`` pushes a leading ``trials`` axis through
the fused cycle/segment kernel (see :mod:`repro.crossbar.mapping`): one
noise-perturb, one integer-LUT gather and one blocked contraction cover a
whole group of Monte Carlo trials instead of ``trials`` separate kernel
invocations.  The contract is **bit-identity** — ``results[t]`` equals the
solo ``matmul`` of trial ``t`` exactly, per-trial A/D operation totals and
region statistics included.

Three measurements are reported:

* **datapath** — per-layer ``matmul_trials`` throughput against the
  per-trial ``matmul`` loop at the regime the batching targets: tiny
  per-call row counts (``MC_ROWS = 1``, one image through an FC-sized MVM
  batch) where the per-trial loop is dominated by per-call fixed costs
  (LUT composition, gather setup, Python dispatch).  The ``MIN_SPEEDUP``
  assertion applies to the **narrow layers** (``cols <= NARROW_COLS``),
  where those fixed costs dominate; wide layers are compute-bound and
  reported without a gate.
* **per-trial datapath at the throughput chunk** — for each stack of
  ``KERNEL_STACKS`` (the perfbench static pair, which folds into the
  column tables, and read noise, which converts in the kernel), one
  trial's ``matmul`` over every layer at
  :func:`~repro.sim.pim_layer.throughput_chunk_size` rows, with fresh
  noise states as a Monte Carlo trial binds them.  Reported, not gated.
* **end-to-end** — ``PimSimulator.run_monte_carlo`` with ``trial_batch=1``
  (the per-trial loop: groups of one through the same kernel) vs
  ``trial_batch=TRIALS``, asserting **byte
  identical** Monte Carlo artifacts (trial accuracies, flip rates, summary
  statistics and per-layer robustness stats) for ``NOISE_SPEC`` and every
  stack of ``KERNEL_STACKS``, plus a lenient wall-time sanity bound on
  ``NOISE_SPEC`` — the full pipeline includes engine-independent overhead
  (im2col, forward plumbing), so its speedup is small and noisy and is
  reported, not gated.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Dict, List

import numpy as np
import pytest

from conftest import RESULTS_DIR

from repro.adc import build_adc, twin_range_config
from repro.core import TRQParams
from repro.datasets import build_dataset
from repro.nn.models import build_model
from repro.nonideal.stack import NonIdealityStack, TrialNoiseStates
from repro.quantization import quantize_model
from repro.quantization.ptq import find_mvm_layers
from repro.sim import PimSimulator
from repro.sim.pim_layer import PimBackend, throughput_chunk_size

#: Required wall-clock advantage of the batched kernel on narrow layers.
MIN_SPEEDUP = 5.0

#: Monte Carlo trials per batched kernel invocation.
TRIALS = 16

#: MVM rows per kernel call — the overhead-bound small-batch regime the
#: batching targets (one image through a fully connected layer).
MC_ROWS = 1

#: Layers with at most this many bit-line columns are gated; wider layers
#: are compute-bound (the contraction dominates) and only reported.
NARROW_COLS = 128

#: Twin-range configuration applied to every layer.
TRQ_PARAMS = TRQParams(n_r1=2, n_r2=5, m=3, delta_r1=1.0, bias=0)

#: The noise stack of the Monte Carlo runs: quantized conductance variation
#: keeps the fast engine on its integer-LUT path (the batched kernel's
#: primary target) while still exercising per-trial static device state.
NOISE_SPEC = [{"model": "conductance_variation", "sigma": 0.08, "quantize": True}]

#: Stacks timed per trial at the throughput chunk and checked byte-identical
#: end to end: the perfbench static pair (column tables) and read noise
#: (drawn, clamped and converted inside the kernel).
KERNEL_STACKS = {
    "variation_0.08+stuck_on_1e-3": [
        {"model": "conductance_variation", "sigma": 0.08, "quantize": True},
        {"model": "stuck_at_faults", "rate_on": 1e-3},
    ],
    "read_noise_0.5": [{"model": "gaussian_read_noise", "sigma": 0.5}],
}

#: Trials per timed throughput-chunk loop (the reported time is per trial).
THROUGHPUT_TRIALS = 2

#: End-to-end wall-time sanity bound: the batched path must never be a
#: regression beyond measurement noise (its end-to-end advantage is real
#: but small, so this is a guard rail, not the perf gate).
MAX_END_TO_END_RATIO = 1.5


def _best_of(callable_, repeats: int = 5) -> float:
    """Minimum wall-clock over ``repeats`` runs (noise-robust on shared VMs)."""
    callable_()  # warm-up: LUT/gather caches, scratch buffers, BLAS paths
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def lenet_tiny_quantized():
    """A tiny-preset LeNet-5, quantized on synthetic MNIST calibration."""
    dataset = build_dataset("mnist", train_size=64, test_size=32, seed=0)
    model = build_model("lenet5", preset="tiny", num_classes=dataset.num_classes, rng=0)
    model.eval()
    quantized = quantize_model(model, dataset.train.images[:32])
    return dataset, quantized


def _mc_payload_fingerprint(result) -> str:
    """Canonical byte-level fingerprint of a Monte Carlo artifact."""
    return json.dumps(
        {
            "summary": result.summary(),
            "accuracies": result.accuracies.tobytes().hex(),
            "flip_rates": result.flip_rates.tobytes().hex(),
            "layer_stats": {
                name: dataclasses.asdict(stats)
                for name, stats in result.layer_stats.items()
            },
        },
        sort_keys=True,
    )


def test_mc_batched_speedup_and_byte_identity(benchmark, lenet_tiny_quantized, results_dir):
    dataset, quantized = lenet_tiny_quantized
    rng = np.random.default_rng(0)
    config = twin_range_config(TRQ_PARAMS)
    names = [name for name, _ in find_mvm_layers(quantized.model)]
    configs = {name: config for name in names}

    # ------------------------------------------------------------------ #
    # datapath: matmul_trials vs the per-trial matmul loop at MC_ROWS
    # ------------------------------------------------------------------ #
    backend = PimBackend(quantized, adc_configs=configs)
    base_stack = NonIdealityStack(NOISE_SPEC, seed=5)
    trial_stacks = [base_stack.derive_trial(3, t) for t in range(TRIALS)]

    per_layer = {}
    narrow_total = {"loop": 0.0, "batched": 0.0}
    for name in names:
        lq = quantized.layer(name)
        kind = "conv" if lq.weight_codes.ndim == 4 else "linear"
        mapped = backend._mapped_layer(name, kind)
        cols = 2 * mapped.num_weight_planes * mapped.out_features
        max_code = (1 << mapped.num_input_cycles) - 1
        # Distinct per-trial activation codes: the general (conservative)
        # case — inside a real MC run the trials' activations diverge after
        # the first noisy layer.
        tiled = rng.integers(
            0, max_code + 1, size=(TRIALS, MC_ROWS, mapped.in_features)
        )

        loop_states = [stack.bind_mapped(name, mapped) for stack in trial_stacks]
        loop_adcs = [build_adc(config) for _ in range(TRIALS)]
        batched_noise = TrialNoiseStates(
            [stack.bind_mapped(name, mapped) for stack in trial_stacks]
        )
        shared_lut_cache: Dict[object, object] = {}
        batched_adcs = []
        for _ in range(TRIALS):
            adc = build_adc(config)
            if hasattr(adc, "transfer_lut"):
                adc._lut_cache = shared_lut_cache
            batched_adcs.append(adc)

        def run_loop() -> tuple:
            outputs: List[np.ndarray] = []
            ops = 0
            for t in range(TRIALS):
                loop_states[t].next_chunk()
                merged, trial_ops = mapped.matmul(
                    tiled[t], adc=loop_adcs[t], engine="fast", noise=loop_states[t]
                )
                outputs.append(merged)
                ops += trial_ops
            mapped.release_scratch()
            return outputs, ops

        def run_batched() -> tuple:
            batched_noise.next_chunk()
            merged, ops = mapped.matmul_trials(
                tiled, batched_adcs, batched_noise, engine="fast"
            )
            mapped.release_scratch()
            return merged, ops

        ref_out, ref_ops = run_loop()
        got_out, got_ops = run_batched()
        assert ref_ops == sum(got_ops), f"{name}: operation totals diverge"
        for t in range(TRIALS):
            assert np.array_equal(ref_out[t], got_out[t]), (
                f"{name}: trial {t} outputs not bit-identical"
            )

        loop_time = _best_of(run_loop)
        batched_time = _best_of(run_batched)
        narrow = cols <= NARROW_COLS
        per_layer[name] = {
            "cols": cols,
            "rows": MC_ROWS,
            "narrow": narrow,
            "loop_s": loop_time,
            "batched_s": batched_time,
            "speedup": loop_time / batched_time,
        }
        if narrow:
            narrow_total["loop"] += loop_time
            narrow_total["batched"] += batched_time

    assert narrow_total["batched"] > 0.0, (
        f"no layer with cols <= {NARROW_COLS}: the gate set is empty"
    )
    speedup = narrow_total["loop"] / narrow_total["batched"]

    # ------------------------------------------------------------------ #
    # per-trial datapath of each kernel stack at the throughput chunk
    # ------------------------------------------------------------------ #
    throughput: Dict[str, Dict[str, float]] = {}
    for label, specs in KERNEL_STACKS.items():
        stacks = [NonIdealityStack(specs, seed=5).derive_trial(3, t)
                  for t in range(THROUGHPUT_TRIALS)]
        per_layer_s: Dict[str, float] = {}
        for name in names:
            lq = quantized.layer(name)
            kind = "conv" if lq.weight_codes.ndim == 4 else "linear"
            mapped = backend._mapped_layer(name, kind)
            cols = 2 * mapped.num_weight_planes * mapped.out_features
            rows = throughput_chunk_size(mapped.num_input_cycles, cols)
            max_code = (1 << mapped.num_input_cycles) - 1
            codes = rng.integers(0, max_code + 1, size=(rows, mapped.in_features))

            def run_trials() -> None:
                for stack in stacks:
                    # A fresh binding per trial, as each Monte Carlo trial
                    # binds its own device: per-run setup is included.
                    state = stack.bind_mapped(name, mapped).next_chunk()
                    mapped.matmul(codes, adc=build_adc(config), engine="fast", noise=state)
                mapped.release_scratch()

            per_layer_s[name] = _best_of(run_trials, repeats=3) / THROUGHPUT_TRIALS
        throughput[label] = {"per_trial_s": sum(per_layer_s.values()), "per_layer_s": per_layer_s}

    # ------------------------------------------------------------------ #
    # end-to-end: run_monte_carlo trial_batch=1 (per-trial loop) vs TRIALS
    # ------------------------------------------------------------------ #
    images = dataset.test.images[:8]
    labels = dataset.test.labels[:8]
    simulator = PimSimulator(quantized, engine="fast")
    stack = NonIdealityStack(NOISE_SPEC, seed=5)
    end_to_end: Dict[str, object] = {}
    for label, trial_batch in (("loop", 1), ("batched", TRIALS)):
        start = time.perf_counter()
        end_to_end[label] = simulator.run_monte_carlo(
            images,
            labels,
            stack,
            configs,
            trials=TRIALS,
            batch_size=8,
            seed=3,
            trial_batch=trial_batch,
        )
        end_to_end[label + "_s"] = time.perf_counter() - start
    fingerprint_loop = _mc_payload_fingerprint(end_to_end["loop"])
    fingerprint_batched = _mc_payload_fingerprint(end_to_end["batched"])
    assert fingerprint_loop == fingerprint_batched, (
        "batched Monte Carlo artifact is not byte-identical to the "
        "per-trial loop"
    )
    for label, specs in KERNEL_STACKS.items():
        loop, batched = (
            simulator.run_monte_carlo(
                images, labels, NonIdealityStack(specs, seed=5), configs,
                trials=TRIALS, batch_size=8, seed=3, trial_batch=trial_batch,
            )
            for trial_batch in (1, TRIALS)
        )
        assert _mc_payload_fingerprint(loop) == _mc_payload_fingerprint(batched), (
            f"{label}: batched Monte Carlo artifact is not byte-identical to "
            "the per-trial loop"
        )
    end_to_end_ratio = end_to_end["batched_s"] / end_to_end["loop_s"]
    assert end_to_end_ratio <= MAX_END_TO_END_RATIO, (
        f"batched end-to-end wall time is {end_to_end_ratio:.2f}x the "
        f"per-trial loop (sanity bound {MAX_END_TO_END_RATIO}x)"
    )

    # Register the gated speedup with the benchmark harness for the report.
    benchmark.pedantic(lambda: None, setup=None, rounds=1, iterations=1)
    benchmark.extra_info["mc_batched_speedup"] = speedup

    record = {
        "experiment": "mc_batched",
        "trials": TRIALS,
        "rows": MC_ROWS,
        "narrow_cols": NARROW_COLS,
        "noise": NOISE_SPEC,
        "per_layer": per_layer,
        "datapath": {
            "loop_s": narrow_total["loop"],
            "batched_s": narrow_total["batched"],
            "speedup": speedup,
        },
        "throughput_chunk": throughput,
        "end_to_end": {
            "loop_s": end_to_end["loop_s"],
            "batched_s": end_to_end["batched_s"],
            "speedup": end_to_end["loop_s"] / end_to_end["batched_s"],
            "byte_identical": True,
            "byte_identical_stacks": sorted(KERNEL_STACKS),
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(results_dir / "mc_batched.json", "w") as handle:
        json.dump(record, handle, indent=2)

    print()
    for name, row in per_layer.items():
        tag = "narrow" if row["narrow"] else "wide  "
        print(f"  {name:14s} {tag} cols={row['cols']:5d} "
              f"loop {row['loop_s']*1e3:8.2f} ms   "
              f"batched {row['batched_s']*1e3:8.2f} ms   {row['speedup']:5.2f}x")
    print(f"  {'narrow datapath':21s} loop {narrow_total['loop']*1e3:8.2f} ms   "
          f"batched {narrow_total['batched']*1e3:8.2f} ms   {speedup:5.2f}x")
    print("  per-trial datapath at the throughput chunk (fresh noise states):")
    for label, row in throughput.items():
        print(f"    {label:30s} {row['per_trial_s']*1e3:9.2f} ms per trial")
    print(f"  end-to-end speedup {record['end_to_end']['speedup']:.2f}x "
          f"(includes engine-independent forward overhead; reported, not gated)")

    assert speedup >= MIN_SPEEDUP, (
        f"batched Monte Carlo narrow-layer speedup {speedup:.2f}x is below "
        f"the required {MIN_SPEEDUP}x at {TRIALS} trials"
    )
