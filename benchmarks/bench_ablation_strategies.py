"""Ablation ``abl-earlybird``: early-bird vs early-stopping vs both.

The paper's Section III-B describes two complementary strategies: "early
birds" (lossless fast conversions inside the dense range R1) and "early
stopping" (coarse conversions in the wide range R2).  This ablation isolates
their contributions on one workload by constraining the per-layer
configuration:

* ``early-bird only`` — R2 keeps (near) full precision, only R1 is fast;
* ``early-stop only`` — a single coarse uniform range (no R1 sweet spot);
* ``both`` (TRQ)      — the full twin-range scheme.
"""

from __future__ import annotations

from conftest import eval_image_count

from repro.adc import twin_range_config, uniform_config
from repro.core import CoDesignOptimizer, SearchSpaceConfig, TRQParams
from repro.report import ExperimentRecord, format_table


def _constrained_configs(calibration, resolution, mode):
    """Derive per-layer configs for one ablation mode from a TRQ calibration."""
    configs = {}
    for name, layer in calibration.layers.items():
        setting = layer.setting
        if setting.use_trq:
            trq = setting.trq
            if mode == "early-bird":
                params = TRQParams(n_r1=trq.n_r1, n_r2=min(resolution, 7), m=0,
                                   delta_r1=trq.delta_r1, bias=trq.bias)
                configs[name] = twin_range_config(params, resolution=resolution)
            elif mode == "early-stop":
                delta = trq.delta_r2 / (1 << (resolution - trq.n_r2))
                configs[name] = uniform_config(resolution=resolution, bits=trq.n_r2,
                                               v_grid=delta)
            else:
                configs[name] = twin_range_config(trq, resolution=resolution)
        else:
            delta = setting.uniform_delta / (1 << (resolution - setting.uniform_bits))
            configs[name] = uniform_config(resolution=resolution,
                                           bits=setting.uniform_bits, v_grid=delta)
    return configs


def test_ablation_search_strategies(benchmark, workloads, results_dir):
    name, workload = next(iter(workloads.items()))
    num_eval = eval_image_count()
    split = workload.eval_split(num_eval)

    def run():
        optimizer = CoDesignOptimizer(
            workload.model, workload.calibration.images, workload.calibration.labels,
            search_space=SearchSpaceConfig(num_v_grid_candidates=16),
        )
        base = optimizer.run(split.images, split.labels, batch_size=16,
                             use_accuracy_loop=False, initial_n_max=4)
        rows = []
        for mode in ("early-bird", "early-stop", "both"):
            configs = _constrained_configs(base.calibration, 8, mode)
            result = workload.simulator.evaluate(split.images, split.labels, configs,
                                                 batch_size=16)
            rows.append({
                "mode": mode,
                "accuracy": result.accuracy,
                "remaining_ops_fraction": result.remaining_ops_fraction,
            })
        rows.append({
            "mode": "ideal",
            "accuracy": base.baseline_accuracy,
            "remaining_ops_fraction": 1.0,
        })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record = ExperimentRecord(
        experiment_id="abl-earlybird",
        description="Contribution of the early-bird and early-stopping strategies",
        paper_reference="Section III-B: the two strategies trade power vs accuracy differently",
        rows=rows,
        metadata={"workload": name, "eval_images": num_eval},
    )
    record.save(results_dir / "ablation_strategies.json")
    print()
    print(format_table(rows))

    by_mode = {row["mode"]: row for row in rows}
    # Early-bird alone saves fewer ops than the full scheme but loses no range;
    # the combined scheme must save at least as much as either single strategy.
    assert by_mode["both"]["remaining_ops_fraction"] <= by_mode["early-bird"]["remaining_ops_fraction"] + 1e-9
    # Early stopping alone keeps the op count low but is the least accurate
    # (or at best equal) of the three on a skewed distribution.
    assert by_mode["both"]["accuracy"] >= by_mode["early-stop"]["accuracy"] - 0.05
