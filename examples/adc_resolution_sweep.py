"""Accuracy vs ADC sensing precision, uniform vs TRQ (paper Fig. 6a/6b).

For one workload, sweeps the ADC sensing precision from 8 down to 3 bits and
compares the conventional uniform SAR ADC against the calibrated Twin-Range
configuration at the same bit budget.

Run with:  python examples/adc_resolution_sweep.py           (full)
           python examples/adc_resolution_sweep.py --smoke   (CI-fast)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import CoDesignOptimizer, SearchSpaceConfig, uniform_adc_configs  # noqa: E402
from repro.report import format_table  # noqa: E402
from repro.workloads import prepare_workload  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets for CI")
    args = parser.parse_args()

    if args.smoke:
        workload = prepare_workload(
            "lenet5", preset="tiny", train_size=128, test_size=32,
            calibration_images=16, epochs=6, seed=0,
            # Shared with benchmarks/ so CI's smoke steps train the workload once.
            cache_dir=str(Path(__file__).resolve().parent.parent / "benchmarks" / ".cache"),
        )
        eval_images, v_grid_candidates, bits_list = 16, 4, (8, 4)
    else:
        workload = prepare_workload(
            "lenet5", preset="small", train_size=384, test_size=128,
            calibration_images=32, seed=0,
        )
        eval_images, v_grid_candidates, bits_list = 96, 16, (8, 7, 6, 5, 4, 3)
    eval_split = workload.eval_split(eval_images)
    images, labels = eval_split.images, eval_split.labels
    simulator = workload.simulator

    ideal = simulator.evaluate(images, labels, None, batch_size=16)
    histograms = simulator.collect_bitline_distributions(workload.calibration.images[:16])
    optimizer = CoDesignOptimizer(
        workload.model, workload.calibration.images, workload.calibration.labels,
        search_space=SearchSpaceConfig(num_v_grid_candidates=v_grid_candidates),
        quantized=workload.quantized,
    )
    # Every sensing precision searches the same capture of the calibration set.
    calibration_histograms = optimizer.collect_distributions()

    rows = [{
        "ADC bits": "ideal", "uniform acc": round(ideal.accuracy, 3),
        "TRQ acc": round(ideal.accuracy, 3), "uniform ops/conv": 8.0, "TRQ ops/conv": 8.0,
    }]
    for bits in bits_list:
        uniform = simulator.evaluate(
            images, labels, uniform_adc_configs(histograms, bits=bits), batch_size=16
        )
        trq = optimizer.run(images, labels, batch_size=16,
                            use_accuracy_loop=False, initial_n_max=bits,
                            layer_histograms=calibration_histograms,
                            baseline_accuracy=ideal.accuracy)
        rows.append({
            "ADC bits": bits,
            "uniform acc": round(uniform.accuracy, 3),
            "TRQ acc": round(trq.final_accuracy, 3),
            "uniform ops/conv": round(uniform.total_operations / uniform.total_conversions, 2),
            "TRQ ops/conv": round(
                trq.evaluation_summary["mean_ops_per_conversion"], 2
            ),
        })

    print(f"workload: {workload.name}, float accuracy {workload.float_accuracy:.3f}")
    print(format_table(rows))
    print(
        "\nExpected shape (paper Fig. 6): the uniform ADC loses accuracy as the "
        "sensing precision drops, while TRQ holds accuracy close to the ideal "
        "reference down to ~4 bits at a lower average A/D-operation count."
    )


if __name__ == "__main__":
    main()
