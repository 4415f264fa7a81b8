"""Quickstart: run the full algorithm-hardware co-design pipeline on one model.

This script walks through exactly what the paper proposes, end to end:

1. train a small CNN on a synthetic dataset (stand-in for a pretrained model),
2. post-training quantize it to the 8-bit PIM datapath,
3. simulate inference on the ReRAM crossbar + SAR-ADC accelerator,
4. calibrate the Twin-Range Quantization parameters per layer (Algorithm 1),
5. compare accuracy and A/D-operation counts against the uniform-ADC baseline.

Run with:  python examples/quickstart.py           (full)
           python examples/quickstart.py --smoke   (CI-fast)
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

    print("=== 1. Prepare workload (train LeNet-5 on synthetic MNIST) ===")
    if args.smoke:
        workload = prepare_workload(
            "lenet5", preset="tiny", train_size=128, test_size=32,
            calibration_images=16, epochs=6, seed=0,
            # Shared with benchmarks/ so CI's smoke steps train the workload once.
            cache_dir=str(Path(__file__).resolve().parent.parent / "benchmarks" / ".cache"),
        )
        eval_images, v_grid_candidates = 16, 4
    else:
        workload = prepare_workload(
            "lenet5", preset="small", train_size=384, test_size=128,
            calibration_images=32, seed=0,
        )
        eval_images, v_grid_candidates = 96, 20
    print(f"float accuracy: {workload.float_accuracy:.3f}")

    eval_split = workload.eval_split(eval_images)
    images, labels = eval_split.images, eval_split.labels
    simulator = workload.simulator

    print("\n=== 2. Ideal-conversion reference (8-bit PTQ, lossless ADC) ===")
    baseline = simulator.evaluate(images, labels, adc_configs=None, batch_size=16)
    print(f"accuracy: {baseline.accuracy:.3f}  "
          f"A/D conversions per image: {baseline.total_conversions // baseline.num_images}")

    print("\n=== 3. Uniform low-resolution ADC baseline ===")
    # One exact bit-line histogram per layer; its largest value sets each
    # uniform ADC's full scale.
    histograms = simulator.collect_bitline_distributions(workload.calibration.images[:16])
    rows = []
    for bits in (8, 6, 4):
        result = simulator.evaluate(
            images, labels, uniform_adc_configs(histograms, bits=bits), batch_size=16
        )
        rows.append({"config": f"uniform {bits}b", "accuracy": result.accuracy,
                     "remaining A/D ops": result.remaining_ops_fraction})
    print(format_table(rows))

    print("\n=== 4. Twin-Range Quantization co-design (Algorithm 1) ===")
    optimizer = CoDesignOptimizer(
        workload.model,
        workload.calibration.images,
        workload.calibration.labels,
        search_space=SearchSpaceConfig(num_v_grid_candidates=v_grid_candidates),
        accuracy_threshold=0.02,
    )
    result = optimizer.run(images, labels, batch_size=16,
                           use_accuracy_loop=False, initial_n_max=4)

    print(f"TRQ accuracy:          {result.final_accuracy:.3f} "
          f"(ideal {result.baseline_accuracy:.3f})")
    print(f"remaining A/D ops:     {result.remaining_ops_fraction:.2%}")
    print(f"A/D energy reduction:  {result.ops_reduction_factor:.2f}x")

    print("\nPer-layer decisions:")
    layer_rows = []
    for name, layer in result.calibration.layers.items():
        setting = layer.setting
        layer_rows.append({
            "layer": name,
            "distribution": layer.summary.kind.value,
            "bit-line values": layer.summary.count,
            "scheme": "TRQ" if setting.use_trq else f"uniform {setting.uniform_bits}b",
            "NR1": setting.trq.n_r1 if setting.use_trq else "-",
            "NR2": setting.trq.n_r2 if setting.use_trq else "-",
            "M": setting.trq.m if setting.use_trq else "-",
            "mean ops/conv": round(layer.predicted_mean_ops, 2),
        })
    print(format_table(layer_rows))


if __name__ == "__main__":
    main()
