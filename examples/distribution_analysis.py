"""Bit-line value distribution analysis (paper Fig. 3a and Section IV-B).

Captures the analog values appearing at the crossbar bit lines of a trained
network as one exact histogram per layer, prints a text histogram, and shows
how the co-design search classifies each layer's distribution (ideal /
normal / other) — the information Algorithm 1 uses to pick its search
strategy.

Run with:  python examples/distribution_analysis.py           (full)
           python examples/distribution_analysis.py --smoke   (CI-fast)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core import histogram_values, summarize_distribution  # noqa: E402
from repro.report import ascii_bar_chart, format_table  # noqa: E402
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
    else:
        workload = prepare_workload(
            "resnet20", preset="tiny", train_size=256, test_size=64,
            calibration_images=16, seed=1,
        )
    print(f"workload: {workload.name} ({workload.preset}), "
          f"float accuracy {workload.float_accuracy:.3f}\n")

    histograms = workload.simulator.collect_bitline_distributions(
        workload.calibration.images[:8]
    )

    rows = []
    for name, histogram in histograms.items():
        summary = summarize_distribution(*histogram_values(histogram))
        rows.append({
            "layer": name,
            "type": summary.kind.value,
            "values": summary.count,
            "max": round(summary.maximum, 1),
            "mean": round(summary.mean, 2),
            "skewness": round(summary.skewness, 2),
            "mass in low 1/8": round(summary.mass_in_low_eighth, 2),
            "modes": summary.num_modes,
        })
    print("Per-layer distribution classification (Algorithm 1, line 5):")
    print(format_table(rows))

    # Histogram of one representative convolution layer, Fig. 3a style.
    name = rows[len(rows) // 2]["layer"]
    values, counts = histogram_values(histograms[name])
    binned, edges = np.histogram(values, bins=16, weights=counts)
    chart = {
        f"[{edges[i]:5.1f},{edges[i + 1]:5.1f})": int(count)
        for i, count in enumerate(binned)
    }
    print(f"\nValue histogram of layer '{name}' "
          f"({int(counts.sum())} bit-line values):")
    print(ascii_bar_chart(chart, width=50))
    print("\nThe mass concentrates near zero with a sparse tail — exactly the "
          "imbalance the paper's Twin-Range Quantization exploits.")


if __name__ == "__main__":
    main()
