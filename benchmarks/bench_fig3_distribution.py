"""Experiment ``fig3a``: distribution of crossbar bit-line outputs.

Paper reference (Fig. 3a): the bit-line value distribution is highly
imbalanced — the majority of samples concentrate in a small interval close
to zero.  The capture runs as a ``distribution``-kind job per workload on
the experiment runner (store-cached, resumable, ``--jobs N``); the exact
per-layer bit-line histograms are persisted as NPZ siblings, and the
per-layer table is rebuilt from them by :mod:`repro.report.figures`.

Run::

    python benchmarks/bench_fig3_distribution.py            # full capture
    python benchmarks/bench_fig3_distribution.py --smoke    # CI seconds
"""

from __future__ import annotations

import numpy as np

from figure_shim import build_arg_parser, env_preset, env_workload_names, run_figure

from repro.core import add_histograms, histogram_values, weighted_quantile  # noqa: E402
from repro.experiments import ResultStore  # noqa: E402
from repro.experiments.presets import fig3  # noqa: E402


def _fraction_in_bottom_quarter(histogram: np.ndarray) -> float:
    values, counts = histogram_values(histogram)
    return float(counts[values <= values[-1] / 4.0].sum() / counts.sum())


def main(argv=None) -> int:
    args = build_arg_parser(__doc__).parse_args(argv)
    experiment = fig3(
        smoke=args.smoke,
        workload_names=env_workload_names() if not args.smoke else None,
        preset=env_preset(),
    )
    run = run_figure(experiment, args)

    # The reproduced claim: pooled distributions are bottom-heavy.
    store = ResultStore(args.store)
    for job, key in zip(run.sweep.expand(), run.keys):
        if not store.has(key):
            continue
        histograms = store.load_arrays(key)
        values, counts = histogram_values(add_histograms(histograms.values()))
        assert weighted_quantile(values, counts, 50) <= values[-1] / 4.0, job.workload.name
        low_mass = [_fraction_in_bottom_quarter(h) for h in histograms.values()]
        assert np.mean(np.array(low_mass) > 0.5) >= 0.6, job.workload.name
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
