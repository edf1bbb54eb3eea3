#!/usr/bin/env python3
"""Full benchmark sweep: every variant at eps in {0.2, 0.6, 1.0}, five seeds.

Mirrors the published experiment grid.  Point --data at a prepared CSV (for
the forest-cover benchmark: 54 feature columns, label last, preprocessing
preset "covertype") or fall back to the synthetic separable instance.  The
aggregated markdown table is printed and the per-seed CSV written next to it.
"""

import argparse
from pathlib import Path

from dpopt.harness import (ExperimentConfig, TOLERANCE_PRESETS, emit_report,
                           render_markdown, run_experiment)
from dpopt.optimizer import VARIANTS, AlgorithmConstants


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", help="CSV dataset path; synthetic when omitted")
    parser.add_argument("--preprocessing", default="covertype")
    parser.add_argument("--preset", default="covertype_loose",
                        choices=sorted(TOLERANCE_PRESETS))
    parser.add_argument("--batch-size", type=int, default=None,
                        help="mini-batch size; default: 1%% of the dataset")
    parser.add_argument("--epsilons", default="0.2,0.6,1.0")
    parser.add_argument("--out", default="sweep_report.csv")
    args = parser.parse_args()

    eps_g, eps_h = TOLERANCE_PRESETS[args.preset]
    synth_n = 60000
    batch = args.batch_size or (5000 if args.data else max(1, synth_n // 100))
    kwargs = dict(
        loss="nonconvex_logistic", lambda_reg=1e-3,
        variants=tuple(VARIANTS),
        epsilons=tuple(float(e) for e in args.epsilons.split(",")),
        delta=1e-5,
        constants=AlgorithmConstants(eps_g=eps_g, eps_h=eps_h),
        seeds=(0, 1, 2, 3, 4),
        batch_size=batch,
    )
    if args.data:
        config = ExperimentConfig(dataset_path=args.data,
                                  preprocessing=args.preprocessing, **kwargs)
    else:
        config = ExperimentConfig(synth="logistic_separable", synth_n=synth_n,
                                  synth_d=5, **kwargs)

    report = run_experiment(config)
    print(render_markdown(report), end="")
    emit_report(report, "csv", Path(args.out))
    print(f"per-seed rows written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
