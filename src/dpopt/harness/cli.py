"""Command-line entry point for experiment sweeps.

Configuration comes from an optional JSON file (--config) whose keys mirror
ExperimentConfig, with individual flags overriding file values.  The sweep
always runs every (variant, epsilon, seed) cell; per-seed failures are
recorded in the report and do not affect the exit code.  Exit status is 0
when the sweep completes and 2 on configuration or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from ..optimizer import AlgorithmConstants
from .data import LOADER_CHOICES
from .experiment import (LOSSES, TOLERANCE_PRESETS, ConfigError, ExperimentConfig,
                         emit_report, render_markdown, run_experiment)


# the flags whose value, when given, is the ExperimentConfig field of that name
_FIELD_FLAGS = ("dataset_format", "preprocessing", "loss", "lambda_reg", "delta",
                "batch_size", "synth_n", "synth_d", "zero_noise", "lanczos")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="dpopt",
        description="Run differentially private second-order optimization sweeps.")
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--dataset", help="dataset file path, or synth:<kind>")
    parser.add_argument("--dataset-format", choices=LOADER_CHOICES["dataset_format"])
    parser.add_argument("--preprocessing", choices=LOADER_CHOICES["preprocessing"])
    parser.add_argument("--loss", choices=tuple(LOSSES))
    parser.add_argument("--lambda-reg", type=float, dest="lambda_reg")
    parser.add_argument("--variant", help="comma-separated list, e.g. opt,opt_ls,2opt_ls")
    parser.add_argument("--epsilon", help="comma-separated privacy levels, e.g. 0.2,0.6,1.0")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--seeds", help="comma-separated seeds, e.g. 0,1,2,3,4")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--preset", choices=sorted(TOLERANCE_PRESETS),
                        help="named (eps_g, eps_h) tolerance preset")
    parser.add_argument("--eps-g", type=float, dest="eps_g")
    parser.add_argument("--eps-h", type=float, dest="eps_h")
    parser.add_argument("--synth-n", type=int, dest="synth_n")
    parser.add_argument("--synth-d", type=int, dest="synth_d")
    parser.add_argument("--zero-noise", action="store_true", default=None,
                        help="test mode: run with all noise set to zero")
    parser.add_argument("--lanczos", action="store_true", default=None,
                        help="estimate the smallest eigenvalue with randomized Lanczos")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("csv", "markdown"), dest="report_format")
    return parser.parse_args(argv)


def _build_config(args) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not (isinstance(raw, dict) and isinstance(raw.get("constants", {}), dict)):
            raise ConfigError(f"{args.config} must hold a JSON object, and constants one too")

    constants_kw = raw.pop("constants", {})
    if args.preset:
        constants_kw["eps_g"], constants_kw["eps_h"] = TOLERANCE_PRESETS[args.preset]
    if args.eps_g is not None:
        constants_kw["eps_g"] = args.eps_g
    if args.eps_h is not None:
        constants_kw["eps_h"] = args.eps_h
    if "eps_g" not in constants_kw or "eps_h" not in constants_kw:
        raise ConfigError("tolerances missing: set --preset, --eps-g/--eps-h, "
                          "or constants.eps_g/eps_h in the config file")

    if args.dataset:
        if args.dataset.startswith("synth:"):
            raw["synth"] = args.dataset.split(":", 1)[1]
            raw.pop("dataset_path", None)
        else:
            raw["dataset_path"] = args.dataset
            raw.pop("synth", None)
    for key in _FIELD_FLAGS:
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    if args.variant:
        raw["variants"] = tuple(args.variant.split(","))
    if args.epsilon:
        raw["epsilons"] = tuple(float(e) for e in args.epsilon.split(","))
    if args.seeds:
        raw["seeds"] = tuple(int(s) for s in args.seeds.split(","))

    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        for key in ("variants", "epsilons", "seeds", "rhos"):
            if isinstance(raw.get(key), str):  # not a tuple of its characters
                raise ConfigError(f"{key} must be a list, got the string {raw[key]!r}")
            if raw.get(key) is not None:
                raw[key] = tuple(raw[key])
        for key, value in constants_kw.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"constants.{key}: {value!r} is not a number")
        raw["constants"] = AlgorithmConstants(**constants_kw)
        return ExperimentConfig(**raw)
    except TypeError as err:  # an unknown constant, or a number where a list belongs
        raise ConfigError(f"bad config: {err}") from err


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        config = _build_config(args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config)
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(render_markdown(report), end="")
    if args.out:
        fmt = args.report_format or ("markdown" if str(args.out).endswith(".md") else "csv")
        emit_report(report, fmt, args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
