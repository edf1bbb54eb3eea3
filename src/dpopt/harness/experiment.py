"""Experiment configuration, multi-seed execution, and report emission.

A sweep runs every (variant, privacy level, seed) cell of the configured
grid through optimizer.run_variant, whose VARIANTS table names the six
solvers; the harness only picks each cell's budget (zCDP for full-batch
runs, the configured mini-batch accounting otherwise).  It records per-seed
rows (status, final loss, runtime, step counts, ledger notion and spend,
budget target), and aggregates mean +- sample standard deviation per cell.
A cell is marked failed whenever any of its seeds did not converge -- such
cells print the conventional "×" marker next to their runtime.  Cells whose
budget admits no feasible noise calibration render as "NA".  Runtime is
wall-clock seconds from a monotonic clock and is hardware-specific.

Reports are emitted as a per-seed CSV (deterministic byte output,
round-trippable) or as a markdown table with one row per variant and one
loss/runtime column pair per privacy level.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ..accountant import (ApproxDp, InfeasiblePlanError, ZCdp, approx_dp_to_zcdp,
                          zcdp_to_approx_dp)
from ..mechanisms import SeededRng
from ..objective import (DENSE_HESSIAN_CAP, BatchSelector, Dataset, builtin_l2_logistic,
                         builtin_nonconvex_logistic, builtin_quartic_saddle)
from ..optimizer import (VARIANTS, AlgorithmConstants, Budget, LineSearchBudget,
                         RdpTuneBudget, ShortStepBudget, SubsampledDpBudget, Variant,
                         run_variant)
from .data import LOADER_CHOICES, check_loader_choice, load_dataset, synth_dataset

# (eps_g, eps_h) tolerance presets used by the benchmark experiments
TOLERANCE_PRESETS = {
    "covertype_loose": (0.060, 0.245),
    "covertype_tight": (0.030, 0.173),
    "ijcnn_loose": (0.040, 0.200),
    "ijcnn_tight": (0.020, 0.141),
}

# the built-in losses by config name, each built from the config and the
# dataset's feature-norm bound R and width d
LOSSES = {
    "nonconvex_logistic": lambda config, R, d: builtin_nonconvex_logistic(
        config.lambda_reg, R, d, config.weight_box),
    "l2_logistic": lambda config, R, d: builtin_l2_logistic(
        config.lambda_reg, R, d, config.weight_box),
    "quartic_saddle": lambda config, R, d: builtin_quartic_saddle(R, d, config.weight_box),
}

class ConfigError(ValueError):
    """Invalid experiment configuration."""


# what each field, or each entry of a list field, must be, since a JSON
# config may hold any type there; a JSON true is no integer
_FIELD_TYPES = {
    **dict.fromkeys(("label_column", "synth_n", "synth_d", "synth_seed", "seeds",
                     "rng_stream", "batch_size"), ("an integer", (int, np.integer))),
    **dict.fromkeys(("lambda_reg", "weight_box", "epsilons", "delta", "rhos", "budget_split"),
                    ("a number", (int, float, np.integer, np.floating))),
    **dict.fromkeys(("dataset_format", "preprocessing", "synth", "loss", "variants",
                     "minibatch_accounting"), ("a string", (str,))),
    "dataset_path": ("a path", (str, Path)),
    **dict.fromkeys(("zero_noise", "lanczos"), ("true or false", (bool,))),
}
_LISTS = ("variants", "epsilons", "rhos", "seeds")
_OPTIONAL = ("dataset_path", "synth", "rhos", "batch_size")  # None is allowed too


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: dataset x loss x variants x privacy levels x seeds."""

    # dataset: either a file or a synthetic instance
    dataset_path: str | None = None
    dataset_format: str = "csv"
    preprocessing: str = "none"
    label_column: int = -1
    synth: str | None = None
    synth_n: int = 1000
    synth_d: int = 10
    synth_seed: int = 0

    # loss
    loss: str = "nonconvex_logistic"   # a key of LOSSES
    lambda_reg: float = 1e-3
    weight_box: float = 10.0

    # algorithms and privacy
    variants: tuple[str, ...] = ("opt",)
    epsilons: tuple[float, ...] = (1.0,)
    delta: float = 1e-5
    rhos: tuple[float, ...] | None = None   # direct zCDP targets, overrides epsilons
    constants: AlgorithmConstants = field(
        default_factory=lambda: AlgorithmConstants(eps_g=0.060, eps_h=0.245))
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    rng_stream: int = 0
    batch_size: int | None = None
    minibatch_accounting: str = "rdp"       # rdp | approx_dp
    budget_split: float = 0.75
    zero_noise: bool = False
    lanczos: bool = False

    def __post_init__(self):
        for key, (what, kinds) in _FIELD_TYPES.items():
            value = getattr(self, key)
            if value is None and key in _OPTIONAL:
                continue
            for entry in value if key in _LISTS else (value,):
                if not isinstance(entry, kinds) or isinstance(entry, bool) and bool not in kinds:
                    raise ConfigError(f"{key}: {entry!r} is not {what}")
        for key in ("seeds", "epsilons", "rhos"):
            values = getattr(self, key) or ()
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} {values} repeat an entry")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; choose from {tuple(VARIANTS)}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; choose from {tuple(LOSSES)}")
        for key in LOADER_CHOICES:
            check_loader_choice(key, getattr(self, key), ConfigError)
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta {self.delta} must lie in (0, 1)")
        if (self.dataset_path is None) == (self.synth is None):
            raise ConfigError("configure exactly one of dataset_path and synth")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0 or self.rng_stream < 0:
            raise ConfigError(f"seeds {self.seeds} and rng_stream {self.rng_stream} "
                              "must be nonnegative")
        if not 0.0 < self.budget_split < 1.0:
            raise ConfigError(f"budget_split {self.budget_split} must lie in (0, 1)")
        if self.rhos is None and not self.epsilons:
            raise ConfigError("at least one privacy level is required")
        if not all(0.0 < level < math.inf for level in (*self.epsilons, *(self.rhos or ()))):
            raise ConfigError("every epsilons and rhos entry must be positive and finite")
        if not (0.0 <= self.lambda_reg < math.inf and 0.0 < self.weight_box < math.inf):
            raise ConfigError(f"need finite lambda_reg >= 0 and weight_box > 0, got "
                              f"{self.lambda_reg} and {self.weight_box}")
        if any(VARIANTS[v].minibatch for v in self.variants) and self.batch_size is None:
            raise ConfigError("mini-batch variants need batch_size")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size {self.batch_size} must be at least 1")
        if self.minibatch_accounting not in ("rdp", "approx_dp"):
            raise ConfigError("minibatch_accounting must be 'rdp' or 'approx_dp'")


@dataclass(frozen=True)
class RunRow:
    variant: str
    epsilon: float
    seed: int
    status: str
    final_loss: float
    runtime_s: float
    iters: int
    grad_steps: int
    curv_steps: int
    hess_evals: int
    notion: str           # the ledger kind: ZCdp, RdpCurve or ApproxDp
    ledger_spent: float   # the ledger's spent(delta): rho in ZCdp, else epsilon
    target: float         # the budget's claim, target.spent(delta)


# a column per RunRow field; a float is written as its repr, so it reads back exactly
CSV_COLUMNS = tuple(f.name for f in fields(RunRow))
_CSV_KINDS = tuple(get_type_hints(RunRow).values())


@dataclass(frozen=True)
class Cell:
    """Aggregate of one (variant, privacy level): mean +- std, failure marker."""

    variant: str
    epsilon: float
    loss_mean: float
    loss_std: float
    runtime_mean: float
    runtime_std: float
    failed: bool


@dataclass(frozen=True)
class AggregateReport:
    rows: tuple[RunRow, ...]
    cells: tuple[Cell, ...]
    epsilons: tuple[float, ...]
    variants: tuple[str, ...]


def build_dataset(config: ExperimentConfig) -> Dataset:
    if config.synth is not None:
        return synth_dataset(config.synth, config.synth_n, config.synth_d, config.synth_seed)
    return load_dataset(config.dataset_path, config.dataset_format,
                        config.preprocessing, config.label_column)


def _budget(config: ExperimentConfig, variant: Variant, epsilon: float, rho: float,
            n: int) -> Budget:
    """The budget of one sweep cell.

    A batch of all n rows is draw-for-draw a full-batch run, so it keeps the
    zCDP policy (the amplification bound is vacuous at sampling fraction 1).
    """
    if variant.minibatch and config.batch_size < n:
        if config.minibatch_accounting == "approx_dp":
            return SubsampledDpBudget(epsilon, config.delta, config.constants.c_f)
        return RdpTuneBudget(epsilon, config.delta, config.constants.c_f)
    policy = LineSearchBudget if variant.loop == "line_search" else ShortStepBudget
    return policy(rho, config.constants.c_f)


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Execute the sweep; per-seed failures are recorded, never raised."""
    dataset = build_dataset(config)
    # before any run, so that a sweep does not stop part way through
    if any(VARIANTS[v].minibatch for v in config.variants) and config.batch_size > dataset.n:
        raise ConfigError(f"batch_size {config.batch_size} exceeds the {dataset.n} rows "
                          "of the dataset")
    if not config.lanczos and dataset.d > DENSE_HESSIAN_CAP:
        raise ConfigError(f"d = {dataset.d} is above the dense Hessian cap "
                          f"{DENSE_HESSIAN_CAP}: use --lanczos (config key lanczos)")
    model = LOSSES[config.loss](config, dataset.feature_norm_bound, dataset.d)
    # (report key, epsilon at config.delta, rho) of each privacy level; a rho
    # level keeps rho as its key, and its mini-batch cells get its epsilon
    if config.rhos is not None:
        levels = [(rho, zcdp_to_approx_dp(ZCdp(rho), config.delta).epsilon, rho)
                  for rho in config.rhos]
    else:
        levels = [(eps, eps, approx_dp_to_zcdp(ApproxDp(eps, config.delta)).rho)
                  for eps in config.epsilons]

    rows: list[RunRow] = []
    nan = float("nan")
    noise_mode = "zero" if config.zero_noise else "standard"
    for variant in config.variants:
        kind = VARIANTS[variant]
        selector = BatchSelector(config.batch_size) if kind.minibatch else None
        for eps_label, epsilon, rho in levels:
            budget = _budget(config, kind, epsilon, rho, dataset.n)
            target = budget.target.spent(config.delta)
            for seed in config.seeds:
                start = time.perf_counter()
                try:
                    outcome = run_variant(
                        variant, model, dataset, np.zeros(dataset.d), config.constants,
                        budget, SeededRng(seed, config.rng_stream), selector=selector,
                        noise_mode=noise_mode, lanczos=config.lanczos,
                        budget_split=config.budget_split)
                except InfeasiblePlanError:
                    # no calibration meets this budget (the "NA" cells of the
                    # benchmark tables); record and keep sweeping
                    rows.append(RunRow(variant, eps_label, seed, "infeasible_plan",
                                       nan, time.perf_counter() - start,
                                       0, 0, 0, 0, "NA", nan, target))
                    continue
                runtime = time.perf_counter() - start
                rows.append(RunRow(
                    variant=variant, epsilon=eps_label, seed=seed,
                    status=outcome.status, final_loss=outcome.final_loss,
                    runtime_s=runtime, iters=outcome.iterations,
                    grad_steps=outcome.grad_steps, curv_steps=outcome.curv_steps,
                    hess_evals=outcome.hess_evals, notion=type(outcome.accounted_privacy).__name__,
                    ledger_spent=outcome.accounted_privacy.spent(config.delta), target=target))

    cells = []
    for variant in config.variants:
        for eps_label, _, _ in levels:
            group = [r for r in rows if r.variant == variant and r.epsilon == eps_label]
            losses = np.array([r.final_loss for r in group])
            times = np.array([r.runtime_s for r in group])
            std = (float(np.std(losses, ddof=1)), float(np.std(times, ddof=1))) \
                if len(group) > 1 else (0.0, 0.0)
            cells.append(Cell(
                variant=variant, epsilon=eps_label,
                loss_mean=float(np.mean(losses)), loss_std=std[0],
                runtime_mean=float(np.mean(times)), runtime_std=std[1],
                failed=any(r.status != "converged_2s" for r in group)))
    return AggregateReport(tuple(rows), tuple(cells),
                           tuple(lv[0] for lv in levels), tuple(config.variants))


# ---------------------------------------------------------------------------
# report emission


def emit_report(report: AggregateReport, fmt: str, path) -> Path:
    """Write the report to path as 'csv' (per-seed rows) or 'markdown'."""
    if not report.rows:
        raise ValueError("refusing to emit an empty report")
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in report.rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(r)])
    elif fmt == "markdown":
        with open(path, "w") as fh:
            fh.write(render_markdown(report))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


def render_markdown(report: AggregateReport) -> str:
    """Rows = variants; per privacy level a final-loss and a runtime column.

    Failed cells (any seed not converged) mark the runtime with 'x'.
    """
    eps_list = report.epsilons
    header = ["method"]
    for eps in eps_list:
        header += [f"loss (eps={eps:g})", f"runtime (eps={eps:g})"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    by_key = {(c.variant, c.epsilon): c for c in report.cells}
    for variant in report.variants:
        row = [variant]
        for eps in eps_list:
            cell = by_key[(variant, eps)]
            if np.isnan(cell.loss_mean):
                row += ["NA", "NA"]
                continue
            row.append(f"{cell.loss_mean:.3f} ± {cell.loss_std:.3f}")
            runtime = f"{cell.runtime_mean:.2f} ± {cell.runtime_std:.2f}"
            row.append(f"× ({runtime})" if cell.failed else runtime)
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def read_report_csv(path) -> tuple[RunRow, ...]:
    """Parse a CSV written by emit_report back into rows (exact round trip)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        for rec in reader:
            rows.append(RunRow(*(kind(v) for kind, v in zip(_CSV_KINDS, rec))))
    return tuple(rows)
