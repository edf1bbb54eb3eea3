"""Experiment configuration, multi-seed execution, and report emission.

A sweep runs every (variant, privacy level, seed) cell of the configured
grid through optimizer.run_variant, whose VARIANTS table names the six
solvers; the harness only picks each cell's budget (zCDP for full-batch
runs, the configured mini-batch accounting otherwise).  It records per-seed
rows (status, final loss, runtime, step counts, spent budget), and
aggregates mean +- sample standard deviation per cell.
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
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..accountant import (ApproxDp, InfeasiblePlanError, RdpCurve, ZCdp,
                          approx_dp_to_zcdp, rdp_to_approx_dp)
from ..mechanisms import SeededRng
from ..objective import (BatchSelector, Dataset, LossModel, builtin_l2_logistic,
                         builtin_nonconvex_logistic, builtin_quartic_saddle)
from ..optimizer import (VARIANTS, AlgorithmConstants, Budget, LineSearchBudget,
                         RdpTuneBudget, RunOutcome, ShortStepBudget, SubsampledDpBudget,
                         Variant, run_variant)
from .data import load_dataset, synth_dataset

# (eps_g, eps_h) tolerance presets used by the benchmark experiments
TOLERANCE_PRESETS = {
    "covertype_loose": (0.060, 0.245),
    "covertype_tight": (0.030, 0.173),
    "ijcnn_loose": (0.040, 0.200),
    "ijcnn_tight": (0.020, 0.141),
}

CSV_COLUMNS = ("variant", "epsilon", "seed", "status", "final_loss", "runtime_s",
               "iters", "grad_steps", "curv_steps", "hess_evals", "rho_spent")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


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
    loss: str = "nonconvex_logistic"   # nonconvex_logistic | l2_logistic | quartic_saddle
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
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; choose from {tuple(VARIANTS)}")
        if (self.dataset_path is None) == (self.synth is None):
            raise ConfigError("configure exactly one of dataset_path and synth")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.rhos is None and not self.epsilons:
            raise ConfigError("at least one privacy level is required")
        if any(VARIANTS[v].minibatch for v in self.variants) and self.batch_size is None:
            raise ConfigError("mini-batch variants need batch_size")
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
    rho_spent: float


@dataclass(frozen=True)
class Cell:
    """Aggregate of one (variant, privacy level): mean +- std, failure marker."""

    variant: str
    epsilon: float
    loss_mean: float
    loss_std: float
    runtime_mean: float
    runtime_std: float
    hess_evals_mean: float
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


def build_model(config: ExperimentConfig, dataset: Dataset) -> LossModel:
    R, d = dataset.feature_norm_bound, dataset.d
    if config.loss == "nonconvex_logistic":
        return builtin_nonconvex_logistic(config.lambda_reg, R, d, config.weight_box)
    if config.loss == "l2_logistic":
        return builtin_l2_logistic(config.lambda_reg, R, d, config.weight_box)
    if config.loss == "quartic_saddle":
        return builtin_quartic_saddle(R, d, config.weight_box)
    raise ConfigError(f"unknown loss {config.loss!r}")


def _spent_scalar(outcome: RunOutcome, delta: float) -> float:
    """Headline spent budget: rho for zCDP ledgers, epsilon otherwise."""
    acc = outcome.accounted_privacy
    if isinstance(acc, ZCdp):
        return acc.rho
    if isinstance(acc, RdpCurve):
        return rdp_to_approx_dp(acc, delta)[0].epsilon
    if isinstance(acc, ApproxDp):
        return acc.epsilon
    raise TypeError(f"unexpected ledger type {type(acc)!r}")


def _budget(config: ExperimentConfig, variant: Variant, epsilon: float, rho: float,
            n: int) -> Budget:
    """The budget of one sweep cell.

    A batch of all n rows is draw-for-draw a full-batch run, so it keeps the
    zCDP policy (the amplification bound is vacuous at sampling fraction 1).
    """
    if variant.minibatch and config.batch_size < n:
        if config.minibatch_accounting == "approx_dp":
            return SubsampledDpBudget(epsilon, config.delta)
        return RdpTuneBudget(epsilon, config.delta, config.constants.c_f)
    policy = LineSearchBudget if variant.loop == "line_search" else ShortStepBudget
    return policy(rho, config.constants.c_f)


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Execute the sweep; per-seed failures are recorded, never raised."""
    dataset = build_dataset(config)
    model = build_model(config, dataset)
    levels: list[tuple[float, float]] = []
    if config.rhos is not None:
        levels = [(rho, rho) for rho in config.rhos]  # report key is rho itself
    else:
        for eps in config.epsilons:
            levels.append((eps, approx_dp_to_zcdp(ApproxDp(eps, config.delta)).rho))

    rows: list[RunRow] = []
    nan = float("nan")
    noise_mode = "zero" if config.zero_noise else "standard"
    for variant in config.variants:
        kind = VARIANTS[variant]
        selector = BatchSelector(config.batch_size) if kind.minibatch else None
        for eps_label, rho in levels:
            budget = _budget(config, kind, eps_label, rho, dataset.n)
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
                                       0, 0, 0, 0, nan))
                    continue
                runtime = time.perf_counter() - start
                rows.append(RunRow(
                    variant=variant, epsilon=eps_label, seed=seed,
                    status=outcome.status, final_loss=outcome.final_loss,
                    runtime_s=runtime, iters=outcome.iterations,
                    grad_steps=outcome.grad_steps, curv_steps=outcome.curv_steps,
                    hess_evals=outcome.hess_evals,
                    rho_spent=_spent_scalar(outcome, config.delta)))

    cells = []
    for variant in config.variants:
        for eps_label, _rho in levels:
            group = [r for r in rows if r.variant == variant and r.epsilon == eps_label]
            losses = np.array([r.final_loss for r in group])
            times = np.array([r.runtime_s for r in group])
            hess = np.array([r.hess_evals for r in group], dtype=float)
            std = (float(np.std(losses, ddof=1)), float(np.std(times, ddof=1))) \
                if len(group) > 1 else (0.0, 0.0)
            cells.append(Cell(
                variant=variant, epsilon=eps_label,
                loss_mean=float(np.mean(losses)), loss_std=std[0],
                runtime_mean=float(np.mean(times)), runtime_std=std[1],
                hess_evals_mean=float(np.mean(hess)),
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
                writer.writerow([r.variant, repr(r.epsilon), r.seed, r.status,
                                 repr(r.final_loss), repr(r.runtime_s), r.iters,
                                 r.grad_steps, r.curv_steps, r.hess_evals,
                                 repr(r.rho_spent)])
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
            rows.append(RunRow(
                variant=rec[0], epsilon=float(rec[1]), seed=int(rec[2]),
                status=rec[3], final_loss=float(rec[4]), runtime_s=float(rec[5]),
                iters=int(rec[6]), grad_steps=int(rec[7]), curv_steps=int(rec[8]),
                hess_evals=int(rec[9]), rho_spent=float(rec[10])))
    return tuple(rows)
