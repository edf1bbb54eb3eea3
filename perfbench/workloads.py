"""The benchmark's workloads: inputs, set-up and solve list of each.

Every solve minimises nonconvex_logistic (lambda = 1e-3, w0 = 0) at
delta = 1e-5 through one public solver call.  The workload seed fixes the
dataset and the solver seeds; README.md says why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dpopt import harness
from dpopt.accountant import ApproxDp, approx_dp_to_zcdp
from dpopt.mechanisms import SeededRng
from dpopt.objective import BatchSelector, builtin_nonconvex_logistic
from dpopt.optimizer import (AlgorithmConstants, LineSearchBudget, RdpTuneBudget,
                             ShortStepBudget, run_line_search, run_minibatch,
                             run_short_step, run_two_phase)

LAMBDA_REG = 1e-3
DELTA = 1e-5
COVERTYPE_LOOSE = AlgorithmConstants(eps_g=0.060, eps_h=0.245)


@dataclass(frozen=True)
class Solve:
    variant: str
    epsilon: float
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    variants: tuple[str, ...]
    epsilons: tuple[float, ...]
    seeds_per_cell: int            # solver seeds per (variant, epsilon)
    dominant: tuple[str, float]    # per-layer share the workload is bound by, predicted floor
    margin: float = 0.15           # synth_dataset's row margin
    batch_size: int | None = None
    lanczos: bool = False
    via_csv: bool = False          # set-up ingests a CSV instead of synthesising

    def seeds(self, seed: int) -> tuple[int, list[int]]:
        """(data seed, solver seeds), both derived from the workload seed."""
        draw = random.Random(f"{self.name}:{seed}")
        return draw.randrange(2 ** 31), [draw.randrange(2 ** 31)
                                         for _ in range(self.seeds_per_cell)]

    def solves(self, seed: int) -> list[Solve]:
        _, solver_seeds = self.seeds(seed)
        return [Solve(v, eps, s) for s in solver_seeds
                for v in self.variants for eps in self.epsilons]

    def prepare(self, seed: int, workdir: Path):
        """Untimed input preparation: the CSV file, or the synthesis arguments."""
        data_seed, _ = self.seeds(seed)
        if not self.via_csv:
            return data_seed
        ds = harness.synth_dataset("logistic_separable", self.n, self.d, data_seed,
                                   margin=self.margin)
        path = workdir / f"{self.name}-{seed}.csv"
        np.savetxt(path, np.column_stack([ds.features, ds.labels]),
                   fmt="%.17g", delimiter=",")
        return path

    def setup(self, prepared):
        """Dataset build or ingest plus model build: what setup_s times."""
        if self.via_csv:
            dataset = harness.load_dataset(prepared, "csv")
        else:
            dataset = harness.synth_dataset("logistic_separable", self.n, self.d,
                                            prepared, margin=self.margin)
        model = builtin_nonconvex_logistic(LAMBDA_REG, dataset.feature_norm_bound,
                                           dataset.d)
        return dataset, model

    def run(self, solve: Solve, dataset, model):
        """One public solver call."""
        rng = SeededRng(solve.seed)
        w0 = np.zeros(dataset.d)
        rho = approx_dp_to_zcdp(ApproxDp(solve.epsilon, DELTA)).rho
        c_f = COVERTYPE_LOOSE.c_f
        args = (model, dataset, w0, COVERTYPE_LOOSE)
        if solve.variant == "opt":
            return run_short_step(*args, ShortStepBudget(rho, c_f), rng, lanczos=self.lanczos)
        if solve.variant == "opt_ls":
            return run_line_search(*args, LineSearchBudget(rho, c_f), rng,
                                   lanczos=self.lanczos)
        if solve.variant == "opt_b":
            return run_minibatch(*args, RdpTuneBudget(solve.epsilon, DELTA, c_f),
                                 BatchSelector(self.batch_size), rng, accounting="rdp",
                                 lanczos=self.lanczos)
        if solve.variant == "2opt":
            return run_two_phase(*args, ShortStepBudget(rho, c_f), rng, variant="short",
                                 lanczos=self.lanczos)
        if solve.variant == "2opt_ls":
            return run_two_phase(*args, LineSearchBudget(rho, c_f), rng,
                                 variant="line_search", lanczos=self.lanczos)
        if solve.variant == "2opt_b":
            return run_two_phase(*args, RdpTuneBudget(solve.epsilon, DELTA, c_f), rng,
                                 variant="minibatch", selector=BatchSelector(self.batch_size),
                                 accounting="rdp", lanczos=self.lanczos)
        raise ValueError(f"unknown variant {solve.variant!r}")


WORKLOADS = {w.name: w for w in (
    # covertype scale, full batch, dense eigen path: objective-bound
    Workload("fullbatch_covertype", n=500_000, d=54,
             variants=("opt", "opt_ls", "2opt", "2opt_ls"), epsilons=(1.0,),
             seeds_per_cell=3, dominant=("objective.solve_share", 0.9)),
    # n = 60 000, m = 600 (s = 0.01), RDP grid tuning: accountant-bound.
    # Runnable, but not listed in BENCHMARK.json: its pure-Python timings
    # spread wider than the bound allows on a shared VM (see README.md).
    # 2opt_b is left out for the reason given there too.
    Workload("minibatch_rdp", n=60_000, d=5, variants=("opt_b",),
             epsilons=(0.6, 1.0), seeds_per_cell=6, batch_size=600, via_csv=True,
             dominant=("accountant.tune_noise_plan.solve_share", 0.9)),
    # d = 600 > 512 dense cap, matrix-free Lanczos: spectral-bound
    Workload("highdim_lanczos", n=30_000, d=600, variants=("2opt", "2opt_ls"),
             epsilons=(8.0,), seeds_per_cell=8, margin=0.01, lanczos=True,
             dominant=("spectral.lanczos_min_eig.solve_share", 0.8)),
)}
