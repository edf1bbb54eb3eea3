"""The optimization loops: short step, SVT line search, mini-batch, two-phase.

All variants share one skeleton.  Each iteration perturbs the (mini-batch)
gradient with Gaussian noise scaled by its sensitivity; while the noisy
gradient norm exceeds eps_g the iterate moves along the negative noisy
gradient.  Otherwise a symmetric Gaussian matrix perturbs the Hessian and
the smallest noisy eigenpair decides between a negative-curvature step and
termination.  Step sizes are either the conservative fixed choices
gamma_g = 1/G, gamma_H = 2 |lambda| / M, or are found by a private
backtracking line search falling back to gamma_bar_g = 2(1 - c1 - c_g)/G and
gamma_bar_H = t2 |lambda| / M.

The six public solvers differ only in loop kind, accepted budgets,
batching and phasing; VARIANTS holds one row per name, and run_variant runs
any of them.  run_short_step ("opt"), run_line_search ("opt_ls"),
run_minibatch ("opt_b") and run_two_phase ("2opt", "2opt_ls", "2opt_b") are
its named entry points.

Noise-plan finalization is two-staged, matching the data-dependent budget:
sigma_f is fixed by the budget policy alone, the perturbed initial loss
fixes the iteration budget T, and only then are sigma_g, sigma_h (and the
SVT lambda) calibrated to T.  Runs therefore accept either a budget policy
(calibrated here) or a ready NoisePlan (used as given); both answer the
same budget protocol (sigma_f, plan, scaled, accounting), so the loop
never asks which one it has.

Per-iteration draw order is fixed and documented: batch indices, gradient
noise, Hessian child stream, Lanczos start vectors, SVT threshold and
probe noise.  Identical (seed, config, dataset) reproduce bit-identical
traces.

Accounting charges follow the published per-run formulas: every iteration
pays one gradient draw, Hessian-drawing iterations (curvature steps and the
terminal check) pay the Hessian draw, and in line-search mode every
iteration pays one SVT sweep -- which over-counts the terminal check's
missing sweep by 1/(2 lambda^2), a deliberate conservative choice.  Runs
aborted by a weight-box violation, or by a non-finite noisy gradient norm
or noisy eigenvalue, report status "failed_termination" with a warning that
says why, and still charge the partially completed iteration.

One run owns one SeededRng stream and its ledger; runs with independent
streams may execute concurrently without shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Union

import numpy as np

from ..accountant import (ApproxDp, NoisePlan, ZCdp, account_run,
                          account_subsampled_dp, approx_dp_to_zcdp, compose,
                          plan_line_search, plan_short_step, plan_subsampled_dp,
                          tune_noise_plan)
from ..mechanisms import SeededRng, WignerOperator, gaussian, gaussian_vector
from ..objective import (DENSE_HESSIAN_CAP, BatchSelector, Dataset, LossModel,
                         MarginMemo, WeightBoxError, erm_gradient, erm_hessian,
                         erm_hvp, erm_value, min_batch_size, sensitivities)
from ..spectral import decide_curvature, lanczos_min_eig, min_eigenpair_dense, orient
from .constants import AlgorithmConstants, derive_constants
from .svt import dp_line_search


class _NonFiniteRelease(RuntimeError):
    """A released quantity (noisy gradient norm, noisy Hessian or its
    eigenvalue) is NaN or infinite, so no step or stopping rule applies."""


def _require_finite(value, what: str, k: int):
    if not np.all(np.isfinite(value)):
        raise _NonFiniteRelease(f"non-finite {what} at iteration {k}; run aborted")
    return value


# ---------------------------------------------------------------------------
# budgets
#
# A budget is a NoisePlan, used as given, or one of the four policies below,
# which calibrate a plan once T is known.  Each has:
#   sigma_f               the initial-loss multiplier, fixed before T;
#   plan(t_budget, s)     the NoisePlan for T iterations at sampling fraction s;
#   scaled(fraction)      the same policy with that fraction of the target,
#                         for one phase of a two-phase run;
#   accounting            its default ledger notion, "zcdp", "rdp" or
#                         "approx_dp"; a subsampled run of a zCDP budget
#                         accounts in RDP, since zCDP has no amplification bound.


@dataclass(frozen=True)
class ShortStepBudget:
    """rho-zCDP target for the short-step variant; c_f is the fraction spent
    on the initial loss perturbation."""

    rho: float
    c_f: float = 0.1
    accounting: ClassVar[str] = "zcdp"

    @property
    def sigma_f(self) -> float:
        return math.sqrt(1.0 / (2.0 * self.c_f * self.rho))

    def plan(self, t_budget: int, s: float) -> NoisePlan:
        return plan_short_step(ZCdp(self.rho), self.c_f, t_budget)

    def scaled(self, fraction: float) -> ShortStepBudget:
        return replace(self, rho=self.rho * fraction)


@dataclass(frozen=True)
class LineSearchBudget:
    """rho-zCDP target for the line-search variant; rho_f = rho_f_fraction * rho."""

    rho: float
    rho_f_fraction: float = 0.1
    accounting: ClassVar[str] = "zcdp"

    @property
    def rho_f(self) -> float:
        return self.rho_f_fraction * self.rho

    @property
    def sigma_f(self) -> float:
        return math.sqrt(1.0 / (2.0 * self.rho_f))

    def plan(self, t_budget: int, s: float) -> NoisePlan:
        return plan_line_search(ZCdp(self.rho), self.rho_f, t_budget)

    def scaled(self, fraction: float) -> LineSearchBudget:
        return replace(self, rho=self.rho * fraction)


@dataclass(frozen=True)
class SubsampledDpBudget:
    """(epsilon, delta)-DP target for the mini-batch variant, accounted by
    advanced composition; (eps_f, delta_f) fractions go to the initial loss."""

    epsilon: float
    delta: float
    eps_f_fraction: float = 0.1
    delta_f_fraction: float = 0.1
    accounting: ClassVar[str] = "approx_dp"

    @property
    def target(self) -> ApproxDp:
        return ApproxDp(self.epsilon, self.delta)

    @property
    def eps_f(self) -> float:
        return self.eps_f_fraction * self.epsilon

    @property
    def delta_f(self) -> float:
        return self.delta_f_fraction * self.delta

    @property
    def sigma_f(self) -> float:
        return math.sqrt(2.0 * math.log(1.25 / self.delta_f)) / self.eps_f

    def plan(self, t_budget: int, s: float) -> NoisePlan:
        return plan_subsampled_dp(self.target, self.eps_f, self.delta_f, s, t_budget)

    def scaled(self, fraction: float) -> SubsampledDpBudget:
        return replace(self, epsilon=self.epsilon * fraction, delta=self.delta * fraction)


@dataclass(frozen=True)
class RdpTuneBudget:
    """(epsilon, delta)-DP target for the mini-batch variant, accounted on the
    subsampled RDP curve with grid-tuned multipliers.

    sigma_f must be fixed before T is known, so it is pre-committed from the
    zCDP-equivalent budget (fraction c_f); the grid search then tunes only
    the per-iteration multipliers.
    """

    epsilon: float
    delta: float
    c_f: float = 0.1
    sigma_grid: tuple[float, ...] | None = None
    accounting: ClassVar[str] = "rdp"

    @property
    def target(self) -> ApproxDp:
        return ApproxDp(self.epsilon, self.delta)

    @property
    def sigma_f(self) -> float:
        rho = approx_dp_to_zcdp(self.target).rho
        return math.sqrt(1.0 / (2.0 * self.c_f * rho))

    def plan(self, t_budget: int, s: float) -> NoisePlan:
        return tune_noise_plan(self.target, s, t_budget, sigma_grid=self.sigma_grid,
                               sigma_f_grid=np.array([self.sigma_f]))

    def scaled(self, fraction: float) -> RdpTuneBudget:
        return replace(self, epsilon=self.epsilon * fraction, delta=self.delta * fraction)


Budget = Union[NoisePlan, ShortStepBudget, LineSearchBudget, SubsampledDpBudget, RdpTuneBudget]


# ---------------------------------------------------------------------------
# run records


@dataclass(frozen=True)
class StepRecord:
    """One iteration of the trace; lambda_noisy is set iff a Hessian was drawn."""

    k: int
    kind: str                     # "gradient" | "negative_curvature" | "terminate"
    step_size: float | None
    loss_before: float
    loss_after: float | None
    grad_norm_noisy: float
    lambda_noisy: float | None
    probes: int                   # line-search probes (0 for short steps)
    rho_increment: float | None   # zCDP charge of the iteration (None in RDP/DP modes)


@dataclass(frozen=True, eq=False)
class RunOutcome:
    status: str                   # "converged_2s" | "budget_exhausted" | "failed_termination"
    w_final: np.ndarray
    trace: tuple[StepRecord, ...]
    accounted_privacy: object     # ZCdp | RdpCurve | ApproxDp
    plan: NoisePlan
    t_budget: int
    mode: str                     # accounting mode used
    z_draw: float
    final_loss: float
    warnings: tuple[str, ...] = ()
    phases: tuple["RunOutcome", ...] = ()

    @property
    def converged(self) -> bool:
        return self.status == "converged_2s"

    @property
    def grad_steps(self) -> int:
        return sum(1 for r in self.trace if r.kind == "gradient")

    @property
    def curv_steps(self) -> int:
        return sum(1 for r in self.trace if r.kind == "negative_curvature")

    @property
    def hess_evals(self) -> int:
        return sum(1 for r in self.trace if r.lambda_noisy is not None)

    @property
    def iterations(self) -> int:
        return len(self.trace)


# ---------------------------------------------------------------------------
# noise source


class _NoiseSource:
    """Draws per-iteration noise in the documented order.

    mode "standard" draws from the plan; "zero" returns exact quantities
    (the sigma = 0 test mode behind --zero-noise).
    """

    def __init__(self, plan: NoisePlan, sens, rng: SeededRng, mode: str):
        if mode not in ("standard", "zero"):
            raise ValueError(f"unknown noise mode {mode!r}")
        zero = mode == "zero"
        self.grad_scale = 0.0 if zero else sens.delta_g * plan.sigma_g
        self.hess_scale = 0.0 if zero else sens.delta_h * plan.sigma_h
        self.rng = rng

    def grad_noise(self, d: int) -> np.ndarray:
        if self.grad_scale == 0.0:
            return np.zeros(d)
        return gaussian_vector(d, self.grad_scale, self.rng)

    def hessian_operator(self, d: int) -> WignerOperator:
        return WignerOperator(d, self.hess_scale, self.rng.child())


# ---------------------------------------------------------------------------
# core loop


def _run_core(loop: str, model: LossModel, dataset: Dataset, w0: np.ndarray,
              constants: AlgorithmConstants, budget: Budget, rng: SeededRng, *,
              selector: BatchSelector | None = None, accounting: str | None = None,
              noise_mode: str = "standard", lanczos: bool = False,
              dense_cap: int = DENSE_HESSIAN_CAP,
              t_policy: Callable[[int], int] | None = None,
              memo: MarginMemo | None = None) -> RunOutcome:
    n, d = dataset.n, dataset.d
    selector = selector or BatchSelector()
    m = selector.batch_size(n)
    s = m / n
    line_search = loop == "line_search"
    if line_search and m != n:
        raise ValueError("the line-search variant runs full batch only")
    sens_full = sensitivities(model, n, d)
    sens_batch = sensitivities(model, m, d)
    warnings_acc: list[str] = []

    w = np.asarray(w0, dtype=float).copy()
    if w.shape != (d,):
        raise ValueError(f"w0 must have shape ({d},)")

    # one pass over X per (iterate, batch): the loss at w also makes the
    # gradient at w, the curvature reuses its margins, and an accepted
    # line-search probe's point is bit-identical to the next iterate
    if memo is None:
        memo = MarginMemo(model, dataset)

    # stage 1: perturb the initial loss, fix T, then calibrate the plan
    f0 = erm_value(model, dataset, w, memo=memo)
    z = 0.0 if noise_mode == "zero" else gaussian(sens_full.delta_f * budget.sigma_f, rng)
    derived = derive_constants(constants, model, loop, f0 + abs(z))
    t_est = derived.t_budget
    t_used = max(1, min(t_est, t_policy(t_est))) if t_policy is not None else t_est
    plan = budget.plan(t_used, s)

    if accounting is None:
        accounting = "rdp" if m < n and budget.accounting == "zcdp" else budget.accounting
    if accounting not in ("zcdp", "rdp", "approx_dp"):
        raise ValueError(f"unknown accounting {accounting!r}")
    if accounting == "approx_dp" and budget.accounting != "approx_dp":
        raise ValueError("approx_dp accounting requires a SubsampledDpBudget")

    if m < n:
        m_min = min_batch_size(model, constants, t_used, constants.eta, d)
        if m < m_min:
            warnings_acc.append(
                f"advisory-violated: batch size {m} is below the advised "
                f"minimum {m_min} for T = {t_used}")

    if line_search and plan.lambda_svt is None:
        raise ValueError("line-search runs need lambda_svt in the plan")
    noise = _NoiseSource(plan, sens_batch, rng, noise_mode)
    svt_charge = (0.5 / plan.lambda_svt ** 2) if line_search else 0.0
    grad_charge = 0.5 / plan.sigma_g ** 2
    hess_charge = 0.5 / plan.sigma_h ** 2

    trace: list[StepRecord] = []
    status = "budget_exhausted"
    iters_charged = 0
    hess_charged = 0
    loss_now = f0
    w_good = w.copy()  # last iterate whose loss evaluated inside the box

    try:
        for k in range(t_used):
            indices = selector.indices(rng, n)
            g = erm_gradient(model, dataset, w, indices, memo=memo)
            eps_k = noise.grad_noise(d)
            iters_charged += 1
            g_noisy = g + eps_k
            g_norm = _require_finite(float(np.linalg.norm(g_noisy)),
                                     "noisy gradient norm", k)

            if g_norm > constants.eps_g:
                probes = 0
                if line_search:
                    w_base, f_base, gn = w, loss_now, g_noisy

                    def q_grad(gamma: float) -> float:
                        return f_base - erm_value(model, dataset, w_base - gamma * gn,
                                                  memo=memo) \
                            - constants.c_g * gamma * g_norm ** 2

                    gamma_init = constants.b_g * derived.gamma_bar_g
                    delta_q = 2.0 / n * gamma_init * model.B_g * g_norm
                    ls = dp_line_search(q_grad, delta_q, gamma_init, derived.gamma_bar_g,
                                        constants.beta_g, plan.lambda_svt, rng,
                                        noise=noise_mode)
                    gamma, probes = ls.gamma, ls.probes
                else:
                    gamma = 1.0 / model.G
                w = w - gamma * g_noisy
                loss_after = erm_value(model, dataset, w, memo=memo)
                w_good = w.copy()
                trace.append(StepRecord(k, "gradient", gamma, loss_now, loss_after,
                                        g_norm, None, probes,
                                        _zcdp_inc(accounting, grad_charge + svt_charge)))
                loss_now = loss_after
                continue

            op = noise.hessian_operator(d)
            hess_charged += 1
            if lanczos:
                def hvp(v: np.ndarray) -> np.ndarray:
                    return _require_finite(
                        erm_hvp(model, dataset, w, v, indices, memo=memo) + op.matvec(v),
                        "noisy Hessian-vector product", k)

                norm_bound = model.G + 3.0 * math.sqrt(d) * sens_batch.delta_h * plan.sigma_h
                eig = lanczos_min_eig(hvp, d, norm_bound, constants.eps_h,
                                      constants.delta_l, rng, dense_cap=dense_cap)
            else:
                h_noisy = _require_finite(
                    erm_hessian(model, dataset, w, indices, dense_cap=dense_cap, memo=memo)
                    + op.dense, "noisy Hessian", k)
                eig = min_eigenpair_dense(h_noisy)
            _require_finite(eig.lambda_min, "noisy eigenvalue", k)
            decision = decide_curvature(eig, constants.eps_h)

            if decision.negative:
                lam_abs = abs(decision.lambda_min)
                p = orient(decision.direction, g_noisy)
                probes = 0
                if line_search:
                    gamma_bar_h = derived.t2 * lam_abs / model.M
                    w_base, f_base = w, loss_now

                    def q_curv(gamma: float) -> float:
                        return f_base - erm_value(model, dataset, w_base + gamma * p,
                                                  memo=memo) \
                            - 0.5 * constants.c_h * gamma ** 2 * lam_abs

                    gamma_init = constants.b_h * gamma_bar_h
                    delta_q = 2.0 / n * gamma_init * model.B_g
                    ls = dp_line_search(q_curv, delta_q, gamma_init, gamma_bar_h,
                                        constants.beta_h, plan.lambda_svt, rng,
                                        noise=noise_mode)
                    gamma, probes = ls.gamma, ls.probes
                else:
                    gamma = 2.0 * lam_abs / model.M
                w = w + gamma * p
                loss_after = erm_value(model, dataset, w, memo=memo)
                w_good = w.copy()
                trace.append(StepRecord(k, "negative_curvature", gamma, loss_now,
                                        loss_after, g_norm, decision.lambda_min, probes,
                                        _zcdp_inc(accounting,
                                                  grad_charge + hess_charge + svt_charge)))
                loss_now = loss_after
            else:
                trace.append(StepRecord(k, "terminate", None, loss_now, loss_now,
                                        g_norm, decision.lambda_min, 0,
                                        _zcdp_inc(accounting,
                                                  grad_charge + hess_charge + svt_charge)))
                status = "converged_2s"
                break
    except (WeightBoxError, _NonFiniteRelease) as err:
        # abort, but hand back the last iterate whose loss was evaluated
        warnings_acc.append(str(err))
        status = "failed_termination"
        w = w_good

    mode = loop if accounting == "zcdp" else accounting
    accounted = _account(mode, iters_charged, hess_charged, plan, budget, t_used)
    return RunOutcome(status, w, tuple(trace), accounted, plan, t_used, mode,
                      z, erm_value(model, dataset, w, memo=memo), tuple(warnings_acc))


def _zcdp_inc(accounting: str, value: float) -> float | None:
    return value if accounting == "zcdp" else None


def _account(mode: str, iters: int, hess: int, plan: NoisePlan, budget: Budget,
             t_used: int):
    """The run's ledger; mode is "short" or "line_search" (zCDP), "rdp" or
    "approx_dp"."""
    if mode == "approx_dp":
        return account_subsampled_dp(iters, budget.target, budget.eps_f,
                                     budget.delta_f, plan.subsample_fraction, t_used)
    return account_run(iters - hess, hess, plan, "minibatch" if mode == "rdp" else mode)


# ---------------------------------------------------------------------------
# public run operations


def default_phase1_policy(t_full: int) -> int:
    """Optimistic first-phase budget: ceil(sqrt(T)), clamped to [1, T]."""
    return max(1, min(t_full, math.ceil(math.sqrt(t_full))))


@dataclass(frozen=True)
class Variant:
    """How one of the public solvers runs."""

    loop: str                     # "short" | "line_search"
    budgets: tuple[type, ...]     # the budget types it accepts
    minibatch: bool               # draws mini-batches, so it needs a BatchSelector
    two_phase: bool               # an optimistic phase, then a fallback phase


_SHORT_BUDGETS = (NoisePlan, ShortStepBudget)
_LS_BUDGETS = (NoisePlan, LineSearchBudget)
_MINIBATCH_BUDGETS = (NoisePlan, ShortStepBudget, SubsampledDpBudget, RdpTuneBudget)

VARIANTS = {
    "opt": Variant("short", _SHORT_BUDGETS, minibatch=False, two_phase=False),
    "opt_b": Variant("short", _MINIBATCH_BUDGETS, minibatch=True, two_phase=False),
    "opt_ls": Variant("line_search", _LS_BUDGETS, minibatch=False, two_phase=False),
    "2opt": Variant("short", _SHORT_BUDGETS, minibatch=False, two_phase=True),
    "2opt_b": Variant("short", _MINIBATCH_BUDGETS, minibatch=True, two_phase=True),
    "2opt_ls": Variant("line_search", _LS_BUDGETS, minibatch=False, two_phase=True),
}


def run_variant(name: str, model: LossModel, dataset: Dataset, w0,
                constants: AlgorithmConstants, budget: Budget, rng: SeededRng, *,
                selector: BatchSelector | None = None, accounting: str | None = None,
                noise_mode: str = "standard", lanczos: bool = False,
                dense_cap: int = DENSE_HESSIAN_CAP,
                t_policy: Callable[[int], int] | None = None,
                budget_split: float = 0.75) -> RunOutcome:
    """Run the public solver name, a key of VARIANTS.

    The mini-batch variants need a selector and the others take none.
    accounting overrides the budget's default ledger notion.  t_policy caps
    the iteration budget T; in a two-phase run it sets phase 1's T, by
    default ceil(sqrt(T)), and phase 1 spends budget_split of the budget
    (see run_two_phase).
    """
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}")
    variant = VARIANTS[name]
    if not isinstance(budget, variant.budgets):
        raise TypeError(f"{name} takes a "
                        + " or ".join(kind.__name__ for kind in variant.budgets))
    if variant.minibatch != (selector is not None):
        need = "need a" if variant.minibatch else "take no"
        raise ValueError(f"{name} runs {need} selector")

    def run(w_start, bud: Budget, policy, memo=None) -> RunOutcome:
        return _run_core(variant.loop, model, dataset, w_start, constants, bud, rng,
                         selector=selector, accounting=accounting, noise_mode=noise_mode,
                         lanczos=lanczos, dense_cap=dense_cap, t_policy=policy, memo=memo)

    if not variant.two_phase:
        return run(w0, budget, t_policy)
    if not (0.0 < budget_split < 1.0):
        raise ValueError("budget_split must lie in (0, 1)")
    # one memo for both phases: phase 2's initial loss is phase 1's final one
    memo = MarginMemo(model, dataset)
    phase1 = run(w0, budget.scaled(budget_split), t_policy or default_phase1_policy, memo)
    if phase1.converged:
        return replace(phase1, phases=(phase1,))
    phase2 = run(phase1.w_final, budget.scaled(1.0 - budget_split), None, memo)
    trace = phase1.trace + tuple(
        replace(r, k=r.k + phase1.iterations) for r in phase2.trace)
    return RunOutcome(
        status=phase2.status,
        w_final=phase2.w_final,
        trace=trace,
        accounted_privacy=compose([phase1.accounted_privacy, phase2.accounted_privacy]),
        plan=phase2.plan,
        t_budget=phase1.t_budget + phase2.t_budget,
        mode=phase2.mode,
        z_draw=phase1.z_draw,
        final_loss=phase2.final_loss,
        warnings=phase1.warnings + phase2.warnings,
        phases=(phase1, phase2),
    )


def run_short_step(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                   budget: Budget, rng: SeededRng, *, noise_mode: str = "standard",
                   lanczos: bool = False, dense_cap: int = DENSE_HESSIAN_CAP,
                   t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    """Fixed-step variant: gamma_g = 1/G, gamma_H = 2 |lambda| / M."""
    return run_variant("opt", model, dataset, w0, constants, budget, rng,
                       noise_mode=noise_mode, lanczos=lanczos, dense_cap=dense_cap,
                       t_policy=t_policy)


def run_line_search(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                    budget: Budget, rng: SeededRng, *, noise_mode: str = "standard",
                    lanczos: bool = False, dense_cap: int = DENSE_HESSIAN_CAP,
                    t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    """Backtracking variant: private SVT line searches with short-step-like
    fallbacks gamma_bar_g and gamma_bar_H = t2 |lambda| / M."""
    return run_variant("opt_ls", model, dataset, w0, constants, budget, rng,
                       noise_mode=noise_mode, lanczos=lanczos, dense_cap=dense_cap,
                       t_policy=t_policy)


def run_minibatch(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                  budget: Budget, selector: BatchSelector, rng: SeededRng, *,
                  accounting: str | None = None, noise_mode: str = "standard",
                  lanczos: bool = False, dense_cap: int = DENSE_HESSIAN_CAP,
                  t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    """Short-step variant on per-iteration without-replacement mini-batches.

    Sensitivities scale with the batch size; privacy is tracked either on
    the subsampled RDP curve ("rdp", the default) or as (epsilon, delta)-DP
    via advanced composition ("approx_dp", requires a SubsampledDpBudget).
    A batch below the advised minimum size only flags the outcome.
    """
    return run_variant("opt_b", model, dataset, w0, constants, budget, rng,
                       selector=selector, accounting=accounting, noise_mode=noise_mode,
                       lanczos=lanczos, dense_cap=dense_cap, t_policy=t_policy)


# run_two_phase's variant argument names the method its phases run
_TWO_PHASE = {"short": "2opt", "line_search": "2opt_ls", "minibatch": "2opt_b"}


def run_two_phase(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                  budget: Budget, rng: SeededRng, *, variant: str = "short",
                  budget_split: float = 0.75,
                  phase1_t_policy: Callable[[int], int] = default_phase1_policy,
                  selector: BatchSelector | None = None, accounting: str | None = None,
                  noise_mode: str = "standard", lanczos: bool = False,
                  dense_cap: int = DENSE_HESSIAN_CAP) -> RunOutcome:
    """Optimistic-then-fallback strategy.

    Phase 1 spends budget_split of the budget on a reduced iteration count
    (default ceil(sqrt(T))).  If it does not converge, phase 2 re-runs the
    full method from the phase-1 iterate with the remaining budget and a
    fresh worst-case T.  The combined outcome concatenates both traces and
    composes both ledgers.

    variant selects the underlying method: "short", "line_search", or
    "minibatch" (which needs selector).
    """
    if variant not in _TWO_PHASE:
        raise ValueError(f"unknown variant {variant!r}")
    return run_variant(_TWO_PHASE[variant], model, dataset, w0, constants, budget, rng,
                       selector=selector, accounting=accounting, noise_mode=noise_mode,
                       lanczos=lanczos, dense_cap=dense_cap, t_policy=phase1_t_policy,
                       budget_split=budget_split)
