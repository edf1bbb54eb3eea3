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

Noise-plan finalization is two-staged, matching the data-dependent budget:
sigma_f is fixed by the budget policy alone, the perturbed initial loss
fixes the iteration budget T, and only then are sigma_g, sigma_h (and the
SVT lambda) calibrated to T.  Runs therefore accept either a budget policy
(calibrated here) or a ready NoisePlan (used as given).

Per-iteration draw order is fixed and documented: batch indices, gradient
noise, Hessian child stream, Lanczos start vectors, SVT threshold and
probe noise.  Identical (seed, config, dataset) reproduce bit-identical
traces.

Accounting charges follow the published per-run formulas: every iteration
pays one gradient draw, Hessian-drawing iterations (curvature steps and the
terminal check) pay the Hessian draw, and in line-search mode every
iteration pays one SVT sweep -- which over-counts the terminal check's
missing sweep by 1/(2 lambda^2), a deliberate conservative choice.  Runs
aborted by a weight-box violation report status "failed_termination" and
still charge the partially completed iteration.

One run owns one SeededRng stream and its ledger; runs with independent
streams may execute concurrently without shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union

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
from .constants import (AlgorithmConstants, iteration_budget, min_dec_line_search,
                        min_dec_short, roots_t1_t2)
from .svt import dp_line_search

_MAX_REJECTION_TRIES = 10_000


# ---------------------------------------------------------------------------
# budgets


@dataclass(frozen=True)
class ShortStepBudget:
    """rho-zCDP target for the short-step variant; c_f is the fraction spent
    on the initial loss perturbation."""

    rho: float
    c_f: float = 0.1


@dataclass(frozen=True)
class LineSearchBudget:
    """rho-zCDP target for the line-search variant; rho_f = rho_f_fraction * rho."""

    rho: float
    rho_f_fraction: float = 0.1

    @property
    def rho_f(self) -> float:
        return self.rho_f_fraction * self.rho


@dataclass(frozen=True)
class SubsampledDpBudget:
    """(epsilon, delta)-DP target for the mini-batch variant, accounted by
    advanced composition; (eps_f, delta_f) fractions go to the initial loss."""

    epsilon: float
    delta: float
    eps_f_fraction: float = 0.1
    delta_f_fraction: float = 0.1

    @property
    def target(self) -> ApproxDp:
        return ApproxDp(self.epsilon, self.delta)

    @property
    def eps_f(self) -> float:
        return self.eps_f_fraction * self.epsilon

    @property
    def delta_f(self) -> float:
        return self.delta_f_fraction * self.delta


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

    @property
    def target(self) -> ApproxDp:
        return ApproxDp(self.epsilon, self.delta)

    def sigma_f(self) -> float:
        rho = approx_dp_to_zcdp(self.target).rho
        return math.sqrt(1.0 / (2.0 * self.c_f * rho))


Budget = Union[NoisePlan, ShortStepBudget, LineSearchBudget, SubsampledDpBudget, RdpTuneBudget]


def _sigma_f_of(budget: Budget) -> float:
    if isinstance(budget, NoisePlan):
        return budget.sigma_f
    if isinstance(budget, ShortStepBudget):
        return math.sqrt(1.0 / (2.0 * budget.c_f * budget.rho))
    if isinstance(budget, LineSearchBudget):
        return math.sqrt(1.0 / (2.0 * budget.rho_f))
    if isinstance(budget, SubsampledDpBudget):
        return math.sqrt(2.0 * math.log(1.25 / budget.delta_f)) / budget.eps_f
    if isinstance(budget, RdpTuneBudget):
        return budget.sigma_f()
    raise TypeError(f"unsupported budget {type(budget)!r}")


def _finalize_plan(budget: Budget, t_budget: int, s: float) -> NoisePlan:
    if isinstance(budget, NoisePlan):
        if not math.isclose(budget.subsample_fraction, s, rel_tol=1e-12):
            raise ValueError(
                f"plan subsample_fraction {budget.subsample_fraction} does not "
                f"match the selector fraction {s}")
        return budget
    if isinstance(budget, ShortStepBudget):
        return plan_short_step(ZCdp(budget.rho), budget.c_f, t_budget)
    if isinstance(budget, LineSearchBudget):
        return plan_line_search(ZCdp(budget.rho), budget.rho_f, t_budget)
    if isinstance(budget, SubsampledDpBudget):
        return plan_subsampled_dp(budget.target, budget.eps_f, budget.delta_f, s, t_budget)
    if isinstance(budget, RdpTuneBudget):
        return tune_noise_plan(budget.target, s, t_budget,
                               sigma_grid=budget.sigma_grid,
                               sigma_f_grid=np.array([budget.sigma_f()]))
    raise TypeError(f"unsupported budget {type(budget)!r}")


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
# noise source with the test-only zero and bounded modes


class _NoiseSource:
    """Draws per-iteration noise in the documented order.

    mode "standard" draws from the plan; "zero" returns exact quantities
    (sigma = 0 test mode); "bounded" rejection-samples until the bounded-noise
    conditions ||eps|| <= min(c1 eps_g, c2 eps_h^2 / M) and ||E|| <= c eps_h
    hold -- test-only support for exercising the descent guarantees.
    """

    def __init__(self, plan: NoisePlan, sens, rng: SeededRng, mode: str,
                 constants: AlgorithmConstants, model: LossModel):
        if mode not in ("standard", "zero", "bounded"):
            raise ValueError(f"unknown noise mode {mode!r}")
        self.plan = plan
        self.sens = sens
        self.rng = rng
        self.mode = mode
        self.grad_bound = min(constants.c1 * constants.eps_g,
                              constants.c2 / model.M * constants.eps_h ** 2)
        self.hess_bound = constants.c * constants.eps_h

    def grad_noise(self, d: int) -> np.ndarray:
        scale = self.sens.delta_g * self.plan.sigma_g
        if self.mode == "zero" or scale == 0.0:
            return np.zeros(d)
        if self.mode == "standard":
            return gaussian_vector(d, scale, self.rng)
        for _ in range(_MAX_REJECTION_TRIES):
            eps = gaussian_vector(d, scale, self.rng)
            if np.linalg.norm(eps) <= self.grad_bound:
                return eps
        raise RuntimeError(
            "bounded-noise rejection did not accept a gradient draw; "
            "lower sigma_g relative to the bound")

    def hessian_operator(self, d: int) -> WignerOperator:
        scale = 0.0 if self.mode == "zero" else self.sens.delta_h * self.plan.sigma_h
        if self.mode != "bounded":
            return WignerOperator(d, scale, self.rng.child())
        for _ in range(_MAX_REJECTION_TRIES):
            op = WignerOperator(d, scale, self.rng.child())
            if np.linalg.norm(op.dense, 2) <= self.hess_bound:
                return op
        raise RuntimeError(
            "bounded-noise rejection did not accept a Hessian draw; "
            "lower sigma_h relative to the bound")


# ---------------------------------------------------------------------------
# core loop


def _run_core(variant: str, model: LossModel, dataset: Dataset, w0: np.ndarray,
              constants: AlgorithmConstants, budget: Budget, rng: SeededRng, *,
              selector: BatchSelector | None = None, accounting: str | None = None,
              noise_mode: str = "standard", svt_noise: str | None = None,
              lanczos: bool = False, dense_cap: int = DENSE_HESSIAN_CAP,
              t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    n, d = dataset.n, dataset.d
    selector = selector or BatchSelector()
    m = selector.batch_size(n)
    s = m / n
    if variant == "line_search" and m != n:
        raise ValueError("the line-search variant runs full batch only")
    sens_full = sensitivities(model, n, d)
    sens_batch = sensitivities(model, m, d)
    warnings_acc: list[str] = []

    t1, t2 = roots_t1_t2(constants.c, constants.c2, constants.c_h)
    if variant == "line_search":
        if not (t1 / t2 < constants.beta_h < 1.0):
            raise ValueError(
                f"beta_h = {constants.beta_h} must lie in (t1/t2, 1) = "
                f"({t1 / t2:.6g}, 1)")
        min_dec = min_dec_line_search(model.G, model.M, constants.eps_g, constants.eps_h,
                                      constants.c1, constants.c_g, constants.c_h, t2)
    else:
        min_dec = min_dec_short(model.G, model.M, constants.eps_g, constants.eps_h,
                                constants.c1, constants.c2, constants.c)

    if svt_noise is None:
        svt_noise = "zero" if noise_mode == "zero" else "standard"

    w = np.asarray(w0, dtype=float).copy()
    if w.shape != (d,):
        raise ValueError(f"w0 must have shape ({d},)")

    # one product with X per (iterate, batch): the gradient and curvature at w
    # reuse the margins of the loss at w, and an accepted line-search probe's
    # point is bit-identical to the next iterate
    memo = MarginMemo(dataset)

    # stage 1: perturb the initial loss, fix T, then calibrate the plan
    sigma_f = _sigma_f_of(budget)
    f0 = erm_value(model, dataset, w, memo=memo)
    z = 0.0 if noise_mode == "zero" else gaussian(sens_full.delta_f * sigma_f, rng)
    t_est = iteration_budget(f0, z, model.f_lower, min_dec)
    t_used = max(1, min(t_est, t_policy(t_est))) if t_policy is not None else t_est
    plan = _finalize_plan(budget, t_used, s)

    if accounting is None:
        if isinstance(budget, SubsampledDpBudget):
            accounting = "approx_dp"
        elif m < n or isinstance(budget, RdpTuneBudget):
            accounting = "rdp"
        else:
            accounting = "zcdp"
    if accounting not in ("zcdp", "rdp", "approx_dp"):
        raise ValueError(f"unknown accounting {accounting!r}")
    if accounting == "approx_dp" and not isinstance(budget, SubsampledDpBudget):
        raise ValueError("approx_dp accounting requires a SubsampledDpBudget")

    if m < n:
        m_min = min_batch_size(model, constants, t_used, constants.eta, d)
        if m < m_min:
            warnings_acc.append(
                f"advisory-violated: batch size {m} is below the advised "
                f"minimum {m_min} for T = {t_used}")

    if variant == "line_search" and plan.lambda_svt is None:
        raise ValueError("line-search runs need lambda_svt in the plan")
    noise = _NoiseSource(plan, sens_batch, rng, noise_mode, constants, model)
    zcdp_mode = "line_search" if variant == "line_search" else "short"
    svt_charge = (0.5 / plan.lambda_svt ** 2) if variant == "line_search" else 0.0
    grad_charge = 0.5 / plan.sigma_g ** 2
    hess_charge = 0.5 / plan.sigma_h ** 2
    gamma_bar_g = 2.0 * (1.0 - constants.c1 - constants.c_g) / model.G

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
            g_norm = float(np.linalg.norm(g_noisy))

            if g_norm > constants.eps_g:
                probes = 0
                if variant == "line_search":
                    w_base, f_base, gn = w, loss_now, g_noisy

                    def q_grad(gamma: float) -> float:
                        return f_base - erm_value(model, dataset, w_base - gamma * gn,
                                                  memo=memo) \
                            - constants.c_g * gamma * g_norm ** 2

                    gamma_init = constants.b_g * gamma_bar_g
                    delta_q = 2.0 / n * gamma_init * model.B_g * g_norm
                    ls = _svt_search(q_grad, delta_q, gamma_init, gamma_bar_g,
                                     constants.beta_g, plan, rng, svt_noise)
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
                    return erm_hvp(model, dataset, w, v, indices, memo=memo) + op.matvec(v)

                norm_bound = model.G + 3.0 * math.sqrt(d) * sens_batch.delta_h * plan.sigma_h
                eig = lanczos_min_eig(hvp, d, norm_bound, constants.eps_h,
                                      constants.delta_l, rng, dense_cap=dense_cap)
            else:
                h_noisy = (erm_hessian(model, dataset, w, indices, dense_cap=dense_cap, memo=memo)
                           + op.dense)
                eig = min_eigenpair_dense(h_noisy)
            decision = decide_curvature(eig, constants.eps_h)

            if decision.negative:
                lam_abs = abs(decision.lambda_min)
                p = orient(decision.direction, g_noisy)
                probes = 0
                if variant == "line_search":
                    gamma_bar_h = t2 * lam_abs / model.M
                    w_base, f_base = w, loss_now

                    def q_curv(gamma: float) -> float:
                        return f_base - erm_value(model, dataset, w_base + gamma * p,
                                                  memo=memo) \
                            - 0.5 * constants.c_h * gamma ** 2 * lam_abs

                    gamma_init = constants.b_h * gamma_bar_h
                    delta_q = 2.0 / n * gamma_init * model.B_g
                    ls = _svt_search(q_curv, delta_q, gamma_init, gamma_bar_h,
                                     constants.beta_h, plan, rng, svt_noise)
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
    except WeightBoxError as err:
        # abort, but hand back the last iterate that stayed inside the box
        warnings_acc.append(str(err))
        status = "failed_termination"
        w = w_good

    accounted = _account(accounting, zcdp_mode, iters_charged, hess_charged, plan, budget, t_used)
    return RunOutcome(status, w, tuple(trace), accounted, plan, t_used,
                      zcdp_mode if accounting == "zcdp" else accounting,
                      z, erm_value(model, dataset, w, memo=memo), tuple(warnings_acc))


def _zcdp_inc(accounting: str, value: float) -> float | None:
    return value if accounting == "zcdp" else None


def _svt_search(query, delta_q, gamma_init, gamma_bar, beta, plan, rng, svt_noise):
    if plan.lambda_svt is None:
        raise ValueError("line-search runs need lambda_svt in the plan")
    return dp_line_search(query, delta_q, gamma_init, gamma_bar, beta,
                          plan.lambda_svt, rng, noise=svt_noise)


def _account(accounting: str, zcdp_mode: str, iters: int, hess: int,
             plan: NoisePlan, budget: Budget, t_used: int):
    k_g = iters - hess
    if accounting == "zcdp":
        return account_run(k_g, hess, plan, zcdp_mode)
    if accounting == "rdp":
        return account_run(k_g, hess, plan, "minibatch")
    return account_subsampled_dp(iters, budget.target, budget.eps_f,
                                 budget.delta_f, plan.subsample_fraction, t_used)


# ---------------------------------------------------------------------------
# public run operations


def run_short_step(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                   budget: Budget, rng: SeededRng, *, noise_mode: str = "standard",
                   svt_noise: str | None = None, lanczos: bool = False,
                   dense_cap: int = DENSE_HESSIAN_CAP,
                   t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    """Fixed-step variant: gamma_g = 1/G, gamma_H = 2 |lambda| / M."""
    if not isinstance(budget, (NoisePlan, ShortStepBudget)):
        raise TypeError("run_short_step takes a NoisePlan or ShortStepBudget")
    return _run_core("short", model, dataset, w0, constants, budget, rng,
                     noise_mode=noise_mode, svt_noise=svt_noise, lanczos=lanczos,
                     dense_cap=dense_cap, t_policy=t_policy)


def run_line_search(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                    budget: Budget, rng: SeededRng, *, noise_mode: str = "standard",
                    svt_noise: str | None = None, lanczos: bool = False,
                    dense_cap: int = DENSE_HESSIAN_CAP,
                    t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    """Backtracking variant: private SVT line searches with short-step-like
    fallbacks gamma_bar_g and gamma_bar_H = t2 |lambda| / M."""
    if not isinstance(budget, (NoisePlan, LineSearchBudget)):
        raise TypeError("run_line_search takes a NoisePlan or LineSearchBudget")
    return _run_core("line_search", model, dataset, w0, constants, budget, rng,
                     noise_mode=noise_mode, svt_noise=svt_noise, lanczos=lanczos,
                     dense_cap=dense_cap, t_policy=t_policy)


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
    if not isinstance(budget, (NoisePlan, ShortStepBudget, SubsampledDpBudget, RdpTuneBudget)):
        raise TypeError("run_minibatch takes a NoisePlan, ShortStepBudget, "
                        "SubsampledDpBudget, or RdpTuneBudget")
    return _run_core("short", model, dataset, w0, constants, budget, rng,
                     selector=selector, accounting=accounting, noise_mode=noise_mode,
                     lanczos=lanczos, dense_cap=dense_cap, t_policy=t_policy)


def default_phase1_policy(t_full: int) -> int:
    """Optimistic first-phase budget: ceil(sqrt(T)), clamped to [1, T]."""
    return max(1, min(t_full, math.ceil(math.sqrt(t_full))))


def _scale_budget(budget: Budget, fraction: float) -> Budget:
    if isinstance(budget, ShortStepBudget):
        return replace(budget, rho=budget.rho * fraction)
    if isinstance(budget, LineSearchBudget):
        return replace(budget, rho=budget.rho * fraction)
    if isinstance(budget, SubsampledDpBudget):
        return replace(budget, epsilon=budget.epsilon * fraction,
                       delta=budget.delta * fraction)
    if isinstance(budget, RdpTuneBudget):
        return replace(budget, epsilon=budget.epsilon * fraction,
                       delta=budget.delta * fraction)
    raise TypeError("two-phase runs need a budget policy, not a raw NoisePlan")


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
    if not (0.0 < budget_split < 1.0):
        raise ValueError("budget_split must lie in (0, 1)")

    def dispatch(bud: Budget, w_start, t_policy):
        if variant == "short":
            return run_short_step(model, dataset, w_start, constants, bud, rng,
                                  noise_mode=noise_mode, lanczos=lanczos,
                                  dense_cap=dense_cap, t_policy=t_policy)
        if variant == "line_search":
            return run_line_search(model, dataset, w_start, constants, bud, rng,
                                   noise_mode=noise_mode, lanczos=lanczos,
                                   dense_cap=dense_cap, t_policy=t_policy)
        if variant == "minibatch":
            if selector is None:
                raise ValueError("minibatch two-phase runs need a selector")
            return run_minibatch(model, dataset, w_start, constants, bud, selector, rng,
                                 accounting=accounting, noise_mode=noise_mode,
                                 lanczos=lanczos, dense_cap=dense_cap, t_policy=t_policy)
        raise ValueError(f"unknown variant {variant!r}")

    phase1 = dispatch(_scale_budget(budget, budget_split), w0, phase1_t_policy)
    if phase1.status == "converged_2s":
        return replace(phase1, phases=(phase1,))
    phase2 = dispatch(_scale_budget(budget, 1.0 - budget_split), phase1.w_final, None)
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
