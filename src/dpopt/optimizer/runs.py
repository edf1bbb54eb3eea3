"""The optimization loops: short step, SVT line search, mini-batch, two-phase.

All variants share one skeleton.  Each iteration perturbs the (mini-batch)
gradient with Gaussian noise scaled by its sensitivity; while the noisy
gradient norm exceeds eps_g the step direction u is the negative noisy
gradient.  Otherwise a symmetric Gaussian matrix perturbs the Hessian and
the smallest noisy eigenpair decides between termination and a
negative-curvature step along its eigenvector u, oriented against the noisy
gradient.  Both kinds of step then take one path: the iterate moves to
w + gamma u, with gamma the conservative fixed choice (gamma_g = 1/G,
gamma_H = 2 |lambda| / M) or found by a private backtracking line search
along u falling back to gamma_bar_g = 2(1 - c1 - c_g)/G and
gamma_bar_H = t2 |lambda| / M.

The six public solvers differ only in loop kind, accepted budgets,
batching and phasing; VARIANTS holds one row per name, and run_variant runs
any of them.  run_short_step ("opt"), run_line_search ("opt_ls"),
run_minibatch ("opt_b") and run_two_phase ("2opt", "2opt_ls", "2opt_b") are
its named entry points.

Noise-plan finalization is two-staged, matching the data-dependent budget:
sigma_f is fixed by the budget alone, the perturbed initial loss fixes the
iteration budget T, and only then are sigma_g, sigma_h (and the SVT lambda)
calibrated to T; every budget answers one protocol (see "budgets" below).

Per-iteration draw order is fixed and documented: batch indices, gradient
noise, Hessian child stream, Lanczos start vector, SVT threshold and
probe noise.  Identical (seed, config, dataset) reproduce bit-identical
traces.  noise_mode "zero" multiplies every noise scale (initial loss,
gradient, Hessian, SVT sensitivity) by 0, so no noise is drawn.

One ledger per run (_Ledger) draws every gradient noise and Wigner
matrix, runs every SVT sweep and logs each release (accountant.Release) in
count form.  Each StepRecord keeps the log through its iteration, so the
spend after step k is account_run(trace[k].releases, notion).spent(delta);
the run's notion, picked before any data pass, converts the whole log once
(RunOutcome.releases; a two-phase run's join both phases').  A line-search
iteration logs one sweep, the terminal check's missing one included, and a
run aborted by a weight-box violation or a non-finite release
("failed_termination", with a warning) logs its partial iteration.

One run owns one SeededRng stream and its ledger; runs with independent
streams may execute concurrently without shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Union

import numpy as np

from ..accountant import (SIGMA_MIN, ApproxDp, InfeasiblePlanError, NoisePlan, RdpCurve,
                          Release, ZCdp, account_run, approx_dp_to_zcdp, calibrate,
                          combined_sigma, gaussian_sigma_dp, gaussian_sigma_zcdp, run_log,
                          tally, tune_noise_plan)
from ..mechanisms import SeededRng, WignerOperator, gaussian, gaussian_vector
from ..objective import (DENSE_HESSIAN_CAP, BatchSelector, Dataset, LossModel, MarginMemo,
                         WeightBoxError, erm_gradient, erm_hessian, erm_hvp, erm_value,
                         sensitivities)
from ..spectral import decide_curvature, lanczos_min_eig, min_eigenpair_dense, orient
from .constants import AlgorithmConstants, derive_constants, min_batch_size
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
# each checked when it is made.  Each policy has:
#   sigma_f               the initial-loss multiplier, fixed before T;
#   plan(t_budget, s)     the NoisePlan for T iterations at sampling fraction s,
#                         with the policy's own sigma_f, by accountant.calibrate
#                         (SubsampledDpBudget: from its step);
#   scaled(fraction)      the same policy with that fraction of the target,
#                         for one phase of a two-phase run;
#   target                the claim, ZCdp(rho) or ApproxDp(epsilon, delta);
#   accounting            the notion its runs account in (see _notion).


@dataclass(frozen=True)
class _RhoTarget:
    rho: float
    c_f: float = 0.1
    accounting: ClassVar[str] = "zcdp"
    sweeps: ClassVar[int] = 0  # sparse-vector sweeps per iteration

    def __post_init__(self):
        if not (0.0 < self.rho < math.inf and 0.0 < self.c_f < 1.0):
            raise ValueError(f"need 0 < rho < inf and 0 < c_f < 1, got rho = {self.rho}, "
                             f"c_f = {self.c_f}")

    @property
    def target(self) -> ZCdp:
        return ZCdp(self.rho)

    @property
    def sigma_f(self) -> float:
        return gaussian_sigma_zcdp(self.c_f * self.rho)

    def plan(self, t_budget: int, s: float) -> NoisePlan:
        """sigma_g = sigma_h (= lambda_svt with sweeps) at which T curvature
        iterations and their sweeps cost (1 - c_f) rho, all that f0 leaves."""
        sigma = calibrate(ZCdp, (1.0 - self.c_f) * self.rho, None, lambda sigma: run_log(
            NoisePlan(self.sigma_f, sigma, sigma, sigma, s), 0, t_budget,
            t_budget * self.sweeps)[1:])  # less f0's release
        return NoisePlan(self.sigma_f, sigma, sigma, sigma if self.sweeps else None, s)

    def scaled(self, fraction: float):
        return replace(self, rho=self.rho * fraction)


@dataclass(frozen=True)
class ShortStepBudget(_RhoTarget):
    """rho-zCDP target for the short-step variant; c_f is the fraction spent
    on the initial loss perturbation."""


@dataclass(frozen=True)
class LineSearchBudget(_RhoTarget):
    """rho-zCDP target for the line-search variant, whose iterations each
    also run a sparse-vector sweep at lambda_svt = sigma_g."""

    sweeps: ClassVar[int] = 1


@dataclass(frozen=True)
class _EpsDeltaTarget:
    epsilon: float
    delta: float
    c_f: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf and 0.0 < self.delta < 1.0
                and 0.0 < self.c_f < 1.0):
            raise ValueError(f"need 0 < epsilon < inf, 0 < delta < 1 and 0 < c_f < 1, got "
                             f"epsilon = {self.epsilon}, delta = {self.delta}, c_f = {self.c_f}")

    @property
    def target(self) -> ApproxDp:
        return ApproxDp(self.epsilon, self.delta)

    def scaled(self, fraction: float):
        return replace(self, epsilon=self.epsilon * fraction, delta=self.delta * fraction)


@dataclass(frozen=True)
class SubsampledDpBudget(_EpsDeltaTarget):
    """(epsilon, delta)-DP target for the mini-batch variant, accounted by
    advanced composition; the fraction c_f of epsilon and of delta goes to
    the initial loss."""

    accounting: ClassVar[str] = "approx_dp"

    @property
    def eps_f(self) -> float:
        return self.c_f * self.epsilon

    @property
    def delta_f(self) -> float:
        return self.c_f * self.delta

    @property
    def sigma_f(self) -> float:
        return gaussian_sigma_dp(self.eps_f, self.delta_f)

    def step(self, t_budget: int, s: float) -> tuple[float, float, float]:
        """(eps0, delta0, delta_rest) of each Gaussian draw of T iterations on
        batches at fraction s, which compose to (E, delta_rest) =
        (eps - eps_f, delta - delta_f).  The 8 is 2 (amplification) x 2 (an
        iteration's gradient and Wigner draw) x 2 (advanced composition's
        second-order term): the pair is (2 eps0, 2 delta0)-DP, amplified to
        e' = log(1 + s (e^{2 eps0} - 1)) and 2 s delta0, and T such steps
        compose (Dwork, Rothblum & Vadhan) at delta'' = delta_rest / 2 to
        sqrt(2 T log(1/delta'')) e' + T e' (e^{e'} - 1) and 2 s delta0 T +
        delta'' = delta_rest.  As e^{e'} - 1 <= 3.2 s (2 eps0) for eps0 < 1,
        the first term is at most 0.8 E and, at E < 1 and delta_rest <= 0.1,
        the second at most 0.11 E.  Both need E < 1, and the classical
        Gaussian calibration needs eps0 < 1: otherwise InfeasiblePlanError."""
        eps, rest = self.epsilon - self.eps_f, self.delta - self.delta_f
        eps0 = eps / (8.0 * s * math.sqrt(2.0 * t_budget * math.log(2.0 / rest)))
        if not (eps < 1.0 and eps0 < 1.0):
            raise InfeasiblePlanError(
                f"eps - eps_f = {eps:.3g} and per-iteration eps0 = {eps0:.3g} must both "
                f"be below 1; no valid (eps, delta)-DP calibration at s = {s}, T = {t_budget}")
        return eps0, rest / (4.0 * s * t_budget), rest

    def plan(self, t_budget: int, s: float) -> NoisePlan:
        eps0, delta0, _ = self.step(t_budget, s)
        sigma_gh = gaussian_sigma_dp(eps0, delta0)
        return NoisePlan(self.sigma_f, sigma_gh, sigma_gh, None, s)


@dataclass(frozen=True)
class RdpTuneBudget(_EpsDeltaTarget):
    """(epsilon, delta)-DP target for the mini-batch variant, accounted on the
    subsampled RDP curve, whose multipliers tune_noise_plan calibrates.

    sigma_f must be fixed before T is known, so it is pre-committed from the
    zCDP-equivalent budget (fraction c_f); the calibration then tunes only
    the per-iteration multipliers.
    """

    accounting: ClassVar[str] = "rdp"

    @property
    def sigma_f(self) -> float:
        return gaussian_sigma_zcdp(self.c_f * approx_dp_to_zcdp(self.target).rho)

    def plan(self, t_budget: int, s: float) -> NoisePlan:
        return tune_noise_plan(self.target, s, t_budget, self.sigma_f)


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
    releases: tuple[Release, ...]  # the run's log through this iteration: tally(log)


@dataclass(frozen=True, eq=False)
class RunOutcome:
    status: str                   # "converged_2s" | "budget_exhausted" | "failed_termination"
    w_final: np.ndarray
    trace: tuple[StepRecord, ...]
    releases: tuple[Release, ...]  # the run's log in count form: tally(log)
    accounted_privacy: object     # account_run(releases, notion): ZCdp | RdpCurve | ApproxDp
    plan: NoisePlan
    t_budget: int
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
# the run's ledger


# accounting -> the ledger kind that converts a run's log
_NOTIONS = {"zcdp": ZCdp, "rdp": RdpCurve, "approx_dp": ApproxDp}


def _notion(budget: Budget, subsampled: bool):
    """The ledger kind that converts the run's log: the budget's own notion.
    zCDP has no amplification by subsampling, so it needs full batches."""
    if subsampled and budget.accounting == "zcdp":
        raise ValueError(f"a {type(budget).__name__} accounts in zcdp: run it on all n rows")
    if subsampled and isinstance(budget, NoisePlan):
        # the curve charges Wigner draws at combined_sigma, below both sigmas;
        # min() first keeps it from squaring a tiny sigma to 0
        sigmas = (budget.sigma_g, budget.sigma_h)
        if not (min(sigmas) >= SIGMA_MIN and combined_sigma(*sigmas) >= SIGMA_MIN):
            raise ValueError(f"a subsampled RDP run needs sigma_g and combined_sigma(sigma_g, "
                             f"sigma_h) >= accountant.SIGMA_MIN = {SIGMA_MIN}, got {sigmas}")
    return _NOTIONS[budget.accounting]


def _releases(notion, budget: Budget, plan: NoisePlan, t_used: int, line_search: bool):
    """A run's initial-loss release, those each iteration begun logs and
    those each Wigner draw logs.  In (eps, delta) an iteration is one step
    at the plan's (eps0, delta0), Hessian or not."""
    if plan.sigma_f != budget.sigma_f:
        raise ValueError("the plan's sigma_f is not the budget's, which noised f0")
    if notion is ApproxDp:
        s = plan.subsample_fraction
        step = Release("dp", budget.step(t_used, s), s)
        return Release("dp", (budget.eps_f, budget.delta_f)), (step,), ()
    f0, gradient, wigner, sweep = run_log(plan, 0, 1, int(line_search))
    return f0, (gradient, sweep) if line_search else (gradient,), (wigner,)


class _Ledger:
    """The one place a run draws and logs its per-iteration releases, after
    its initial loss's (see _releases).  log is the run's releases so far in
    count form; each StepRecord keeps it, and the run's notion converts it.
    factor multiplies every noise scale: 1 draws from the plan, 0 draws
    nothing (--zero-noise); a zero-noise run logs as a noisy one."""

    def __init__(self, releases, plan: NoisePlan, sens, rng: SeededRng, factor: float):
        self.plan, self.rng, self.factor = plan, rng, factor
        self.grad_scale = factor * sens.delta_g * plan.sigma_g
        self.hess_scale = factor * sens.delta_h * plan.sigma_h
        f0, self._begun, self._curvature = releases
        self.log = (f0,)

    def gradient_noise(self, d: int) -> np.ndarray:
        noise = gaussian_vector(d, self.grad_scale, self.rng)
        self.log = tuple(tally(self.log + self._begun))
        return noise

    def hessian_noise(self, d: int) -> WignerOperator:
        op = WignerOperator(d, self.hess_scale, self.rng.child())
        self.log = tuple(tally(self.log + self._curvature))
        return op

    def sweep(self, query, sensitivity: float, gamma_init: float, gamma_bar: float, beta: float):
        return dp_line_search(query, self.factor * sensitivity, gamma_init, gamma_bar,
                              beta, self.plan.lambda_svt, self.rng)


# noise_mode -> the factor on every noise scale of a run
_NOISE_FACTORS = {"standard": 1.0, "zero": 0.0}


# ---------------------------------------------------------------------------
# core loop


def _run_core(loop: str, model: LossModel, dataset: Dataset, w0: np.ndarray,
              constants: AlgorithmConstants, budget: Budget, rng: SeededRng,
              memo: MarginMemo, *, selector: BatchSelector | None = None,
              noise_mode: str = "standard", lanczos: bool = False,
              t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    n, d = dataset.n, dataset.d
    selector = selector or BatchSelector()
    m = selector.batch_size(n)
    line_search = loop == "line_search"
    sens_batch = sensitivities(model, m, d)
    warnings_acc: list[str] = []

    w = np.asarray(w0, dtype=float).copy()
    if w.shape != (d,):
        raise ValueError(f"w0 must have shape ({d},)")
    # before any data pass or calibration: a bad mode is not worth an RDP
    # tune, and an infeasible budget must not hide it
    if noise_mode not in _NOISE_FACTORS:
        raise ValueError(f"unknown noise mode {noise_mode!r}")
    noise_factor = _NOISE_FACTORS[noise_mode]
    notion = _notion(budget, m < n)

    # stage 1: perturb the initial loss, fix T, then calibrate the plan
    f0 = erm_value(model, dataset, w, memo=memo)
    z = gaussian(noise_factor * sensitivities(model, n, d).delta_f * budget.sigma_f, rng)
    derived = derive_constants(constants, model, loop, f0 + abs(z))
    t_est = derived.t_budget
    t_used = max(1, min(t_est, t_policy(t_est))) if t_policy is not None else t_est
    plan = budget.plan(t_used, m / n)

    if m < n:
        m_min = min_batch_size(model, constants, t_used, constants.eta, d)
        if m < m_min:
            warnings_acc.append(
                f"advisory-violated: batch size {m} is below the advised "
                f"minimum {m_min} for T = {t_used}")

    ledger = _Ledger(_releases(notion, budget, plan, t_used, line_search), plan, sens_batch,
                     rng, noise_factor)

    trace: list[StepRecord] = []
    status = "budget_exhausted"
    loss_now = f0
    w_good = w.copy()  # last iterate whose loss evaluated inside the box

    try:
        for k in range(t_used):
            indices = selector.indices(rng, n)
            g_noisy = (erm_gradient(model, dataset, w, indices, memo=memo)
                       + ledger.gradient_noise(d))
            g_norm = _require_finite(float(np.linalg.norm(g_noisy)),
                                     "noisy gradient norm", k)

            # a descent step along u: the negative noisy gradient, or else a
            # negative-curvature direction of the noisy Hessian
            if g_norm > constants.eps_g:
                kind, lambda_noisy = "gradient", None
                u, u_norm = -g_noisy, g_norm
                short, gamma_bar = 1.0 / model.G, derived.gamma_bar_g
                b, beta = constants.b_g, constants.beta_g

                def slack(gamma: float) -> float:
                    return constants.c_g * gamma * g_norm ** 2
            else:
                op = ledger.hessian_noise(d)
                if lanczos:
                    def hvp(v: np.ndarray) -> np.ndarray:
                        return _require_finite(
                            erm_hvp(model, dataset, w, v, indices, memo=memo)
                            + op.matvec(v), "noisy Hessian-vector product", k)

                    norm_bound = model.G + 3.0 * math.sqrt(d) * sens_batch.delta_h * plan.sigma_h
                    eig = lanczos_min_eig(hvp, d, norm_bound, constants.eps_h,
                                          constants.delta_l, rng)
                else:
                    h_noisy = _require_finite(
                        erm_hessian(model, dataset, w, indices, memo=memo)
                        + op.dense, "noisy Hessian", k)
                    eig = min_eigenpair_dense(h_noisy)
                lambda_noisy = _require_finite(eig.lambda_min, "noisy eigenvalue", k)
                if not decide_curvature(eig, constants.eps_h):
                    trace.append(StepRecord(k, "terminate", None, loss_now, loss_now,
                                            g_norm, lambda_noisy, 0, ledger.log))
                    status = "converged_2s"
                    break
                lam_abs = abs(lambda_noisy)
                kind = "negative_curvature"
                u, u_norm = orient(eig.direction, g_noisy), 1.0
                short, gamma_bar = 2.0 * lam_abs / model.M, derived.t2 * lam_abs / model.M
                b, beta = constants.b_h, constants.beta_h

                def slack(gamma: float) -> float:
                    return 0.5 * constants.c_h * gamma ** 2 * lam_abs

            gamma, probes = short, 0
            if line_search:
                def query(gamma: float) -> float:
                    return loss_now - erm_value(model, dataset, w + gamma * u,
                                                memo=memo) - slack(gamma)

                gamma_init = b * gamma_bar
                ls = ledger.sweep(query, 2.0 / n * gamma_init * model.B_g * u_norm,
                                  gamma_init, gamma_bar, beta)
                gamma, probes = ls.gamma, ls.probes
            w = w + gamma * u
            loss_after = erm_value(model, dataset, w, memo=memo)
            w_good = w.copy()
            trace.append(StepRecord(k, kind, gamma, loss_now, loss_after, g_norm,
                                    lambda_noisy, probes, ledger.log))
            loss_now = loss_after
    except (WeightBoxError, _NonFiniteRelease) as err:
        # abort, but hand back the last iterate whose loss was evaluated
        warnings_acc.append(str(err))
        status = "failed_termination"
        w = w_good

    return RunOutcome(status, w, tuple(trace), ledger.log, account_run(ledger.log, notion),
                      plan, t_used, z, erm_value(model, dataset, w, memo=memo),
                      tuple(warnings_acc))


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
    minibatch: bool = False       # draws mini-batches, so it needs a BatchSelector
    two_phase: bool = False       # an optimistic phase, then a fallback phase


_MINIBATCH_POLICIES = (ShortStepBudget, SubsampledDpBudget, RdpTuneBudget)

# a NoisePlan is used as given, so it cannot be split into two phases
VARIANTS = {
    "opt": Variant("short", (NoisePlan, ShortStepBudget)),
    "opt_b": Variant("short", (NoisePlan, *_MINIBATCH_POLICIES), minibatch=True),
    "opt_ls": Variant("line_search", (NoisePlan, LineSearchBudget)),
    "2opt": Variant("short", (ShortStepBudget,), two_phase=True),
    "2opt_b": Variant("short", _MINIBATCH_POLICIES, minibatch=True, two_phase=True),
    "2opt_ls": Variant("line_search", (LineSearchBudget,), two_phase=True),
}


def run_variant(name: str, model: LossModel, dataset: Dataset, w0,
                constants: AlgorithmConstants, budget: Budget, rng: SeededRng, *,
                selector: BatchSelector | None = None, noise_mode: str = "standard",
                lanczos: bool = False, t_policy: Callable[[int], int] | None = None,
                budget_split: float = 0.75) -> RunOutcome:
    """Run the public solver name, a key of VARIANTS.

    The mini-batch variants need a selector and the others take none.
    Above objective.DENSE_HESSIAN_CAP the curvature check needs lanczos.
    The run accounts in the budget's own notion (see _notion).  t_policy caps
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
    if not lanczos and dataset.d > DENSE_HESSIAN_CAP:
        raise ValueError(f"d = {dataset.d} is above the dense Hessian cap {DENSE_HESSIAN_CAP}: "
                         "run with lanczos=True")

    # one pass over X per (iterate, batch): the loss at w also makes the
    # gradient at w, the curvature reuses its margins, an accepted line-search
    # probe's point is bit-identical to the next iterate, and phase 2's
    # initial loss is phase 1's final one
    memo = MarginMemo(model, dataset)

    def run(w_start, bud: Budget, policy) -> RunOutcome:
        return _run_core(variant.loop, model, dataset, w_start, constants, bud, rng, memo,
                         selector=selector, noise_mode=noise_mode, lanczos=lanczos,
                         t_policy=policy)

    if not variant.two_phase:
        return run(w0, budget, t_policy)
    if not (0.0 < budget_split < 1.0):
        raise ValueError("budget_split must lie in (0, 1)")
    phase1 = run(w0, budget.scaled(budget_split), t_policy or default_phase1_policy)
    if phase1.converged:
        return replace(phase1, phases=(phase1,))
    phase2 = run(phase1.w_final, budget.scaled(1.0 - budget_split), None)
    trace = phase1.trace + tuple(
        replace(r, k=r.k + phase1.iterations, releases=tuple(tally(phase1.releases + r.releases)))
        for r in phase2.trace)
    releases = tuple(tally(phase1.releases + phase2.releases))
    return replace(
        phase2, trace=trace, releases=releases,
        accounted_privacy=account_run(releases, type(phase2.accounted_privacy)),
        t_budget=phase1.t_budget + phase2.t_budget, z_draw=phase1.z_draw,
        warnings=phase1.warnings + phase2.warnings, phases=(phase1, phase2))


def run_short_step(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                   budget: Budget, rng: SeededRng, *, noise_mode: str = "standard",
                   lanczos: bool = False,
                   t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    """Fixed-step variant: gamma_g = 1/G, gamma_H = 2 |lambda| / M."""
    return run_variant("opt", model, dataset, w0, constants, budget, rng,
                       noise_mode=noise_mode, lanczos=lanczos, t_policy=t_policy)


def run_line_search(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                    budget: Budget, rng: SeededRng, *, noise_mode: str = "standard",
                    lanczos: bool = False,
                    t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    """Backtracking variant: private SVT line searches with short-step-like
    fallbacks gamma_bar_g and gamma_bar_H = t2 |lambda| / M."""
    return run_variant("opt_ls", model, dataset, w0, constants, budget, rng,
                       noise_mode=noise_mode, lanczos=lanczos, t_policy=t_policy)


def run_minibatch(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                  budget: Budget, selector: BatchSelector, rng: SeededRng, *,
                  accounting: str | None = None, noise_mode: str = "standard",
                  lanczos: bool = False,
                  t_policy: Callable[[int], int] | None = None) -> RunOutcome:
    """Short-step variant on per-iteration without-replacement mini-batches.

    Sensitivities scale with the batch size.  The run accounts in its
    budget's notion, which accounting may only restate; a zCDP budget needs
    a batch of all n rows.  A batch below the advised minimum size only
    flags the outcome.
    """
    if accounting is not None and accounting != budget.accounting:
        raise ValueError(f"the budget accounts in {budget.accounting}, not {accounting!r}")
    return run_variant("opt_b", model, dataset, w0, constants, budget, rng,
                       selector=selector, noise_mode=noise_mode, lanczos=lanczos,
                       t_policy=t_policy)


# run_two_phase's variant argument names the method its phases run
_TWO_PHASE = {"short": "2opt", "line_search": "2opt_ls", "minibatch": "2opt_b"}


def run_two_phase(model: LossModel, dataset: Dataset, w0, constants: AlgorithmConstants,
                  budget: Budget, rng: SeededRng, *, variant: str = "short",
                  budget_split: float = 0.75,
                  phase1_t_policy: Callable[[int], int] = default_phase1_policy,
                  selector: BatchSelector | None = None, accounting: str | None = None,
                  noise_mode: str = "standard", lanczos: bool = False) -> RunOutcome:
    """Optimistic-then-fallback strategy.

    Phase 1 spends budget_split of the budget on a reduced iteration count
    (default ceil(sqrt(T))).  If it does not converge, phase 2 re-runs the
    full method from the phase-1 iterate with the remaining budget and a
    fresh worst-case T.  The combined outcome concatenates both traces and
    joins both phases' releases, converted once into its ledger.

    variant selects the underlying method: "short", "line_search", or
    "minibatch" (which needs selector).  accounting is as in run_minibatch.
    """
    if variant not in _TWO_PHASE:
        raise ValueError(f"unknown variant {variant!r}")
    if accounting is not None and accounting != budget.accounting:
        raise ValueError(f"the budget accounts in {budget.accounting}, not {accounting!r}")
    return run_variant(_TWO_PHASE[variant], model, dataset, w0, constants, budget, rng,
                       selector=selector, noise_mode=noise_mode, lanczos=lanczos,
                       t_policy=phase1_t_policy, budget_split=budget_split)
