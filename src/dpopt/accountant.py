"""Privacy arithmetic for the optimization runs.

Three budget notions are tracked and converted between:

  * zCDP with parameter rho, additive under composition.  The Gaussian
    mechanism at noise multiplier sigma costs 1/(2 sigma^2); a sparse-vector
    sweep at parameter lam is (1/lam)-DP and hence (1/(2 lam^2))-zCDP.
  * RDP curves eps(alpha) over a grid of orders alpha > 1, pointwise
    additive.  Subsampling without replacement amplifies per-order leakage
    through a binomial-sum bound evaluated here in log space.
  * approximate DP pairs (epsilon, delta), the reporting notion.

The plan_* helpers calibrate noise multipliers so that a run of at most T
iterations stays inside a given budget; account_run recomputes the leakage
of a finished run from its step counts.

Everything here is a pure function over frozen dataclasses; the module is
safe to use from any number of threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import gammaln, logsumexp

# Integer Renyi orders used by default.  The without-replacement subsampling
# bound is stated for integer alpha >= 2 only, so conversions stay on this
# grid; it covers the practical (epsilon, delta) range.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 65)) + (128, 256)


class InfeasiblePlanError(ValueError):
    """No plan on the searched grid meets the privacy target."""


@dataclass(frozen=True)
class ZCdp:
    """A zCDP budget; rho adds up under composition."""

    rho: float

    def __post_init__(self):
        if not (self.rho >= 0.0):
            raise ValueError(f"rho must be nonnegative, got {self.rho}")


@dataclass(frozen=True, eq=False)
class RdpCurve:
    """Per-order Renyi leakage eps(alpha) on a fixed ascending grid."""

    orders: np.ndarray
    epsilons: np.ndarray

    def __post_init__(self):
        orders = np.asarray(self.orders, dtype=float)
        epsilons = np.asarray(self.epsilons, dtype=float)
        if orders.ndim != 1 or orders.size == 0:
            raise ValueError("orders must be a nonempty 1-d sequence")
        if orders.shape != epsilons.shape:
            raise ValueError("orders and epsilons must have the same length")
        if np.any(orders <= 1.0):
            raise ValueError("all orders must be > 1")
        if np.any(np.diff(orders) <= 0):
            raise ValueError("orders must be strictly ascending")
        if np.any(epsilons < 0):
            raise ValueError("all eps(alpha) must be nonnegative")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "epsilons", epsilons)

    def same_grid(self, other: "RdpCurve") -> bool:
        return np.array_equal(self.orders, other.orders)


@dataclass(frozen=True)
class ApproxDp:
    """An (epsilon, delta)-DP budget."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class NoisePlan:
    """Unitless noise multipliers for one run.

    Actual noise scales are multiplier times the query sensitivity.
    lambda_svt is None for plans whose variant performs no line search.
    A plan is also a run's budget, used as given (see optimizer.runs): it
    accounts in zCDP by default and cannot be split into phases.
    """

    sigma_f: float
    sigma_g: float
    sigma_h: float
    lambda_svt: float | None = None
    subsample_fraction: float = 1.0
    accounting: ClassVar[str] = "zcdp"

    def __post_init__(self):
        for name in ("sigma_f", "sigma_g", "sigma_h"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")
        if self.lambda_svt is not None and not (self.lambda_svt > 0):
            raise ValueError("lambda_svt must be positive when set")
        if not (0.0 < self.subsample_fraction <= 1.0):
            raise ValueError("subsample_fraction must lie in (0, 1]")

    def plan(self, t_budget: int, s: float) -> NoisePlan:
        if not math.isclose(self.subsample_fraction, s, rel_tol=1e-12):
            raise ValueError(
                f"plan subsample_fraction {self.subsample_fraction} does not "
                f"match the selector fraction {s}")
        return self

    def scaled(self, fraction: float):
        raise TypeError("two-phase runs need a budget policy, not a raw NoisePlan")


# ---------------------------------------------------------------------------
# single-mechanism budgets and conversions


def gaussian_mechanism_zcdp(sigma: float) -> ZCdp:
    """Gaussian mechanism at noise multiplier sigma: rho = 1/(2 sigma^2)."""
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    return ZCdp(1.0 / (2.0 * sigma * sigma))


def pure_dp_to_zcdp(epsilon: float) -> ZCdp:
    """An epsilon-DP mechanism is (epsilon^2 / 2)-zCDP."""
    if not (epsilon >= 0):
        raise ValueError("epsilon must be nonnegative")
    return ZCdp(0.5 * epsilon * epsilon)


def svt_zcdp(lam: float) -> ZCdp:
    """One sparse-vector sweep at parameter lam is (1/lam)-DP, so 1/(2 lam^2)-zCDP."""
    if not (lam > 0):
        raise ValueError("lambda must be positive")
    return pure_dp_to_zcdp(1.0 / lam)


def gaussian_rdp_curve(sigma: float, orders=DEFAULT_ORDERS) -> RdpCurve:
    """Analytic Gaussian curve eps(alpha) = alpha / (2 sigma^2)."""
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    orders = np.asarray(orders, dtype=float)
    return RdpCurve(orders, orders / (2.0 * sigma * sigma))


def compose(budgets):
    """Sum a nonempty sequence of same-kind budgets.

    ZCdp composes by adding rho, RdpCurve pointwise on identical order
    grids, ApproxDp by basic composition (epsilons and deltas add).
    """
    budgets = list(budgets)
    if not budgets:
        raise ValueError("nothing to compose")
    first = budgets[0]
    if isinstance(first, ZCdp):
        if not all(isinstance(b, ZCdp) for b in budgets):
            raise TypeError("cannot mix budget kinds in one composition")
        return ZCdp(math.fsum(b.rho for b in budgets))
    if isinstance(first, RdpCurve):
        if not all(isinstance(b, RdpCurve) for b in budgets):
            raise TypeError("cannot mix budget kinds in one composition")
        for b in budgets[1:]:
            if not first.same_grid(b):
                raise ValueError("RDP curves must share the same order grid")
        total = np.sum([b.epsilons for b in budgets], axis=0)
        return RdpCurve(first.orders.copy(), total)
    if isinstance(first, ApproxDp):
        if not all(isinstance(b, ApproxDp) for b in budgets):
            raise TypeError("cannot mix budget kinds in one composition")
        return ApproxDp(math.fsum(b.epsilon for b in budgets), math.fsum(b.delta for b in budgets))
    raise TypeError(f"unsupported budget type {type(first)!r}")


def zcdp_to_approx_dp(budget: ZCdp, delta: float) -> ApproxDp:
    """rho-zCDP implies (rho + sqrt(4 rho log(1/delta)), delta)-DP."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    rho = budget.rho
    eps = rho + math.sqrt(4.0 * rho * math.log(1.0 / delta))
    return ApproxDp(eps, delta)


def approx_dp_to_zcdp(target: ApproxDp) -> ZCdp:
    """Smallest rho whose zCDP-to-DP conversion meets the (eps, delta) target.

    Uses the exact expression (sqrt(eps + log(1/delta)) - sqrt(log(1/delta)))^2,
    not its quadratic approximation.
    """
    if not (target.epsilon > 0):
        raise ValueError("epsilon must be positive")
    log1d = math.log(1.0 / target.delta)
    root = math.sqrt(target.epsilon + log1d) - math.sqrt(log1d)
    return ZCdp(root * root)


def rdp_to_approx_dp(curve: RdpCurve, delta: float) -> tuple[ApproxDp, float]:
    """Tightest (eps, delta) over the curve's grid; returns (budget, best alpha)."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    log1d = math.log(1.0 / delta)
    candidates = curve.epsilons + log1d / (curve.orders - 1.0)
    best = int(np.argmin(candidates))
    return ApproxDp(float(candidates[best]), delta), float(curve.orders[best])


# ---------------------------------------------------------------------------
# subsampling amplification (without replacement)


def _log_expm1(x: float) -> float:
    # log(e^x - 1), stable for both tiny and large x
    if x > 30.0:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def _log_binom(n: int, k: int) -> float:
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


def subsampled_gaussian_rdp(alpha: int, sigma: float, s: float) -> float:
    """Order-alpha RDP of a Gaussian mechanism run on a without-replacement
    subsample with sampling fraction s = m/n.

    Evaluates the binomial-sum amplification bound for integer alpha >= 2
    with the Gaussian base curve eps(j) = j / (2 sigma^2).  The j-sum is
    accumulated in log space; e^{(j-1) j / (2 sigma^2)} overflows otherwise.
    """
    if int(alpha) != alpha or alpha < 2:
        raise ValueError("alpha must be an integer >= 2")
    alpha = int(alpha)
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    if not (0.0 < s <= 1.0):
        raise ValueError("s must lie in (0, 1]")
    inv = 1.0 / (sigma * sigma)
    log_s = math.log(s)
    # j = 2 term: s^2 C(alpha,2) min{4 (e^{1/sigma^2} - 1), 2 e^{1/sigma^2}}
    log_min = min(math.log(4.0) + _log_expm1(inv), math.log(2.0) + inv)
    terms = [0.0, 2.0 * log_s + _log_binom(alpha, 2) + log_min]
    # j >= 3 terms: 2 s^j C(alpha,j) e^{(j-1) j / (2 sigma^2)}
    for j in range(3, alpha + 1):
        terms.append(math.log(2.0) + j * log_s + _log_binom(alpha, j) + (j - 1) * j * inv / 2.0)
    return float(logsumexp(terms)) / (alpha - 1)


def subsampled_gaussian_rdp_curve(sigma: float, s: float, orders=DEFAULT_ORDERS) -> RdpCurve:
    orders = tuple(int(a) for a in orders)
    eps = np.array([subsampled_gaussian_rdp(a, sigma, s) for a in orders])
    return RdpCurve(np.asarray(orders, dtype=float), eps)


# ---------------------------------------------------------------------------
# noise-plan calibration

_SIGMA_WARN = 1e6


def plan_short_step(budget: ZCdp, c_f: float, t_budget: int) -> NoisePlan:
    """Multipliers for a T-iteration short-step run under rho-zCDP.

    sigma_f^2 = 1/(2 c_f rho) spends the fraction c_f on the initial loss
    perturbation; sigma_g^2 = sigma_h^2 = T / ((1 - c_f) rho) covers up to T
    gradient and T Hessian draws.
    """
    rho = budget.rho
    if not (rho > 0):
        raise ValueError("rho must be positive")
    if not (0.0 < c_f < 1.0):
        raise ValueError("c_f must lie in (0, 1)")
    if t_budget < 1:
        raise ValueError("t_budget must be >= 1")
    sigma_f = math.sqrt(1.0 / (2.0 * c_f * rho))
    sigma_gh = math.sqrt(t_budget / ((1.0 - c_f) * rho))
    return NoisePlan(sigma_f, sigma_gh, sigma_gh, lambda_svt=None, subsample_fraction=1.0)


def plan_line_search(budget: ZCdp, rho_f: float, t_budget: int) -> NoisePlan:
    """Multipliers for a T-iteration line-search run under rho-zCDP.

    sigma_g^2 = sigma_h^2 = lambda^2 = 3T / (2 (rho - rho_f)); the factor 3
    covers the gradient, Hessian, and sparse-vector charge per iteration.
    """
    rho = budget.rho
    if not (0.0 < rho_f < rho):
        raise ValueError("rho_f must lie in (0, rho)")
    if t_budget < 1:
        raise ValueError("t_budget must be >= 1")
    sigma_f = math.sqrt(1.0 / (2.0 * rho_f))
    sigma = math.sqrt(3.0 * t_budget / (2.0 * (rho - rho_f)))
    if sigma > _SIGMA_WARN:
        warnings.warn(
            f"line-search noise multiplier {sigma:.3g} exceeds {_SIGMA_WARN:.0e}; "
            "the remaining budget rho - rho_f is nearly exhausted",
            RuntimeWarning,
            stacklevel=2,
        )
    return NoisePlan(sigma_f, sigma, sigma, lambda_svt=sigma, subsample_fraction=1.0)


def subsampled_dp_split(target: ApproxDp, eps_f: float, delta_f: float, s: float,
                        t_budget: int) -> tuple[float, float]:
    """Per-iteration (eps0, delta0) for the subsampled plan under (eps, delta)-DP."""
    eps, delta = target.epsilon, target.delta
    if not (0.0 < eps_f < eps) or not (0.0 < delta_f < delta):
        raise ValueError("need 0 < eps_f < eps and 0 < delta_f < delta")
    if not (eps - eps_f < 1.0):
        raise ValueError("advanced composition requires the per-run budget "
                         "eps - eps_f to lie in (0, 1)")
    if not (0.0 < s <= 1.0):
        raise ValueError("s must lie in (0, 1]")
    if t_budget < 1:
        raise ValueError("t_budget must be >= 1")
    eps0 = (eps - eps_f) / (8.0 * s * math.sqrt(2.0 * t_budget * math.log(2.0 / (delta - delta_f))))
    delta0 = (delta - delta_f) / (4.0 * s * t_budget)
    return eps0, delta0


def plan_subsampled_dp(target: ApproxDp, eps_f: float, delta_f: float, s: float,
                       t_budget: int) -> NoisePlan:
    """Multipliers for a T-iteration subsampled short-step run under (eps, delta)-DP.

    Splits off (eps_f, delta_f) for the initial loss perturbation and sizes
    the per-iteration Gaussians by advanced composition plus amplification
    by subsampling.  Warns when the per-iteration eps0 reaches 1, where the
    classical Gaussian-mechanism calibration stops being valid.
    """
    eps0, delta0 = subsampled_dp_split(target, eps_f, delta_f, s, t_budget)
    if eps0 >= 1.0:
        warnings.warn(
            f"per-iteration eps0 = {eps0:.3g} >= 1 violates the Gaussian-mechanism "
            "precondition; the plan is not a valid (eps, delta)-DP calibration",
            RuntimeWarning,
            stacklevel=2,
        )
    sigma_f = math.sqrt(2.0 * math.log(1.25 / delta_f)) / eps_f
    sigma_gh = math.sqrt(2.0 * math.log(1.25 / delta0)) / eps0
    return NoisePlan(sigma_f, sigma_gh, sigma_gh, lambda_svt=None, subsample_fraction=s)


def account_subsampled_dp(k: int, target: ApproxDp, eps_f: float, delta_f: float,
                          s: float, t_budget: int) -> ApproxDp:
    """Realized (eps, delta) spend of a subsampled run after k iterations.

    Re-applies advanced composition with the actual iteration count k <= T;
    at k = T this returns exactly the planned target.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return ApproxDp(eps_f, delta_f)
    eps0, delta0 = subsampled_dp_split(target, eps_f, delta_f, s, t_budget)
    eps = eps_f + 8.0 * s * eps0 * math.sqrt(2.0 * k * math.log(2.0 / (target.delta - delta_f)))
    delta = delta_f + 2.0 * s * delta0 * k + (target.delta - delta_f) / 2.0
    return ApproxDp(eps, delta)


def combined_sigma(sigma_g: float, sigma_h: float) -> float:
    """Effective multiplier of one iteration that draws both noises:
    1/sigma^2 = 1/sigma_g^2 + 1/sigma_h^2."""
    return 1.0 / math.sqrt(1.0 / sigma_g ** 2 + 1.0 / sigma_h ** 2)


def minibatch_rdp_curve(k_g: int, k_h: int, plan: NoisePlan, orders=DEFAULT_ORDERS) -> RdpCurve:
    """Composed RDP curve of a subsampled run: the full-batch initial loss
    perturbation plus k_g gradient-only and k_h gradient+Hessian iterations."""
    orders_f = np.asarray(orders, dtype=float)
    eps = orders_f / (2.0 * plan.sigma_f ** 2)
    s = plan.subsample_fraction
    if k_g > 0:
        eps = eps + k_g * subsampled_gaussian_rdp_curve(plan.sigma_g, s, orders).epsilons
    if k_h > 0:
        sigma_gh = combined_sigma(plan.sigma_g, plan.sigma_h)
        eps = eps + k_h * subsampled_gaussian_rdp_curve(sigma_gh, s, orders).epsilons
    return RdpCurve(orders_f, eps)


def account_run(k_g: int, k_h: int, plan: NoisePlan, mode: str = "short",
                orders=DEFAULT_ORDERS):
    """Post-hoc leakage of a run with k_g gradient-only iterations and k_h
    iterations that also drew a Hessian (curvature steps and the final check).

    Modes: "short" and "line_search" return ZCdp; "minibatch" returns the
    composed RDP curve.  Every iteration draws a gradient, so k_g + k_h
    gradient draws are charged; line-search mode additionally charges
    (k_g + k_h) sparse-vector sweeps, which over-counts by at most one sweep
    on converged runs (the terminal check performs no line search).
    """
    if k_g < 0 or k_h < 0:
        raise ValueError("step counts must be nonnegative")
    if mode == "short":
        rho = 0.5 * (1.0 / plan.sigma_f ** 2
                     + (k_g + k_h) / plan.sigma_g ** 2
                     + k_h / plan.sigma_h ** 2)
        return ZCdp(rho)
    if mode == "line_search":
        if plan.lambda_svt is None:
            raise ValueError("line_search accounting needs lambda_svt in the plan")
        rho = 0.5 * (1.0 / plan.sigma_f ** 2
                     + (k_g + k_h) / plan.sigma_g ** 2
                     + k_h / plan.sigma_h ** 2
                     + (k_g + k_h) / plan.lambda_svt ** 2)
        return ZCdp(rho)
    if mode == "minibatch":
        return minibatch_rdp_curve(k_g, k_h, plan, orders)
    raise ValueError(f"unknown accounting mode {mode!r}")


# ---------------------------------------------------------------------------
# grid tuning for the subsampled (RDP-accounted) variant


def _default_sigma_grid(lo: float = 0.5, hi: float = 2e4, num: int = 81) -> np.ndarray:
    return np.geomspace(lo, hi, num)


def tune_noise_plan(target: ApproxDp, s: float, t_budget: int,
                    sigma_grid=None, sigma_f_grid=None,
                    orders=DEFAULT_ORDERS) -> NoisePlan:
    """Smallest grid multipliers whose worst-case T-iteration subsampled
    curve converts to at most the (eps, delta) target.

    Deterministic coordinate descent on log-spaced grids: start from the
    largest (most conservative) multipliers and lower one coordinate at a
    time while the converted eps stays within target, preferring small
    sigma_g (the per-iterate noise) over small sigma_f.  Raises
    InfeasiblePlanError when even the largest grid point leaks too much.
    """
    if not (0.0 < s <= 1.0):
        raise ValueError("s must lie in (0, 1]")
    if t_budget < 1:
        raise ValueError("t_budget must be >= 1")
    sigma_grid = np.sort(np.asarray(sigma_grid if sigma_grid is not None else _default_sigma_grid(), dtype=float))
    sigma_f_grid = np.sort(np.asarray(sigma_f_grid if sigma_f_grid is not None else _default_sigma_grid(), dtype=float))
    if sigma_grid.size == 0 or sigma_f_grid.size == 0:
        raise ValueError("grids must be nonempty")

    def feasible(i_f: int, i_g: int) -> bool:
        plan = NoisePlan(float(sigma_f_grid[i_f]), float(sigma_grid[i_g]),
                         float(sigma_grid[i_g]), None, s)
        curve = minibatch_rdp_curve(t_budget, t_budget, plan, orders)
        converted, _ = rdp_to_approx_dp(curve, target.delta)
        return converted.epsilon <= target.epsilon

    i_f, i_g = len(sigma_f_grid) - 1, len(sigma_grid) - 1
    if not feasible(i_f, i_g):
        raise InfeasiblePlanError(
            f"no plan on the grid meets eps <= {target.epsilon} at delta = {target.delta} "
            f"(s = {s}, T = {t_budget})")
    moved = True
    while moved:
        moved = False
        while i_g > 0 and feasible(i_f, i_g - 1):
            i_g -= 1
            moved = True
        while i_f > 0 and feasible(i_f - 1, i_g):
            i_f -= 1
            moved = True
    sigma = float(sigma_grid[i_g])
    return NoisePlan(float(sigma_f_grid[i_f]), sigma, sigma, None, s)
