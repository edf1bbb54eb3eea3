"""Privacy arithmetic for the optimization runs.

A run's releases are a log of Release entries (mechanism, parameters,
sampling fraction, count), and each of three notions is one function of a
log, account_run(log, notion) = notion.of(log):

  * ZCdp: rho, additive.  A Gaussian or Wigner draw at multiplier sigma
    costs 1/(2 sigma^2); a sparse-vector sweep at lam is (1/lam)-DP and
    hence costs 1/(2 lam^2).
  * RdpCurve: eps(alpha) over the orders alpha of DEFAULT_ORDERS, pointwise
    additive.  Subsampling without replacement amplifies per-order leakage
    through a binomial-sum bound, one log-space array over the orders.
  * ApproxDp: (epsilon, delta), the reporting notion.

A run's ledger is the one conversion of its releases in count form,
tally(log); a two-phase run's releases join both phases'.  spent(delta) is
the scalar a report shows: rho, the curve's epsilon at delta, or epsilon.

An optimizer.runs.Budget plans by one rule, calibrate, unless its
(epsilon, delta) target composes by advanced composition: the least
multiplier at which the run's worst-case log, converted by the notion that
converts a run's log, spends at most the target (tune_noise_plan is its
use on the RDP curve).

Everything here is a pure function over frozen dataclasses; the module is
safe to use from any number of threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np
from scipy.special import logsumexp

# Integer Renyi orders used by default.  The without-replacement subsampling
# bound is stated for integer alpha >= 2 only, so conversions stay on this
# grid; it covers the practical (epsilon, delta) range.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 65)) + (128, 256)
_ORDERS = np.asarray(DEFAULT_ORDERS, dtype=float)
_ORDERS.flags.writeable = False


class InfeasiblePlanError(ValueError):
    """No valid plan meets the privacy target: none in the searched bracket,
    or none whose calibration preconditions hold."""


# the order in which every notion sums a log's releases
MECHANISMS = ("gaussian", "wigner", "svt", "dp")


class Release(NamedTuple):
    """count releases of one mechanism, by params: "gaussian" (sigma,);
    "wigner" (sigma_h, sigma_g), drawn on the batch of a gradient at sigma_g;
    "svt" (lam,), a (1/lam)-DP sweep; "dp" (eps, delta), or on a batch
    (eps0, delta0, delta_rest), one step of an advanced composition that
    spends delta_rest.  fraction None is the unamplified cost; a float is
    the sampling fraction of the release's batch, whose amplified bound is
    charged, at s = 1 too (full-batch plans log their iterations at 1.0)."""

    mechanism: str
    params: tuple
    fraction: float | None = None
    count: int = 1


def tally(log) -> list[Release]:
    """The log with equal releases merged and zero counts dropped, in
    MECHANISMS order: a log and its count form convert to the same bits."""
    counts: Counter = Counter()
    for r in log:
        counts[r[:3]] += r.count
    releases = [Release(*key, count) for key, count in counts.items() if count]
    for r in releases:
        if r.mechanism not in MECHANISMS or r.count < 0 or not all(
                0.0 < p < math.inf for p in r.params):
            raise ValueError(f"not a valid release: {r}")
    return sorted(releases, key=lambda r: MECHANISMS.index(r.mechanism))


@dataclass(frozen=True)
class ZCdp:
    """A zCDP budget; rho adds up under composition."""

    rho: float

    def __post_init__(self):
        if not (self.rho >= 0.0):
            raise ValueError(f"rho must be nonnegative, got {self.rho}")

    @classmethod
    def of(cls, log) -> "ZCdp":
        """0.5 sum count / p^2, p a Gaussian's sigma, a Wigner draw's sigma_h
        or a sweep's lam; zCDP claims no amplification."""
        total = 0.0
        for r in tally(log):
            if r.mechanism == "dp":
                raise ValueError("an (eps, delta) release has no zCDP cost")
            total = total + r.count / r.params[0] ** 2
        return cls(0.5 * total)

    def spent(self, delta: float) -> float:
        return self.rho


@dataclass(frozen=True, eq=False)
class RdpCurve:
    """Per-order Renyi leakage eps(alpha), one value per order of DEFAULT_ORDERS."""

    orders: ClassVar[np.ndarray] = _ORDERS
    epsilons: np.ndarray

    def __post_init__(self):
        epsilons = np.asarray(self.epsilons, dtype=float)
        if epsilons.shape != self.orders.shape:
            raise ValueError(f"need one eps(alpha) per order, got shape {epsilons.shape}")
        if not np.all(epsilons >= 0):
            raise ValueError("all eps(alpha) must be nonnegative")
        object.__setattr__(self, "epsilons", epsilons)

    @classmethod
    def of(cls, log) -> "RdpCurve":
        """A Gaussian costs alpha / (2 sigma^2) at fraction None and the
        subsampled bound at a fraction.  A Wigner draw (sigma_h, sigma_g) and
        a gradient at sigma_g on its batch are one release, at combined_sigma
        of their multipliers; the gradients left unpaired are charged alone."""
        releases = tally(log)
        alone = Counter()  # by (sigma_g,) and fraction: gradients less Wigner draws
        for mechanism, params, s, count in releases:
            if mechanism not in ("gaussian", "wigner"):
                raise ValueError(f"a {mechanism} release has no RDP cost here")
            alone[params[-1:], s] += count if mechanism == "gaussian" else -count
        if min(alone.values(), default=0) < 0:
            raise ValueError("more Wigner draws than gradients on their batches")
        eps = np.zeros_like(cls.orders)
        for mechanism, params, s, count in releases:
            if mechanism == "wigner":
                sigma = combined_sigma(params[1], params[0])
            else:
                sigma, count = params[0], alone[params, s]
            if s is None:
                eps = eps + count * (cls.orders / (2.0 * sigma ** 2))
            elif count:
                eps = eps + count * subsampled_gaussian_rdp_curve(sigma, s).epsilons
        return cls(eps)

    def spent(self, delta: float) -> float:
        return rdp_to_approx_dp(self, delta)[0].epsilon


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

    @classmethod
    def of(cls, log) -> "ApproxDp":
        """Whole-dataset releases add up; k steps on batches at fraction s,
        each pricing both draws of an iteration (optimizer.runs.Budget.step),
        compose by advanced composition after amplification, to the plan's
        target at k = T."""
        eps = delta = 0.0
        for mechanism, params, s, k in tally(log):
            if mechanism != "dp":
                raise ValueError(f"a {mechanism} release has no (eps, delta) cost here")
            if s is None:
                eps, delta = eps + k * params[0], delta + k * params[1]
            else:
                eps0, delta0, rest = params
                eps = eps + 8.0 * s * eps0 * math.sqrt(2.0 * k * math.log(2.0 / rest))
                delta = delta + 2.0 * s * delta0 * k + rest / 2.0
        return cls(eps, delta)

    def spent(self, delta: float) -> float:
        return self.epsilon


@dataclass(frozen=True)
class NoisePlan:
    """Unitless noise multipliers for one run.

    Actual noise scales are multiplier times the query sensitivity.
    lambda_svt is None for plans whose variant performs no line search.
    A plan is also a run's budget, used as given (see optimizer.runs), and
    no two-phase variant takes it.
    """

    sigma_f: float
    sigma_g: float
    sigma_h: float
    lambda_svt: float | None = None
    subsample_fraction: float = 1.0

    @property
    def accounting(self) -> str:  # a plan that samples accounts in RDP
        return "rdp" if self.subsample_fraction < 1.0 else "zcdp"

    def __post_init__(self):
        for name in ("sigma_f", "sigma_g", "sigma_h"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be positive and finite")
        if self.lambda_svt is not None and not (0 < self.lambda_svt < math.inf):
            raise ValueError("lambda_svt must be positive and finite when set")
        if not (0.0 < self.subsample_fraction <= 1.0):
            raise ValueError("subsample_fraction must lie in (0, 1]")

    def plan(self, t_budget: int, s: float, sweeps: int) -> NoisePlan:
        if not math.isclose(self.subsample_fraction, s, rel_tol=1e-12):
            raise ValueError(
                f"plan subsample_fraction {self.subsample_fraction} does not "
                f"match the selector fraction {s}")
        return self


# ---------------------------------------------------------------------------
# single-mechanism budgets and conversions


def gaussian_sigma_zcdp(rho: float) -> float:
    """The multiplier at which a Gaussian costs rho-zCDP: sqrt(1/(2 rho))."""
    return math.sqrt(1.0 / (2.0 * rho))


def gaussian_sigma_dp(epsilon: float, delta: float) -> float:
    """Classical (epsilon < 1, delta) Gaussian multiplier sqrt(2 log(1.25/delta))/epsilon."""
    return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


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

# log C(alpha, j) for the orders alpha of DEFAULT_ORDERS (rows) and
# j = 2 ... 256 (columns), logs of exact binomials, -inf where j > alpha
_J = np.arange(2, DEFAULT_ORDERS[-1] + 1)
_LOG_BINOM = np.array([[math.log(math.comb(a, j)) if j <= a else -math.inf for j in _J]
                       for a in DEFAULT_ORDERS])
# below this sigma the bound's largest exponent, 255 * 256 / (2 sigma^2), overflows
SIGMA_MIN = 2e-152


def subsampled_gaussian_rdp_curve(sigma: float, s: float) -> RdpCurve:
    """RDP curve of a Gaussian mechanism on a without-replacement subsample at
    fraction s = m/n: the binomial-sum bound (Wang, Balle & Kasiviswanathan
    2019) on the base curve j / (2 sigma^2), eps(alpha) = log(1 + sum of the
    j = 2 ... alpha terms) / (alpha - 1), as one log-space array over the orders."""
    if not (sigma >= SIGMA_MIN and 0.0 < s <= 1.0):
        raise ValueError(f"need sigma >= {SIGMA_MIN} (1/sigma^2 overflows the exponents below "
                         f"it) and s in (0, 1], got sigma = {sigma}, s = {s}")
    inv, log_s = 1.0 / (sigma * sigma), math.log(s)
    # j >= 3: 2 s^j C(alpha,j) e^{(j-1) j / (2 sigma^2)}
    terms = math.log(2.0) + _J * log_s + _LOG_BINOM + (_J - 1) * _J * inv / 2.0
    # j = 2: s^2 C(alpha,2) min{4 (e^{1/sigma^2} - 1), 2 e^{1/sigma^2}}; past 1/sigma^2 = log 2
    # the second is the smaller
    log_min = math.log(2.0) + inv
    if inv < 1.0:
        log_min = min(math.log(4.0) + math.log(math.expm1(inv)), log_min)
    terms[:, 0] = 2.0 * log_s + _LOG_BINOM[:, 0] + log_min
    # the 0 term, then j = 2, 3, ... in one sum
    return RdpCurve(logsumexp(np.hstack([np.zeros((len(_ORDERS), 1)), terms]), axis=1)
                    / (_ORDERS - 1.0))


def subsampled_gaussian_rdp(alpha: int, sigma: float, s: float) -> float:
    """subsampled_gaussian_rdp_curve(sigma, s) at alpha, one of DEFAULT_ORDERS."""
    if alpha not in DEFAULT_ORDERS:
        raise ValueError(f"alpha must be one of DEFAULT_ORDERS, got {alpha}")
    return float(subsampled_gaussian_rdp_curve(sigma, s).epsilons[DEFAULT_ORDERS.index(alpha)])


# ---------------------------------------------------------------------------
# a run's log


def combined_sigma(sigma_g: float, sigma_h: float) -> float:
    """Effective multiplier of one iteration that draws both noises:
    1/sigma^2 = 1/sigma_g^2 + 1/sigma_h^2."""
    return 1.0 / math.sqrt(1.0 / sigma_g ** 2 + 1.0 / sigma_h ** 2)


def run_log(plan: NoisePlan, k_g: int, k_h: int, sweeps: int = 0) -> list[Release]:
    """The log, in count form, of a run under plan with k_g gradient-only
    iterations, k_h that also drew a Hessian, and sweeps sweeps."""
    if min(k_g, k_h, sweeps) < 0 or (sweeps and plan.lambda_svt is None):
        raise ValueError("counts must be nonnegative, and sweeps need lambda_svt")
    s = plan.subsample_fraction
    return [Release("gaussian", (plan.sigma_f,)),
            Release("gaussian", (plan.sigma_g,), s, k_g + k_h),
            Release("wigner", (plan.sigma_h, plan.sigma_g), s, k_h),
            Release("svt", (plan.lambda_svt,), None, sweeps)]


def account_run(log, notion):
    """A run's ledger: its log converted by notion, ZCdp, RdpCurve or ApproxDp."""
    return notion.of(log)


# ---------------------------------------------------------------------------
# calibration: the least multiplier whose worst-case log meets a target

# the multipliers a bisecting calibration searches, and the width in log
# sigma it narrows them to
SIGMA_BRACKET = (0.5, 2e4)
SIGMA_RTOL = 2.0 ** -10


def calibrate(notion, target: float, delta: float | None, log_at) -> float:
    """The least multiplier sigma at which notion.of(log_at(sigma)), a run's
    worst-case log, spends at most target at delta.  In ZCdp every release
    of log_at(sigma) must be at sigma, so the cost is cost(1) / sigma^2 and
    sigma has a closed form.  Otherwise each cost falls as sigma grows, and
    bisection on log sigma over SIGMA_BRACKET to width SIGMA_RTOL returns
    the feasible end, or raises InfeasiblePlanError when the top is not."""
    if notion is ZCdp:
        return math.sqrt(notion.of(log_at(1.0)).spent(delta) / target)

    def feasible(sigma: float) -> bool:
        return notion.of(log_at(sigma)).spent(delta) <= target

    lo, hi = SIGMA_BRACKET
    if not feasible(hi):
        raise InfeasiblePlanError(f"no multiplier up to {hi} spends at most {target} "
                                  f"at delta = {delta}")
    if feasible(lo):
        return lo
    while math.log(hi / lo) > SIGMA_RTOL:  # lo infeasible, hi feasible
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
    return hi


def tune_noise_plan(target: ApproxDp, s: float, t_budget: int, sigma_f: float) -> NoisePlan:
    """The plan whose sigma_g = sigma_h is calibrated on the subsampled RDP
    curve to the (eps, delta) target.  The worst case is T curvature
    iterations, run_log(plan, 0, T): a run draws at most T gradients, and
    RdpCurve.of charges a Wigner draw with its gradient at combined_sigma,
    which leaks more than a lone gradient.  sigma_f is fixed in advance: the
    run noises its initial loss f0 before T, derived from the noised f0."""
    if t_budget < 1:  # s is checked by the plan
        raise ValueError("t_budget must be >= 1")
    sigma = calibrate(RdpCurve, target.epsilon, target.delta, lambda sigma: run_log(
        NoisePlan(sigma_f, sigma, sigma, None, s), 0, t_budget))
    return NoisePlan(float(sigma_f), sigma, sigma, None, s)
