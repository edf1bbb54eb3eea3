"""Algorithm constants and the closed-form quantities derived from them.

The constants c1, c2, c bound the relative size of the gradient and Hessian
noise; c_g, c_h set the sufficient-decrease slack of the line searches; b_g,
b_h (> 1) and beta_g, beta_h in (0, 1) shape the backtracking schedule.  From
these the per-iteration minimum decrease MIN_DEC follows, and with it the
iteration budget T = ceil((f(w0) + |z| - f_lower) / MIN_DEC) where z is the
privatizing perturbation of the initial loss.  derive_constants is the one
place a run gets these per-run quantities from.

The curvature line search needs the roots 0 < t1 < t2 of

    r(t) = -t^2/6 + (1 - c - c_h) t / 2 - c2,

which exist exactly when c_h < 1 - c - sqrt(8 c2 / 3); sufficient decrease
holds for step sizes t |lambda| / M with t in [t1, t2].

The sample-size advisors reproduce the published minimum-n expressions
verbatim (they mix a concentration log factor into the Hessian branch and
drop a factor 2 relative to the underlying tail bounds; they are advisory
predicates, not enforcement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..mechanisms import DEFAULT_WIGNER_TAIL_CONSTANT
from ..accountant import NoisePlan
from ..objective import LossModel


@dataclass(frozen=True)
class AlgorithmConstants:
    """Tolerances, noise-accuracy constants, and failure probabilities."""

    eps_g: float
    eps_h: float
    c: float = 0.1
    c1: float = 0.1
    c2: float = 0.1
    c_g: float = 0.4
    c_h: float = 0.25
    b_g: float = 2.0
    b_h: float = 2.0
    beta_g: float = 0.5
    beta_h: float = 0.5
    c_f: float = 0.1
    zeta: float = 0.1
    xi: float = 0.05
    eta: float = 0.1
    delta_l: float = 0.05

    def __post_init__(self):
        if not (self.eps_g > 0 and self.eps_h > 0):
            raise ValueError("tolerances eps_g, eps_h must be positive")
        if not (0.0 < self.c1 < 0.5):
            raise ValueError("c1 must lie in (0, 1/2)")
        if not (self.c > 0 and self.c2 > 0 and self.c2 + self.c < 1.0 / 3.0):
            raise ValueError("need c, c2 > 0 with c2 + c < 1/3")
        if not (0.0 < self.c_g < 1.0 - self.c1):
            raise ValueError("c_g must lie in (0, 1 - c1)")
        c_h_sup = 1.0 - self.c - math.sqrt(8.0 * self.c2 / 3.0)
        if not (0.0 < self.c_h < c_h_sup):
            raise ValueError(f"c_h must lie in (0, {c_h_sup:.6g})")
        if not (self.b_g > 1.0 and self.b_h > 1.0):
            raise ValueError("initial step multipliers b_g, b_h must exceed 1")
        if not (0.0 < self.beta_g < 1.0 and 0.0 < self.beta_h < 1.0):
            raise ValueError("backtracking factors must lie in (0, 1)")
        if not (0.0 < self.c_f < 1.0):
            raise ValueError("c_f must lie in (0, 1)")
        for name in ("zeta", "xi", "eta", "delta_l"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie in (0, 1)")


@dataclass(frozen=True)
class DerivedConstants:
    """Per-run quantities computed from the constants and the model."""

    t1: float
    t2: float
    min_dec: float
    t_budget: int
    gamma_bar_g: float


def roots_t1_t2(c: float, c2: float, c_h: float) -> tuple[float, float]:
    """Roots of r(t) = -t^2/6 + (1 - c - c_h) t / 2 - c2, ascending."""
    lin = 1.0 - c - c_h
    disc = 0.25 * lin * lin - 2.0 * c2 / 3.0
    if disc < 0.0:
        raise ValueError(
            "no real step-size window: need c_h < 1 - c - sqrt(8 c2 / 3)")
    root = 3.0 * math.sqrt(disc)
    return 1.5 * lin - root, 1.5 * lin + root


def min_dec_short(G: float, M: float, eps_g: float, eps_h: float,
                  c1: float, c2: float, c: float) -> float:
    """Guaranteed short-step decrease under the bounded-noise conditions."""
    if not (0.0 < c1 < 0.5):
        raise ValueError("c1 must lie in (0, 1/2)")
    if not (c > 0 and c2 > 0 and c2 + c < 1.0 / 3.0):
        raise ValueError("need c, c2 > 0 with c2 + c < 1/3")
    if not (G > 0 and M > 0):
        raise ValueError("smoothness constants must be positive")
    grad = (1.0 - 2.0 * c1) / (2.0 * G) * eps_g ** 2
    curv = 2.0 * (1.0 / 3.0 - c2 - c) * eps_h ** 3 / M ** 2
    return min(grad, curv)


def min_dec_line_search(G: float, M: float, eps_g: float, eps_h: float,
                        c1: float, c_g: float, c_h: float, t2: float) -> float:
    """Guaranteed line-search decrease under bounded noise and the query
    accuracy event."""
    if not (0.0 < c1 < 0.5):
        raise ValueError("c1 must lie in (0, 1/2)")
    if not (0.0 < c_g < 1.0 - c1):
        raise ValueError("c_g must lie in (0, 1 - c1)")
    if not (c_h > 0 and t2 > 0 and G > 0 and M > 0):
        raise ValueError("c_h, t2, G, M must be positive")
    grad = (1.0 - c1 - c_g) * c_g * eps_g ** 2 / G
    curv = 0.25 * c_h * t2 ** 2 * eps_h ** 3 / M ** 2
    return min(grad, curv)


def iteration_budget(f0: float, z: float, f_lower: float, min_dec: float) -> int:
    """T = ceil((f(w0) + |z| - f_lower) / MIN_DEC), at least 1."""
    if not (min_dec > 0):
        raise ValueError("min_dec must be positive")
    gap = f0 + abs(z) - f_lower
    if gap <= 0.0:
        return 1
    return max(1, math.ceil(gap / min_dec))


def probe_count(beta: float, b: float) -> int:
    """Number of backtracking probes from b * gamma_bar down to gamma_bar:
    floor(log_beta(1/b)) + 1."""
    if not (0.0 < beta < 1.0) or not (b >= 1.0):
        raise ValueError("need beta in (0, 1) and b >= 1")
    return int(math.floor(math.log(1.0 / b) / math.log(beta))) + 1


def svt_slack(lam: float, i_max: int, trials: float, xi: float) -> float:
    """Accuracy slack t of a sparse-vector sweep: with probability 1 - xi/trials
    the accepted query value is at least -t * Delta_q, where
    t = 8 lam (log i_max + log(trials / xi))."""
    if not (lam > 0 and i_max >= 1 and trials >= 1 and 0.0 < xi < 1.0):
        raise ValueError("invalid svt_slack arguments")
    return 8.0 * lam * (math.log(i_max) + math.log(trials / xi))


def derive_constants(constants: AlgorithmConstants, model: LossModel,
                     variant: str, f0_plus_z: float) -> DerivedConstants:
    """Roots, minimum decrease, iteration budget, and the gradient fallback
    step for one run, which takes them from here.  variant is "short" or
    "line_search"; the latter also checks that beta_h lies in (t1/t2, 1)."""
    t1, t2 = roots_t1_t2(constants.c, constants.c2, constants.c_h)
    if variant == "short":
        md = min_dec_short(model.G, model.M, constants.eps_g, constants.eps_h,
                           constants.c1, constants.c2, constants.c)
    elif variant == "line_search":
        if not (t1 / t2 < constants.beta_h < 1.0):
            raise ValueError(
                f"beta_h = {constants.beta_h} must lie in (t1/t2, 1) = "
                f"({t1 / t2:.6g}, 1) for these constants")
        md = min_dec_line_search(model.G, model.M, constants.eps_g, constants.eps_h,
                                 constants.c1, constants.c_g, constants.c_h, t2)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    T = iteration_budget(f0_plus_z, 0.0, model.f_lower, md)
    gamma_bar_g = 2.0 * (1.0 - constants.c1 - constants.c_g) / model.G
    return DerivedConstants(t1, t2, md, T, gamma_bar_g)


def _subsampling_branches(model: LossModel, constants: AlgorithmConstants, T: int,
                          eta: float, d: int) -> tuple[float, float]:
    """The gradient and Hessian subsampling-deviation branches of the
    published sample sizes, at a batch fraction of 1: the batch size under
    which the batch's deviation stays within half of each noise allowance."""
    log_term = math.log(2.0 * d * T / eta)
    grad_branch = (64.0 * model.B_g ** 2 * (log_term + 0.25)
                   * max(constants.c1 ** -2 * constants.eps_g ** -2,
                         (model.M ** 2 / constants.c2 ** 2) * constants.eps_h ** -4))
    hess_branch = 32.0 * model.B_H ** 2 * log_term * constants.c ** -2 * constants.eps_h ** -2
    return grad_branch, hess_branch


def min_batch_size(model: LossModel, constants: AlgorithmConstants, T: int, eta: float,
                   d: int) -> int:
    """Smallest mini-batch size under which the subsampling deviation of the
    gradient and Hessian stays within half of the bounded-noise allowances."""
    if T < 1 or d < 1 or not (0.0 < eta < 1.0):
        raise ValueError("need T >= 1, d >= 1, eta in (0, 1)")
    return int(math.ceil(max(_subsampling_branches(model, constants, T, eta, d))))


def min_samples_advisor(model: LossModel, constants: AlgorithmConstants,
                        plan: NoisePlan, variant: str, d: int, T: int,
                        wigner_c: float = DEFAULT_WIGNER_TAIL_CONSTANT) -> int:
    """Published minimum sample size for the requested variant, verbatim.

    variant "short": the gradient- and Hessian-concentration branches.
    "line_search": adds the sparse-vector accuracy branch.
    "minibatch": doubles the concentration branches and adds the two
    subsampling-deviation branches scaled by 1/s.
    """
    if d < 1 or T < 1:
        raise ValueError("need d >= 1 and T >= 1")
    cst = constants
    log_tz = math.log(T / cst.zeta)
    noise_floor = min(cst.c1 * cst.eps_g, cst.c2 / model.M * cst.eps_h ** 2)
    grad_branch = math.sqrt(2.0 * d) * model.B_g * plan.sigma_g * log_tz / noise_floor
    hess_branch = (wigner_c * math.sqrt(d) * model.B_H * plan.sigma_h * log_tz
                   / (cst.c * cst.eps_h))
    if variant == "short":
        return int(math.ceil(max(grad_branch, hess_branch)))
    if variant == "line_search":
        if plan.lambda_svt is None:
            raise ValueError("line_search advisor needs lambda_svt in the plan")
        _, t2 = roots_t1_t2(cst.c, cst.c2, cst.c_h)
        i_max = max(probe_count(cst.beta_g, cst.b_g), probe_count(cst.beta_h, cst.b_h))
        svt_branch = (16.0 * plan.lambda_svt * (math.log(i_max) + math.log(T / cst.xi))
                      * model.B_g
                      * max(2.0 * cst.b_g / (cst.c_g * cst.eps_g),
                            4.0 * cst.b_h * model.M / (t2 * cst.c_h * cst.eps_h ** 2)))
        return int(math.ceil(max(grad_branch, hess_branch, svt_branch)))
    if variant == "minibatch":
        s = plan.subsample_fraction
        sub_grad, sub_hess = _subsampling_branches(model, cst, T, cst.eta, d)
        return int(math.ceil(max(2.0 * grad_branch, 2.0 * hess_branch,
                                 sub_grad / s, sub_hess / s)))
    raise ValueError(f"unknown variant {variant!r}")
