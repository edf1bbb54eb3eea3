"""Smallest eigenpair of perturbed Hessians.

Two paths: an exact dense eigendecomposition (the default for the moderate
dimensions the solvers target) and randomized Lanczos on Hessian-vector
products for larger problems.  Lanczos starts from a uniformly random unit
vector and, with probability at least 1 - delta, reaches absolute precision
eps/2 within

    min{ d, 1 + ceil( (1/2) ln(2.75 d / delta^2) sqrt(M / eps) ) }

iterations, where M bounds the operator norm.  The curvature decision
thresholds differ by path: the dense value is tested against -eps_h
directly, while the Lanczos estimate is tested against -eps_h / 2 so that
its eps/2 error still certifies lambda_min >= -eps_h on the declare-PSD
branch.  Both are post-processing of the already-noised Hessian and carry
no privacy cost of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .mechanisms import SeededRng, unit_vector
from .objective import DENSE_HESSIAN_CAP

_BREAKDOWN_REL = 1e-12
_EARLY_STOP_REL = 1e-10  # residual threshold: stop only at near-exact capture


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Smallest-eigenvalue estimate with its (unit) direction when available."""

    lambda_min: float
    direction: np.ndarray | None
    method: str          # "dense" | "lanczos"
    matvec_count: int = 0


@dataclass(frozen=True, eq=False)
class CurvatureDecision:
    negative: bool
    lambda_min: float
    direction: np.ndarray | None


def min_eigenpair_dense(H: np.ndarray) -> EigenResult:
    """Exact smallest eigenpair of a symmetric matrix (LAPACK)."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    scale = max(1.0, float(np.max(np.abs(H))))
    if float(np.max(np.abs(H - H.T))) > 1e-12 * scale:
        raise ValueError("H is not symmetric within tolerance 1e-12")
    vals, vecs = scipy.linalg.eigh(H)
    v = vecs[:, 0]
    return EigenResult(float(vals[0]), v / np.linalg.norm(v), "dense")


def lanczos_iteration_cap(d: int, norm_bound: float, eps: float, delta_l: float) -> int:
    """Iteration bound of randomized Lanczos for eps/2 absolute precision."""
    if d < 1 or not (eps > 0) or not (0.0 < delta_l < 1.0) or not (norm_bound > 0):
        raise ValueError("need d >= 1, eps > 0, norm_bound > 0, delta_l in (0, 1)")
    bound = 1 + math.ceil(0.5 * math.log(2.75 * d / delta_l ** 2) * math.sqrt(norm_bound / eps))
    return min(d, bound)


def _lanczos_sweep(hvp: Callable[[np.ndarray], np.ndarray], d: int, cap: int,
                   q0: np.ndarray, scale: float):
    """Lanczos with full reorthogonalization; returns (theta, ritz vector,
    matvecs, broke_down)."""
    stop_tol = _EARLY_STOP_REL * scale
    breakdown_tol = _BREAKDOWN_REL * scale
    Q = np.empty((d, cap))
    alphas = np.empty(cap)
    betas = np.empty(max(cap - 1, 0))
    q = q0
    matvecs = 0
    k = 0
    theta, y = math.inf, None
    while k < cap:
        Q[:, k] = q
        u = hvp(q)
        matvecs += 1
        alpha = float(q @ u)
        alphas[k] = alpha
        r = u - alpha * q - (betas[k - 1] * Q[:, k - 1] if k > 0 else 0.0)
        r -= Q[:, :k + 1] @ (Q[:, :k + 1].T @ r)  # full reorthogonalization
        k += 1
        vals, vecs = scipy.linalg.eigh_tridiagonal(alphas[:k], betas[:k - 1])
        theta = float(vals[0])
        y = vecs[:, 0]
        beta = float(np.linalg.norm(r))
        residual = beta * abs(float(y[-1]))
        if beta <= breakdown_tol:  # invariant subspace hit
            return theta, Q[:, :k] @ y, matvecs, True
        if residual <= stop_tol:
            break
        if k < cap:
            betas[k - 1] = beta
            q = r / beta
    v = Q[:, :k] @ y
    nrm = float(np.linalg.norm(v))
    return theta, v / nrm if nrm > 0 else v, matvecs, False


def lanczos_min_eig(hvp: Callable[[np.ndarray], np.ndarray], d: int, norm_bound: float,
                    eps: float, delta_l: float, rng: SeededRng) -> EigenResult:
    """Randomized-Lanczos estimate of the smallest eigenvalue.

    Runs at most the iteration cap; stops earlier only when the Ritz
    residual collapses (near-exact Krylov capture).  On breakdown the sweep
    restarts once from a fresh random vector; a second breakdown at d within
    DENSE_HESSIAN_CAP falls back to probing the operator column by column
    and solving densely.
    """
    cap = lanczos_iteration_cap(d, norm_bound, eps, delta_l)
    scale = max(1.0, norm_bound)
    total = 0
    result = None
    for _attempt in range(2):
        theta, v, used, broke = _lanczos_sweep(hvp, d, cap, unit_vector(d, rng), scale)
        total += used
        result = (theta, v)
        if not broke:
            return EigenResult(theta, v, "lanczos", total)
    if d <= DENSE_HESSIAN_CAP:
        H = np.column_stack([hvp(col) for col in np.eye(d)])
        total += d
        dense = min_eigenpair_dense(0.5 * (H + H.T))
        return EigenResult(dense.lambda_min, dense.direction, "lanczos", total)
    theta, v = result
    return EigenResult(theta, v, "lanczos", total)


def decide_curvature(result: EigenResult, eps_h: float) -> CurvatureDecision:
    """Negative-curvature vs approximately-PSD decision.

    Dense estimates use the exact test lambda < -eps_h; Lanczos estimates
    use lambda <= -eps_h / 2, absorbing their eps/2 error so that the PSD
    declaration still certifies lambda_min >= -eps_h.
    """
    if not (eps_h > 0):
        raise ValueError("eps_h must be positive")
    if result.method == "lanczos":
        negative = result.lambda_min <= -eps_h / 2.0
    else:
        negative = result.lambda_min < -eps_h
    return CurvatureDecision(negative, result.lambda_min, result.direction)


def orient(direction: np.ndarray, g_noisy: np.ndarray) -> np.ndarray:
    """Flip the unit direction so its inner product with the noisy gradient
    is nonpositive; an exact zero keeps the input sign."""
    dot = float(direction @ g_noisy)
    return -direction if dot > 0.0 else direction
