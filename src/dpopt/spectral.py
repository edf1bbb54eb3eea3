"""Smallest eigenpair of perturbed Hessians.

Two paths: an exact dense eigendecomposition (the default for the moderate
dimensions the solvers target) and randomized Lanczos on Hessian-vector
products for larger problems.  Lanczos starts from a uniformly random unit
vector and, with probability at least 1 - delta, reaches absolute precision
eps/2 within

    min{ d, 1 + ceil( (1/2) ln(2.75 d / delta^2) sqrt(M / eps) ) }

iterations, where M bounds the operator norm.  One sweep either spends
that cap or stops early at an invariant Krylov subspace, where the answer
is exact: the subspace spanned from a start vector q0 is the span of q0's
components in the eigenspaces of H, and H restricted to it has exactly the
eigenvalues of the eigenspaces q0 meets.  A uniformly random q0 meets every
eigenspace with probability 1 (missing one means lying in a proper
subspace, a set of measure zero), so the smallest Ritz value of an
invariant subspace is lambda_min.  A Krylov subspace of R^d is invariant
by dimension d at the latest, so a sweep makes at most min(d, cap) products.

The curvature decision thresholds differ by path: the dense value is tested
against -eps_h directly, while the Lanczos estimate is tested against
-eps_h / 2 so that its eps/2 error still certifies lambda_min >= -eps_h on
the declare-PSD branch.  Both are post-processing of the already-noised
Hessian and carry no privacy cost of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .mechanisms import SeededRng, unit_vector

# residual threshold, relative to the norm bound: stop only at near-exact
# capture.  A breakdown (an invariant subspace, beta ~ 0) has a residual
# below it too, since the residual is beta times a component of a unit vector.
_EARLY_STOP_REL = 1e-10


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Smallest-eigenvalue estimate with its unit direction."""

    lambda_min: float
    direction: np.ndarray
    method: str          # "dense" | "lanczos"
    matvec_count: int = 0


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


def lanczos_min_eig(hvp: Callable[[np.ndarray], np.ndarray], d: int, norm_bound: float,
                    eps: float, delta_l: float, rng: SeededRng) -> EigenResult:
    """Randomized-Lanczos estimate of the smallest eigenvalue.

    One sweep with full reorthogonalization from one random unit vector.
    It runs at most the iteration cap and stops earlier only when the Ritz
    residual collapses: near-exact Krylov capture, an invariant subspace
    included, whose smallest Ritz value is exact (see the module
    docstring).  So matvec_count <= min(d, cap).
    """
    cap = lanczos_iteration_cap(d, norm_bound, eps, delta_l)
    stop_tol = _EARLY_STOP_REL * max(1.0, norm_bound)
    Q = np.empty((d, cap))
    alphas = np.empty(cap)
    betas = np.empty(cap - 1)
    q = unit_vector(d, rng)
    for k in range(cap):
        Q[:, k] = q
        u = hvp(q)
        alpha = float(q @ u)
        alphas[k] = alpha
        r = u - alpha * q - (betas[k - 1] * Q[:, k - 1] if k > 0 else 0.0)
        r -= Q[:, :k + 1] @ (Q[:, :k + 1].T @ r)  # full reorthogonalization
        vals, vecs = scipy.linalg.eigh_tridiagonal(alphas[:k + 1], betas[:k])
        y = vecs[:, 0]
        beta = float(np.linalg.norm(r))
        if beta * abs(float(y[-1])) <= stop_tol or k + 1 == cap:
            break
        betas[k] = beta
        q = r / beta
    v = Q[:, :k + 1] @ y
    return EigenResult(float(vals[0]), v / np.linalg.norm(v), "lanczos", k + 1)


def decide_curvature(result: EigenResult, eps_h: float) -> bool:
    """True for negative curvature, False for approximately PSD.

    Dense estimates use the exact test lambda < -eps_h; Lanczos estimates
    use lambda <= -eps_h / 2, absorbing their eps/2 error so that the PSD
    declaration still certifies lambda_min >= -eps_h.
    """
    if not (eps_h > 0):
        raise ValueError("eps_h must be positive")
    if result.method == "lanczos":
        return result.lambda_min <= -eps_h / 2.0
    return result.lambda_min < -eps_h


def orient(direction: np.ndarray, g_noisy: np.ndarray) -> np.ndarray:
    """Flip the unit direction so its inner product with the noisy gradient
    is nonpositive; an exact zero keeps the input sign."""
    dot = float(direction @ g_noisy)
    return -direction if dot > 0.0 else direction
