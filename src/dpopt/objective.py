"""ERM objectives: datasets, per-sample losses, bounds, and sensitivities.

All built-in losses are margin losses l(w, (x, y)) = phi(y <x, w>) + lam * r(w)
with a scalar link phi and an optional coordinate-wise regularizer r.  The
empirical risk is the average of l over the dataset (or over a mini-batch),
and replacing one sample moves the value, gradient, and Hessian by at most
B/m, 2 B_g/m, and 2 B_H sqrt(d)/m respectively, where B, B_g, B_H bound the
per-sample loss, gradient norm, and Hessian norm.

Value bounds for the logistic family are finite only on a weight box
||w||_inf <= W; W is a model parameter (default 10) and evaluation asserts
(never projects) that iterates stay inside, raising WeightBoxError otherwise.
The smoothness constants G (gradient Lipschitz) and M (Hessian Lipschitz)
are closed-form worst-case bounds in R, lam, W and are spot-verified
numerically in the test suite.

Dataset and LossModel are immutable after construction and the erm_*
evaluators are reentrant, so concurrent runs may share them freely.  Each
evaluator optionally takes a MarginMemo: the margins y * (X @ w) of the last
few (iterate, batch) pairs, so that a run asking for the loss, gradient and
curvature at one iterate makes one product with X for all of them.  A memo
is owned by one run and is not shared; without one, every call computes its
margins afresh.  Both paths give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

# Hessians are materialized densely only up to this dimension; above it only
# Hessian-vector products are offered.  The solvers and the Lanczos dense
# fallback share this cap.
DENSE_HESSIAN_CAP = 512

# erm_hessian accumulates X^T diag(curv) X over row blocks of this many rows,
# so its temporaries stay bounded whatever n is.
HESSIAN_CHUNK_ROWS = 8192

# sup |phi'''| of the logistic link, attained where expit = (1 +- 1/sqrt(3))/2
LOGISTIC_THIRD_DERIV_MAX = 1.0 / (6.0 * math.sqrt(3.0))

# coordinate bounds of the saturating regularizer r(w) = sum w_i^2/(1+w_i^2)
REG_GRAD_COORD_MAX = 3.0 * math.sqrt(3.0) / 8.0            # max |2w/(1+w^2)^2|
REG_HESS_COORD_MAX = 2.0                                   # max |2(1-3w^2)/(1+w^2)^3|, at w=0
_w3 = math.sqrt(1.0 - 2.0 / math.sqrt(5.0))                # argmax of |r'''|
REG_THIRD_DERIV_MAX = 24.0 * _w3 * (1.0 - _w3 ** 2) / (1.0 + _w3 ** 2) ** 4


class WeightBoxError(RuntimeError):
    """An iterate left the weight box on which the loss bounds are declared."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n, d), labels in {-1, +1}, and a feature-norm bound R."""

    features: np.ndarray
    labels: np.ndarray
    feature_norm_bound: float

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.features, dtype=float))
        y = np.asarray(self.labels, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        if y.shape[0] != X.shape[0]:
            raise ValueError("labels length must match the number of rows")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must take values in {-1, +1}")
        max_norm = float(np.max(np.linalg.norm(X, axis=1)))
        if not math.isfinite(max_norm):  # a NaN or inf entry, or a norm overflow
            bad = np.flatnonzero(~np.all(np.isfinite(X), axis=1))
            if bad.size:
                raise ValueError(f"features row {int(bad[0])} has a non-finite entry")
        # written so that a NaN bound fails too
        if not self.feature_norm_bound >= max_norm * (1.0 - 1e-12):
            raise ValueError(
                f"feature_norm_bound {self.feature_norm_bound} is below the "
                f"largest row norm {max_norm}")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class MarginLink:
    """Scalar link phi with its first two derivatives, vectorized over margins."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray]


def _softplus_neg(t: np.ndarray) -> np.ndarray:
    # log(1 + e^-t) = max(-t, 0) + log1p(e^-|t|): overflow-free, and unlike
    # np.logaddexp it runs on numpy's vectorized exp and log1p
    return np.maximum(-t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _logistic_curvature(t: np.ndarray) -> np.ndarray:
    # expit(t) expit(-t) is even in t, so one sigmoid of -|t| gives both factors
    s = expit(-np.abs(t))
    return s * (1.0 - s)


def _logistic_link() -> MarginLink:
    return MarginLink(
        value=_softplus_neg,
        deriv=lambda t: -expit(-t),
        second=_logistic_curvature,
    )


def _quartic_link() -> MarginLink:
    # phi(t) = (t^2 - 1)^2 / 4: a double well with a strict maximum at t = 0
    return MarginLink(
        value=lambda t: 0.25 * (t * t - 1.0) ** 2,
        deriv=lambda t: t * t * t - t,
        second=lambda t: 3.0 * t * t - 1.0,
    )


@dataclass(frozen=True, eq=False)
class LossModel:
    """A per-sample loss with declared bounds and smoothness constants.

    kind selects the built-in margin link and regularizer; "custom" models
    carry their own link.  All bound fields are valid on the weight box
    ||w||_inf <= weight_box.
    """

    kind: str
    lambda_reg: float
    B: float
    B_g: float
    B_H: float
    G: float
    M: float
    f_lower: float
    weight_box: float
    link: MarginLink
    regularizer: str  # "none" | "nonconvex" | "l2"

    def __post_init__(self):
        for name in ("B", "B_g", "B_H", "G", "M"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be nonnegative")
        if self.lambda_reg < 0:
            raise ValueError("lambda_reg must be nonnegative")
        if not (self.weight_box > 0):
            raise ValueError("weight_box must be positive")
        if self.regularizer not in ("none", "nonconvex", "l2"):
            raise ValueError(f"unknown regularizer {self.regularizer!r}")


def builtin_nonconvex_logistic(lambda_reg: float, R: float, d: int,
                               weight_box: float = 10.0) -> LossModel:
    """Logistic loss with the saturating regularizer sum w_i^2/(1+w_i^2).

    Bounds on the box ||w||_inf <= W (worst case, closed form):
      B    = softplus(R W sqrt(d)) + lam d          (each r term is < 1)
      B_g  = R + lam (3 sqrt(3)/8) sqrt(d)
      B_H  = R^2/4 + 2 lam
      G    = B_H                                    (sup of the per-sample Hessian norm)
      M    = R^3 / (6 sqrt(3)) + lam * max|r'''|
    """
    if lambda_reg < 0 or R <= 0 or d < 1:
        raise ValueError("need lambda_reg >= 0, R > 0, d >= 1")
    sqd = math.sqrt(d)
    t_box = R * weight_box * sqd
    B = float(np.logaddexp(0.0, t_box)) + lambda_reg * d
    B_g = R + lambda_reg * REG_GRAD_COORD_MAX * sqd
    B_H = R * R / 4.0 + REG_HESS_COORD_MAX * lambda_reg
    M = R ** 3 * LOGISTIC_THIRD_DERIV_MAX + lambda_reg * REG_THIRD_DERIV_MAX
    return LossModel("nonconvex_logistic", lambda_reg, B, B_g, B_H, B_H, M,
                     f_lower=0.0, weight_box=weight_box,
                     link=_logistic_link(), regularizer="nonconvex")


def builtin_l2_logistic(lambda_reg: float, R: float, d: int,
                        weight_box: float = 10.0) -> LossModel:
    """Logistic loss with the convex ridge term (lam/2) ||w||^2."""
    if lambda_reg < 0 or R <= 0 or d < 1:
        raise ValueError("need lambda_reg >= 0, R > 0, d >= 1")
    sqd = math.sqrt(d)
    w2_box = weight_box * sqd                    # ||w|| <= W sqrt(d) on the box
    t_box = R * w2_box
    B = float(np.logaddexp(0.0, t_box)) + 0.5 * lambda_reg * w2_box ** 2
    B_g = R + lambda_reg * w2_box
    B_H = R * R / 4.0 + lambda_reg
    M = R ** 3 * LOGISTIC_THIRD_DERIV_MAX
    return LossModel("l2_logistic", lambda_reg, B, B_g, B_H, B_H, M,
                     f_lower=0.0, weight_box=weight_box,
                     link=_logistic_link(), regularizer="l2")


def builtin_quartic_saddle(R: float, d: int, weight_box: float = 2.0) -> LossModel:
    """Double-well margin loss phi(t) = (t^2 - 1)^2 / 4, no regularizer.

    phi'(0) = 0 for every sample, so the full loss always has zero gradient
    at the origin while its Hessian there is -(1/n) X^T X: the origin is a
    strict saddle whenever the features are nonzero.  Used by synthetic
    planted-saddle instances.
    """
    if R <= 0 or d < 1:
        raise ValueError("need R > 0, d >= 1")
    t_box = R * weight_box * math.sqrt(d)
    B = max(0.25, 0.25 * (t_box ** 2 - 1.0) ** 2)
    dphi_max = t_box ** 3 - t_box if t_box >= 1.0 else 2.0 / (3.0 * math.sqrt(3.0))
    B_g = R * dphi_max
    B_H = R * R * max(1.0, 3.0 * t_box ** 2 - 1.0)
    M = 6.0 * t_box * R ** 3
    return LossModel("custom", 0.0, B, B_g, B_H, B_H, M,
                     f_lower=0.0, weight_box=weight_box,
                     link=_quartic_link(), regularizer="none")


def custom_margin_model(link: MarginLink, *, B: float, B_g: float, B_H: float,
                        G: float, M: float, f_lower: float,
                        weight_box: float, lambda_reg: float = 0.0,
                        regularizer: str = "none") -> LossModel:
    """A margin loss with caller-supplied bounds (caller certifies them)."""
    return LossModel("custom", lambda_reg, B, B_g, B_H, G, M,
                     f_lower=f_lower, weight_box=weight_box,
                     link=link, regularizer=regularizer)


# ---------------------------------------------------------------------------
# regularizers (value, gradient, Hessian diagonal)


def _reg_value(model: LossModel, w: np.ndarray) -> float:
    if model.regularizer == "none" or model.lambda_reg == 0.0:
        return 0.0
    if model.regularizer == "nonconvex":
        w2 = w * w
        return model.lambda_reg * float(np.sum(w2 / (1.0 + w2)))
    return 0.5 * model.lambda_reg * float(w @ w)


def _reg_grad(model: LossModel, w: np.ndarray) -> np.ndarray:
    if model.regularizer == "none" or model.lambda_reg == 0.0:
        return np.zeros_like(w)
    if model.regularizer == "nonconvex":
        return model.lambda_reg * 2.0 * w / (1.0 + w * w) ** 2
    return model.lambda_reg * w


def _reg_hess_diag(model: LossModel, w: np.ndarray) -> np.ndarray:
    if model.regularizer == "none" or model.lambda_reg == 0.0:
        return np.zeros_like(w)
    if model.regularizer == "nonconvex":
        w2 = w * w
        return model.lambda_reg * 2.0 * (1.0 - 3.0 * w2) / (1.0 + w2) ** 3
    return np.full_like(w, model.lambda_reg)


# ---------------------------------------------------------------------------
# empirical-risk evaluation


def _check_box(model: LossModel, w: np.ndarray) -> None:
    top = float(np.max(np.abs(w))) if w.size else 0.0
    if top > model.weight_box * (1.0 + 1e-12):
        raise WeightBoxError(
            f"iterate left the declared weight box: ||w||_inf = {top:.6g} > "
            f"W = {model.weight_box:.6g}; loss bounds no longer hold")


def _select(dataset: Dataset, indices) -> tuple[np.ndarray, np.ndarray]:
    if indices is None:
        return dataset.features, dataset.labels
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0:
        raise ValueError("empty sample selection")
    return dataset.features[idx], dataset.labels[idx]


class MarginMemo:
    """Margins y * (X @ w) of the most recent (iterate, batch) pairs of one run.

    The memo is bound to one dataset, and the erm_* evaluators given a memo
    read their rows from it.  Entries are keyed by the bytes of w and of the
    batch indices, so one is served only for a bit-identical iterate on the
    same batch.  It keeps SIZE entries and evicts the least recently used: a
    run needs the current iterate plus the point it steps or probes to.  An
    entry keeps its batch rows too, so a hit also skips the row gather.
    Stored margins are read-only.
    """

    SIZE = 2

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._entries: dict[tuple[bytes, bytes | None],
                            tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def margins(self, w: np.ndarray, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, y, margins of w) on the selected rows, computed on a miss."""
        key = (np.ascontiguousarray(w, dtype=float).tobytes(),
               None if indices is None else np.asarray(indices, dtype=int).tobytes())
        entry = self._entries.pop(key, None)
        if entry is None:
            X, y = _select(self.dataset, indices)
            t = y * (X @ w)
            t.flags.writeable = False
            entry = (X, y, t)
            if len(self._entries) >= self.SIZE:
                del self._entries[next(iter(self._entries))]
        self._entries[key] = entry  # reinsert: dict order is least recent first
        return entry


def _margins(dataset: Dataset, w: np.ndarray, indices,
             memo: MarginMemo | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if memo is not None:
        return memo.margins(w, indices)
    X, y = _select(dataset, indices)
    return X, y, y * (X @ w)


def erm_value(model: LossModel, dataset: Dataset, w: np.ndarray, indices=None, *,
              memo: MarginMemo | None = None) -> float:
    _check_box(model, w)
    _, _, t = _margins(dataset, w, indices, memo)
    return float(np.mean(model.link.value(t))) + _reg_value(model, w)


def erm_gradient(model: LossModel, dataset: Dataset, w: np.ndarray, indices=None, *,
                 memo: MarginMemo | None = None) -> np.ndarray:
    _check_box(model, w)
    X, y, t = _margins(dataset, w, indices, memo)
    coeff = model.link.deriv(t) * y
    return X.T @ coeff / X.shape[0] + _reg_grad(model, w)


def erm_hessian(model: LossModel, dataset: Dataset, w: np.ndarray, indices=None,
                dense_cap: int = DENSE_HESSIAN_CAP, *,
                memo: MarginMemo | None = None) -> np.ndarray:
    _check_box(model, w)
    if dataset.d > dense_cap:
        raise ValueError(
            f"refusing to materialize a {dataset.d}-dim Hessian (cap {dense_cap}); "
            "use erm_hvp instead")
    X, _, t = _margins(dataset, w, indices, memo)
    curv = model.link.second(t)
    H = np.zeros((X.shape[1], X.shape[1]))
    for lo in range(0, X.shape[0], HESSIAN_CHUNK_ROWS):
        block = X[lo:lo + HESSIAN_CHUNK_ROWS]
        H += block.T @ (block * curv[lo:lo + HESSIAN_CHUNK_ROWS, None])
    H /= X.shape[0]
    H = 0.5 * (H + H.T)  # gemm output is symmetric only up to rounding
    diag = _reg_hess_diag(model, w)
    H[np.diag_indices_from(H)] += diag
    return H


def erm_hvp(model: LossModel, dataset: Dataset, w: np.ndarray, v: np.ndarray,
            indices=None, *, memo: MarginMemo | None = None) -> np.ndarray:
    _check_box(model, w)
    X, _, t = _margins(dataset, w, indices, memo)
    curv = model.link.second(t)
    return X.T @ (curv * (X @ v)) / X.shape[0] + _reg_hess_diag(model, w) * v


# ---------------------------------------------------------------------------
# sensitivities, batching


@dataclass(frozen=True)
class Sensitivities:
    """Replace-one l2 sensitivities of value, gradient, and Hessian."""

    delta_f: float
    delta_g: float
    delta_h: float


def sensitivities(model: LossModel, m: int, d: int) -> Sensitivities:
    """Sensitivities of the size-m average: B/m, 2 B_g/m, 2 B_H sqrt(d)/m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not math.isfinite(model.B):
        raise ValueError("model has no finite value bound B; supply a weight box")
    return Sensitivities(model.B / m, 2.0 * model.B_g / m, 2.0 * model.B_H * math.sqrt(d) / m)


@dataclass(frozen=True)
class BatchSelector:
    """Full-batch (m = None) or size-m without-replacement sampling.

    When m equals the dataset size no randomness is consumed and the full
    index set is used, so an m = n run is draw-for-draw identical to a
    full-batch run.
    """

    m: int | None = None

    def batch_size(self, n: int) -> int:
        if self.m is None:
            return n
        if not (1 <= self.m <= n):
            raise ValueError(f"batch size m = {self.m} must lie in [1, n = {n}]")
        return self.m

    def indices(self, rng, n: int):
        m = self.batch_size(n)
        if m == n:
            return None
        idx = rng.generator.choice(n, size=m, replace=False)
        return np.sort(idx)


def min_batch_size(model: LossModel, constants, T: int, eta: float, d: int) -> int:
    """Smallest mini-batch size under which the subsampling deviation of the
    gradient and Hessian stays within half of the bounded-noise allowances."""
    if T < 1 or d < 1 or not (0.0 < eta < 1.0):
        raise ValueError("need T >= 1, d >= 1, eta in (0, 1)")
    log_term = math.log(2.0 * d * T / eta)
    grad_branch = (64.0 * model.B_g ** 2 * (log_term + 0.25)
                   * max(constants.c1 ** -2 * constants.eps_g ** -2,
                         (model.M ** 2 / constants.c2 ** 2) * constants.eps_h ** -4))
    hess_branch = 32.0 * model.B_H ** 2 * log_term * constants.c ** -2 * constants.eps_h ** -2
    return int(math.ceil(max(grad_branch, hess_branch)))
