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
evaluators are reentrant, so concurrent runs may share them freely.

Every evaluator passes over the selected rows of X in fixed spans of about
SPAN_BYTES of X each.  Each span yields a partial -- its margins
y * (X_s @ w), its gradient term X_s^T (phi'(t) y), its Hessian block
X_s^T diag(curv) X_s or its product X_s^T (curv * (X_s v)) -- while its rows
are still in cache.  The partials are added in two halves: the spans split
at the middle span, mid = ceil(spans / 2), each half's partials are added in
span order, and the second half's sum is added to the first's.  The spans
depend on n and d alone, so the results are bit-identical from run to run.
A span's row count is a multiple of the BLAS kernels' row blocking and each
margin is a per-row dot product, so a margin has the bits it would have in
one product over the whole of X; the loss is one mean over all n link
values and keeps those bits too.  Building a Dataset checks X over the same
spans (max_row_norm), so set-up holds no temporary the size of X either,
and the synthetic builders in harness.data fill X one span_rows block at a
time.

Every pass spreads over two cores (_spread_sum): the fused value-and-
gradient pass, the HVP and the dense Hessian.  With more than one usable
core and at least SPREAD_MIN_SPANS spans, one more thread sums the second
half while the calling thread sums the first; a pass of fewer spans runs
both halves on the calling thread, in the same order, and the curvature
sweep, which is no sum, runs there too.  So every sum has the same bits at
any core count, and no thread outlives the call.  Every span product is an
np.dot call: np.matmul holds the interpreter lock when its output has at
most 500 elements (X_s @ v over every span from d = 257 on), so two threads
of it ran no faster than one there; np.dot calls the same BLAS, gives the
same bits and lets go of the lock at any size.  Width scan (150 MB of X,
1 -> 2 workers, medians of 9 repeats in ms, 2-vCPU VM, one BLAS thread):

    d            54       256      384      600     1000
    pass      24->14   19->12   18->12   15->10   15->9
    HVP       19->12   18->10   16->11   14->9    14->8

With np.matmul the pass read 18 -> 18 ms at d = 384 and 15 -> 15 at d = 600.
The Hessian (1 -> 2 threads: 89 -> 77 ms at d = 20, 427 -> 240 at d = 512)
is bound by its syrk at every width the dense path allows.

The logistic link takes one e = exp(-|t|) and one log1p(e) per margin in
numpy's vectorized ufuncs: phi(t) = max(-t, 0) + log1p(e), phi'(t) =
expm1(-phi(t)) = -1/(1 + e^t), and phi''(t) = s (1 - s) with s = e/(1 + e).
phi' and phi'' are within 1e-15 relative of 50-digit decimal values where
they are normal floats (|t| <= 708), and phi keeps the bits of its formula.
The pass writes phi' into span scratch of each worker's own.  At n = 500 000,
d = 54 it took 18 ms on two workers against a read floor (X_s @ w alone,
spread the same way) of 11 ms, and 34 against 20 ms on one (medians, 2-vCPU
VM, one BLAS thread): compare a pass with the floor of its own worker count.

Every evaluator reads X through a MarginMemo bound to one model and one
dataset: the caller's (memo=), or a fresh one made for the call.  A miss
makes the margins, the loss and the gradient sum of an (iterate, batch)
pair in one pass, while each span is in cache; the memo keeps them for the
last few pairs, and the curvature phi''(t) of the latest one asked for a
Hessian or an HVP.  So a run reads X once per iterate for the loss and the
gradient, and each Hessian-vector product of a Lanczos check streams X once
more and applies no link function.  A memo is owned by one run (both phases
of a two-phase run) and is not shared; a call without one pays for the
whole pass even when it asks only for the loss.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Hessians are materialized densely only up to this dimension; above it only
# Hessian-vector products are offered, and the solvers refuse a run without
# the Lanczos check up front.
DENSE_HESSIAN_CAP = 512

# Bytes of X per span of the evaluators' passes: a span's rows stay in a
# core's L2 cache between the two products a pass makes over them, and the
# temporaries stay bounded by one span whatever n is.
SPAN_BYTES = 1 << 20

# A span's row count is a multiple of this, which covers the BLAS kernels'
# row blocking, so a margin's bits do not depend on the span it falls in.
SPAN_ROW_ALIGN = 64

# A pass of fewer spans than this runs on the calling thread: 4-6-span passes
# at d = 54 ran about 0.3 ms slower on two threads than on one.
SPREAD_MIN_SPANS = 8

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
        max_norm = max_row_norm(X)
        if not math.isfinite(max_norm):  # a NaN or inf entry, or a norm overflow
            for lo, hi in row_spans(*X.shape):
                bad = np.flatnonzero(~np.isfinite(np.linalg.norm(X[lo:hi], axis=1)))
                if bad.size:
                    row = lo + int(bad[0])
                    what = ("a norm that overflows" if np.all(np.isfinite(X[row]))
                            else "a non-finite entry")
                    raise ValueError(f"features row {row} has {what}")
        if not math.isfinite(self.feature_norm_bound):
            raise ValueError(f"feature_norm_bound {self.feature_norm_bound} is not finite")
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
    """Scalar link phi with its first two derivatives, vectorized over margins.

    value_and_deriv(t, value, deriv) writes phi(t) into value and phi'(t)
    into deriv, arrays shaped like t that it may use as scratch on the way.
    The fused pass calls it span by span, and value() and deriv() call it.
    """

    value_and_deriv: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    second: Callable[[np.ndarray], np.ndarray]

    def value(self, t: np.ndarray) -> np.ndarray:
        return self._both(t)[0]

    def deriv(self, t: np.ndarray) -> np.ndarray:
        return self._both(t)[1]

    def _both(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value, deriv = np.empty(np.shape(t)), np.empty(np.shape(t))
        self.value_and_deriv(t, value, deriv)
        return value, deriv


def _logistic_value_and_deriv(t: np.ndarray, value: np.ndarray, deriv: np.ndarray) -> None:
    # phi(t) = log(1 + e^-t) = max(-t, 0) + log1p(e^-|t|), overflow-free, and
    # phi'(t) = -1/(1 + e^t) = e^-phi(t) - 1 = expm1(-phi(t)); deriv holds
    # max(-t, 0) on the way
    np.negative(np.abs(t, out=value), out=value)
    np.log1p(np.exp(value, out=value), out=value)
    np.maximum(np.negative(t, out=deriv), 0.0, out=deriv)
    np.add(deriv, value, out=value)
    np.expm1(np.negative(value, out=deriv), out=deriv)


def _logistic_curvature(t: np.ndarray) -> np.ndarray:
    # phi''(t) = s (1 - s) with s = e^-|t| / (1 + e^-|t|), the sigmoid of -|t|:
    # phi'' is even in t, and e^-|t| cannot overflow
    e = np.exp(-np.abs(t))
    s = e / (1.0 + e)
    return s * (1.0 - s)


_LOGISTIC_LINK = MarginLink(_logistic_value_and_deriv, _logistic_curvature)


def _quartic_value_and_deriv(t: np.ndarray, value: np.ndarray, deriv: np.ndarray) -> None:
    # phi(t) = (t^2 - 1)^2 / 4: a double well with a strict maximum at t = 0
    value[...] = 0.25 * (t * t - 1.0) ** 2
    deriv[...] = t * t * t - t


_QUARTIC_LINK = MarginLink(_quartic_value_and_deriv, lambda t: 3.0 * t * t - 1.0)


@dataclass(frozen=True, eq=False)
class LossModel:
    """A per-sample loss with declared bounds and smoothness constants.

    All bound fields are valid on the weight box ||w||_inf <= weight_box.
    """

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
    return LossModel(lambda_reg, B, B_g, B_H, B_H, M,
                     f_lower=0.0, weight_box=weight_box,
                     link=_LOGISTIC_LINK, regularizer="nonconvex")


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
    return LossModel(lambda_reg, B, B_g, B_H, B_H, M,
                     f_lower=0.0, weight_box=weight_box,
                     link=_LOGISTIC_LINK, regularizer="l2")


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
    return LossModel(0.0, B, B_g, B_H, B_H, M,
                     f_lower=0.0, weight_box=weight_box,
                     link=_QUARTIC_LINK, regularizer="none")


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


def span_rows(d: int) -> int:
    """Rows per span of a pass over a feature block of width d."""
    return max(1, SPAN_BYTES // (8 * max(d, 1)) // SPAN_ROW_ALIGN) * SPAN_ROW_ALIGN


def row_spans(n: int, d: int):
    """The spans [lo, hi) of n rows of width d, in row order."""
    rows = span_rows(d)
    return ((lo, min(lo + rows, n)) for lo in range(0, n, rows))


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the machine's CPU count."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _spread_sum(fn: Callable, n: int, d: int, shape: tuple, scratch: Callable) -> np.ndarray:
    """The sum of the partials fn(lo, hi, out, own) writes into out, an
    array of the given shape, over the spans of n rows of width d; own is
    the scratch that scratch() made for the thread running fn.

    The spans split at the middle span, each half's partials are added in
    span order, and the second half's sum is added to the first's.  With
    more than one usable core and SPREAD_MIN_SPANS spans or more, one more
    thread sums the second half while the calling thread sums the first;
    otherwise the calling thread sums both.  Every array is made on the
    calling thread, so the other thread's malloc arena keeps none of them.
    Its exception is raised here, after it has stopped.
    """
    rows = span_rows(d)
    spans = -(-n // rows)
    mid = -(-spans // 2)
    spread = spans >= SPREAD_MIN_SPANS and usable_cores() > 1

    def add_up(k0: int, k1: int, total: np.ndarray, part: np.ndarray, own) -> np.ndarray:
        fn(k0 * rows, min(n, (k0 + 1) * rows), total, own)
        for k in range(k0 + 1, k1):
            fn(k * rows, min(n, (k + 1) * rows), part, own)
            total += part
        return total

    first = (np.empty(shape), np.empty(shape), scratch())  # (sum, partial, scratch)
    if spans == 1:
        return add_up(0, 1, *first)
    second = (np.empty(shape),) + ((np.empty(shape), scratch()) if spread else first[1:])
    if not spread:
        return np.add(add_up(0, mid, *first), add_up(mid, spans, *second), out=first[0])

    failure: list[BaseException] = []

    def second_half() -> None:
        try:
            add_up(mid, spans, *second)
        except BaseException as exc:  # the calling thread raises it
            failure.append(exc)

    thread = threading.Thread(target=second_half, daemon=True)
    thread.start()
    try:
        add_up(0, mid, *first)
    finally:
        thread.join()
    if failure:
        raise failure[0]
    return np.add(first[0], second[0], out=first[0])


def max_row_norm(X: np.ndarray) -> float:
    """The largest Euclidean row norm of a nonempty X, taken span by span so
    that no temporary grows with n; each row norm has the bits of one
    np.linalg.norm over the whole of X, and a NaN entry gives NaN."""
    return float(np.max([np.max(np.linalg.norm(X[lo:hi], axis=1))
                         for lo, hi in row_spans(*X.shape)]))


def _margin_pass(X: np.ndarray, y: np.ndarray, w: np.ndarray, link: MarginLink,
                 t: np.ndarray, values: np.ndarray) -> tuple[float, np.ndarray]:
    """Margins y * (X @ w) into t, the mean link value over them and the
    gradient sum X^T (phi'(t) y), made span by span while each span is in
    cache.  The link values go to values; t and values have len(X) entries."""

    n, d = X.shape

    def span(lo: int, hi: int, out: np.ndarray, own: np.ndarray) -> None:
        t_s, deriv = t[lo:hi], own[:hi - lo]
        np.multiply(y[lo:hi], np.dot(X[lo:hi], w, out=t_s), out=t_s)
        link.value_and_deriv(t_s, values[lo:hi], deriv)
        np.dot(X[lo:hi].T, np.multiply(deriv, y[lo:hi], out=deriv), out=out)

    g = _spread_sum(span, n, d, (d,), lambda: np.empty(min(span_rows(d), n)))
    # one mean over all n values, so the loss has the bits of an unspanned pass
    return float(np.mean(values)), g


class MarginMemo:
    """Margins y * (X @ w), mean link values and gradient sums
    X^T (phi'(t) y) of the most recent (iterate, batch) pairs of one run,
    and the curvature phi''(t) of one of them.

    The memo is bound to one model and one dataset, and the erm_* evaluators
    read their rows from it.  Entries are keyed by the bytes of w and of the
    batch indices, so one is served only for a bit-identical iterate on the
    same batch.  It keeps SIZE entries and evicts the least recently used: a
    run needs the current iterate plus the point it steps or probes to.  An
    entry keeps its batch rows too, so a hit also skips the row gather.  A
    miss pays for the gradient sum even when only the loss is asked for.

    The curvature is computed on the first Hessian or HVP request for an
    entry, so the Hessian-vector products of one Lanczos check share it.
    Stored arrays are read-only.  Margins stay valid until their entry is
    evicted, and the curvature until the next miss: a miss writes its
    margins into the array of the entry it evicts and its link values over
    the curvature, in the one n-vector of scratch the memo owns.  Fresh
    arrays per miss would map new pages, and fault them in, on every pass.
    """

    SIZE = 2

    def __init__(self, model: LossModel, dataset: Dataset):
        self.model = model
        self.dataset = dataset
        self._entries: dict[tuple[bytes, bytes | None], tuple] = {}
        self._scratch = np.empty(0)  # sized by the first miss
        self._curv_of: np.ndarray | None = None  # the margins self._curv was taken of
        self._curv: np.ndarray | None = None

    def margins(self, w: np.ndarray, indices) -> tuple:
        """(X, y, margins, mean link value, gradient sum) of w on the
        selected rows, computed on a miss."""
        idx = None if indices is None else np.asarray(indices, dtype=int)
        key = (np.ascontiguousarray(w, dtype=float).tobytes(),
               None if idx is None else idx.tobytes())
        entry = self._entries.pop(key, None)
        if entry is None:
            X, y = self.dataset.features, self.dataset.labels
            if idx is not None:
                if idx.size == 0:
                    raise ValueError("empty sample selection")
                X, y = X[idx], y[idx]
            rows = X.shape[0]
            # the evicted entry's margins array takes the new margins
            spare = (self._entries.pop(next(iter(self._entries)))[2].base
                     if len(self._entries) >= self.SIZE else None)
            if spare is None or spare.size < rows:
                spare = np.empty(rows)
            if rows > self._scratch.size:  # the first miss, or more rows than it had
                self._scratch = np.empty(rows)
            self._curv_of = None  # the pass writes over the curvature
            t = spare[:rows]
            loss, g = _margin_pass(X, y, w, self.model.link, t, self._scratch[:rows])
            t.flags.writeable = False
            g.flags.writeable = False
            entry = (X, y, t, loss, g)
        self._entries[key] = entry  # reinsert: dict order is least recent first
        return entry

    def curvature(self, w: np.ndarray, indices) -> tuple[np.ndarray, np.ndarray]:
        """(X, phi''(t)) of the margins of w on the selected rows, which
        margins() serves.  phi'' is taken over the spans of the Hessian and
        the HVP, which slice it, so its temporaries stay one span long."""
        X, _, t, _, _ = self.margins(w, indices)
        if t is not self._curv_of:
            self._curv = self._scratch[:t.size]
            for lo, hi in row_spans(*X.shape):
                self._curv[lo:hi] = self.model.link.second(t[lo:hi])
            self._curv.flags.writeable = False
            self._curv_of = t
        return X, self._curv


def _memo(model: LossModel, dataset: Dataset, memo: MarginMemo | None) -> MarginMemo:
    """The caller's memo, once it is checked to be bound to model and
    dataset, or a fresh one for one call."""
    if memo is None:
        return MarginMemo(model, dataset)
    if memo.model is not model or memo.dataset is not dataset:
        raise ValueError("the memo is bound to another model or dataset")
    return memo


def erm_value(model: LossModel, dataset: Dataset, w: np.ndarray, indices=None, *,
              memo: MarginMemo | None = None) -> float:
    _check_box(model, w)
    _, _, _, loss, _ = _memo(model, dataset, memo).margins(w, indices)
    return loss + _reg_value(model, w)


def erm_gradient(model: LossModel, dataset: Dataset, w: np.ndarray, indices=None, *,
                 memo: MarginMemo | None = None) -> np.ndarray:
    _check_box(model, w)
    X, _, _, _, g = _memo(model, dataset, memo).margins(w, indices)
    return g / X.shape[0] + _reg_grad(model, w)


def erm_hessian(model: LossModel, dataset: Dataset, w: np.ndarray, indices=None, *,
                memo: MarginMemo | None = None) -> np.ndarray:
    _check_box(model, w)
    if dataset.d > DENSE_HESSIAN_CAP:
        raise ValueError(
            f"refusing to materialize a {dataset.d}-dim Hessian (cap {DENSE_HESSIAN_CAP}); "
            "use erm_hvp instead")
    X, curv = _memo(model, dataset, memo).curvature(w, indices)
    n, d = X.shape
    rows = min(span_rows(d), n)

    def scratch() -> tuple[np.ndarray, np.ndarray]:
        return np.empty((rows, d)), np.empty(rows)

    def span(lo: int, hi: int, out: np.ndarray, own: tuple) -> None:
        block, c = X[lo:hi], curv[lo:hi]
        scaled = own[0][:hi - lo]
        if np.all(c >= 0.0):
            # numpy hands A^T A to syrk, which does half the gemm's work; einsum
            # makes the broadcast's products, faster on narrow rows
            np.einsum('ij,i->ij', block, np.sqrt(c, out=own[1][:hi - lo]), out=scaled)
            np.dot(scaled.T, scaled, out=out)
        else:
            np.dot(block.T, np.multiply(block, c[:, None], out=scaled), out=out)

    H = _spread_sum(span, n, d, (d, d), scratch) / n
    H = 0.5 * (H + H.T)  # a gemm block is symmetric only up to rounding
    diag = _reg_hess_diag(model, w)
    H[np.diag_indices_from(H)] += diag
    return H


def erm_hvp(model: LossModel, dataset: Dataset, w: np.ndarray, v: np.ndarray,
            indices=None, *, memo: MarginMemo | None = None) -> np.ndarray:
    _check_box(model, w)
    X, curv = _memo(model, dataset, memo).curvature(w, indices)
    n, d = X.shape

    def span(lo: int, hi: int, out: np.ndarray, own: np.ndarray) -> None:
        block, z = X[lo:hi], own[:hi - lo]
        np.multiply(curv[lo:hi], np.dot(block, v, out=z), out=z)
        np.dot(block.T, z, out=out)

    return (_spread_sum(span, n, d, (d,), lambda: np.empty(min(span_rows(d), n))) / n
            + _reg_hess_diag(model, w) * v)


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
