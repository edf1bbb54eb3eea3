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
are still in cache, and the partials are added in span order.  The spans
depend on n and d alone, so the results are bit-identical from run to run.
A span's row count is a multiple of the BLAS kernels' row blocking and each
margin is a per-row dot product, so a margin has the bits it would have in
one product over the whole of X; the loss is one mean over all n link
values and keeps those bits too.  Building a Dataset checks X over the same
spans (max_row_norm), so set-up holds no temporary the size of X either,
and the synthetic builders in harness.data fill X one span_rows block at a
time.

Two passes spread over the cores (_spread_sum): a fused value-and-gradient
pass whose spans hold at least SPREAD_MIN_SPAN_ROWS rows (d <= 256), and
every dense Hessian.  The calling thread and one more thread per further
usable core, SPREAD_WORKERS threads at most, claim spans in row order and
write each partial into a ring of slots (SPREAD_RING_BYTES per thread, and
at least one slot per thread plus one); the thread that completes the
lowest unfolded span adds the completed partials to the total in span
order.  So every sum has the bits of the one-thread loop at any core count,
the ring bounds the memory whatever n is, and no thread outlives the call.
The rule comes from a width scan (150 MB of X, fused pass, forced to spread
from d = 384, and Hessian on 1 -> 2 threads, medians in ms, 2-vCPU VM, one
BLAS thread):

    d           20      128      256      384      512      600
    pass      61->40   32->22   25->16   21->29   21->22   21->23
    Hessian   89->77  144->79  207->107 305->170 427->240     -

A narrow pass is bound by the link functions and the narrow gemv, which a
second core shares; from d = 384 on it is bound by memory bandwidth and
gains nothing.  The Hessian's syrk is bound by compute at every width the
dense path allows.  Value-only passes, the curvature pass and the HVP stay
on the calling thread: the HVP serves Lanczos checks above
DENSE_HESSIAN_CAP, where a pass is bound by memory bandwidth.

Each evaluator optionally takes a MarginMemo, bound to one model and one
dataset: the margins, the loss and the gradient term of the last few
(iterate, batch) pairs, computed together in one pass while each span is in
cache, and the curvature phi''(t) of the latest iterate asked for a Hessian
or an HVP.  A run asking for the loss, gradient and curvature at one
iterate thus reads X once for the loss and the gradient, and each
Hessian-vector product of a Lanczos check streams X once more and applies
no link function.  A miss writes into the margins array of the entry it
evicts and into one n-vector of scratch the memo owns, so it maps no fresh
pages.  A memo is owned by one run (or by the two phases of one run) and
is not shared; without one, every call makes its own pass and computes the
curvature once.  phi'' is elementwise and is taken over the same spans on
both paths, so they give bit-identical results.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

# Hessians are materialized densely only up to this dimension; above it only
# Hessian-vector products are offered.  The solvers and the Lanczos dense
# fallback share this cap.
DENSE_HESSIAN_CAP = 512

# Bytes of X per span of the evaluators' passes: a span's rows stay in a
# core's L2 cache between the two products a pass makes over them, and the
# temporaries stay bounded by one span whatever n is.
SPAN_BYTES = 1 << 20

# A span's row count is a multiple of this, which covers the BLAS kernels'
# row blocking, so a margin's bits do not depend on the span it falls in.
SPAN_ROW_ALIGN = 64

# A fused value-and-gradient pass spreads over the cores when a span holds at
# least this many rows (d <= 256).  The crossover, 1 -> 2 threads on 150 MB
# of X: 25 -> 16 ms at d = 256, bound by compute; 21 -> 29 ms at d = 384 (320
# rows a span), bound by memory bandwidth.
SPREAD_MIN_SPAN_ROWS = 512

# Threads a spread pass runs on at most, the calling thread included.  The
# rule above was measured on 2 vCPUs only; each further thread would hold a
# scaled Hessian span and a ring share of its own and contend for the one
# lock turn per span, and no run has shown that it pays.
SPREAD_WORKERS = 2

# A pass of fewer spans than this runs on the calling thread.  It is what the
# first design's ring of four slots a thread held at two threads; no shorter
# spread pass was timed.
SPREAD_MIN_SPANS = 8

# Bytes of span partials in flight per thread of a spread pass: a thread may
# run as far ahead of the lowest span not yet added as the ring allows before
# it waits for a slot.  The ring also holds at least one slot per thread plus
# one, so a gradient's small partials get a deep ring and a Hessian's large
# blocks a short one.  With a worker's vCPU half taken by another process,
# four slots a thread made the d = 54 pass slower than one thread (78-96
# against 76-85 ms) and sixteen or more faster (67-76 ms).
SPREAD_RING_BYTES = 1 << 16

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


def _spread_sum(fn: Callable, n: int, d: int, shape: tuple, scratch: Callable = lambda: None,
                spread: bool = True) -> np.ndarray:
    """The sum in span order of the partials fn(lo, hi, out, own) writes into
    out, an array of the given shape, over the spans of n rows of width d;
    own is the scratch that scratch() made for the thread running fn.

    With spread set and more than one usable core, the calling thread and
    one more thread per further core, SPREAD_WORKERS threads at most, claim
    spans in row order, each partial into a ring of SPREAD_RING_BYTES of
    slots per thread, and at least one slot per thread plus one.  The thread
    that completes the lowest span not yet added adds it, and every
    completed span after it, to the total in span order, so the sum has the
    bits of the one-thread loop.  A thread waits only for a free slot.
    Every array is made on the calling thread, so the threads' malloc arenas
    keep none of them.  A thread's exception is raised here, after every
    thread has stopped.  One core, or fewer than SPREAD_MIN_SPANS spans,
    runs the same loop on the calling thread.
    """
    rows = span_rows(d)
    spans = -(-n // rows)
    workers = min(usable_cores(), SPREAD_WORKERS) if spread else 1
    total = np.empty(shape)
    if workers == 1 or spans < SPREAD_MIN_SPANS:
        own, part, bounds = scratch(), np.empty(shape), row_spans(n, d)
        fn(*next(bounds), total, own)
        for lo, hi in bounds:
            fn(lo, hi, part, own)
            total += part
        return total

    slots = min(spans, max(workers + 1, workers * (SPREAD_RING_BYTES // total.nbytes)))
    ring = np.empty((slots,) + shape)
    done = [False] * slots
    claimed = added = 0
    failure: BaseException | None = None
    cond = threading.Condition()

    def work(own) -> None:
        nonlocal claimed, added, failure
        k = None  # the span this thread completed last
        try:
            while True:
                with cond:  # one turn of the lock per span: complete, add, claim
                    if k is not None:
                        done[k % slots] = True
                        while added < spans and done[added % slots]:
                            part = ring[added % slots]
                            if added:
                                np.add(total, part, out=total)
                            else:
                                np.copyto(total, part)
                            done[added % slots] = False
                            added += 1
                        cond.notify_all()
                    while failure is None and claimed < spans and claimed - added == slots:
                        cond.wait()
                    if failure is not None or claimed == spans:
                        return
                    k = claimed
                    claimed += 1
                fn(k * rows, min(n, (k + 1) * rows), ring[k % slots], own)
        except BaseException as exc:  # the calling thread raises it
            with cond:
                failure = failure or exc
                cond.notify_all()

    owns = [scratch() for _ in range(workers)]
    threads = []
    try:
        for own in owns[1:]:
            thread = threading.Thread(target=work, args=(own,), daemon=True)
            thread.start()
            threads.append(thread)
        work(owns[0])
    finally:
        for thread in threads:
            thread.join()
    if failure is not None:
        raise failure
    return total


def max_row_norm(X: np.ndarray) -> float:
    """The largest Euclidean row norm of a nonempty X, taken span by span so
    that no temporary grows with n; each row norm has the bits of one
    np.linalg.norm over the whole of X, and a NaN entry gives NaN."""
    return float(np.max([np.max(np.linalg.norm(X[lo:hi], axis=1))
                         for lo, hi in row_spans(*X.shape)]))


def _margin_pass(X: np.ndarray, y: np.ndarray, w: np.ndarray, link: MarginLink,
                 gradient: bool, t: np.ndarray, values: np.ndarray
                 ) -> tuple[float, np.ndarray | float]:
    """Margins y * (X @ w) into t, the mean link value over them and, if
    gradient is set, the gradient sum X^T (phi'(t) y), made span by span while
    each span is in cache.  The link values go to values; t and values have
    len(X) entries.  A pass with the gradient spreads over the cores when
    its spans hold SPREAD_MIN_SPAN_ROWS rows or more."""

    def span(lo: int, hi: int, out: np.ndarray | None = None, own=None) -> None:
        t_s = np.multiply(y[lo:hi], X[lo:hi] @ w, out=t[lo:hi])
        values[lo:hi] = link.value(t_s)
        if out is not None:
            np.matmul(X[lo:hi].T, link.deriv(t_s) * y[lo:hi], out=out)

    n, d = X.shape
    g = 0.0
    if gradient:
        g = _spread_sum(span, n, d, (d,), spread=span_rows(d) >= SPREAD_MIN_SPAN_ROWS)
    else:
        for lo, hi in row_spans(n, d):
            span(lo, hi)
    # one mean over all n values, so the loss has the bits of an unspanned pass
    return float(np.mean(values)), g


def _curvature_pass(link: MarginLink, X: np.ndarray, t: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """phi''(t) into out over the spans of X, so its temporaries stay one
    span long; the spans are the Hessian's and the HVP's, which slice it."""
    for lo, hi in row_spans(*X.shape):
        out[lo:hi] = link.second(t[lo:hi])
    return out


def _memo_key(w: np.ndarray, indices) -> tuple[bytes, bytes | None]:
    return (np.ascontiguousarray(w, dtype=float).tobytes(),
            None if indices is None else np.asarray(indices, dtype=int).tobytes())


class MarginMemo:
    """Margins y * (X @ w), mean link values and gradient sums
    X^T (phi'(t) y) of the most recent (iterate, batch) pairs of one run,
    and the curvature phi''(t) of one of them.

    The memo is bound to one model and one dataset, and the erm_* evaluators
    given a memo read their rows from it.  Entries are keyed by the bytes of
    w and of the batch indices, so one is served only for a bit-identical
    iterate on the same batch.  It keeps SIZE entries and evicts the least
    recently used: a run needs the current iterate plus the point it steps
    or probes to.  An entry keeps its batch rows too, so a hit also skips
    the row gather.  A miss pays for the gradient sum even when only the
    loss is asked for.

    The curvature is computed on the first Hessian or HVP request for an
    entry and kept until the next miss, so the Hessian-vector products of
    one Lanczos check share it.  It lives in the one n-vector of scratch
    the memo owns, to which a miss writes the link values it averages.

    Stored arrays are read-only.  Margins stay valid until their entry is
    evicted, and the curvature until the next miss: a miss writes its
    margins into the array of the entry it evicts and its link values over
    the curvature.  Fresh arrays per miss would map new pages, and fault
    them in, on every pass.
    """

    SIZE = 2

    def __init__(self, model: LossModel, dataset: Dataset):
        self.model = model
        self.dataset = dataset
        self._entries: dict[tuple[bytes, bytes | None], tuple] = {}
        self._scratch = np.empty(dataset.n)
        self._curv_key: tuple[bytes, bytes | None] | None = None
        self._curv: np.ndarray | None = None

    def margins(self, w: np.ndarray, indices) -> tuple:
        """(X, y, margins, mean link value, gradient sum) of w on the
        selected rows, computed on a miss."""
        key = _memo_key(w, indices)
        entry = self._entries.pop(key, None)
        if entry is None:
            X, y = _select(self.dataset, indices)
            rows = X.shape[0]
            # the evicted entry's margins array takes the new margins
            spare = (self._entries.pop(next(iter(self._entries)))[2].base
                     if len(self._entries) >= self.SIZE else None)
            if spare is None or spare.size < rows:
                spare = np.empty(rows)
            if rows > self._scratch.size:  # a batch that repeats rows
                self._scratch = np.empty(rows)
            self._curv_key = None  # the pass writes over the curvature
            t = spare[:rows]
            loss, g = _margin_pass(X, y, w, self.model.link, True, t, self._scratch[:rows])
            t.flags.writeable = False
            g.flags.writeable = False
            entry = (X, y, t, loss, g)
        self._entries[key] = entry  # reinsert: dict order is least recent first
        return entry

    def curvature(self, w: np.ndarray, indices) -> np.ndarray:
        """phi''(t) of the margins of w on the selected rows, which the memo
        holds: margins() was called for them and nothing evicted them since."""
        key = _memo_key(w, indices)
        if key != self._curv_key:
            X, _, t, _, _ = self._entries[key]
            self._curv = _curvature_pass(self.model.link, X, t, self._scratch[:t.size])
            self._curv.flags.writeable = False
            self._curv_key = key
        return self._curv


def _margins(model: LossModel, dataset: Dataset, w: np.ndarray, indices,
             memo: MarginMemo | None, gradient: bool) -> tuple:
    """(X, y, t, loss, g) as MarginMemo.margins; without a memo g is computed
    only when gradient is set."""
    if memo is not None:
        if memo.model is not model or memo.dataset is not dataset:
            raise ValueError("the memo is bound to another model or dataset")
        return memo.margins(w, indices)
    X, y = _select(dataset, indices)
    t = np.empty(X.shape[0])
    return (X, y, t) + _margin_pass(X, y, w, model.link, gradient, t, np.empty(X.shape[0]))


def _curvature(model: LossModel, dataset: Dataset, w: np.ndarray, indices,
               memo: MarginMemo | None) -> tuple[np.ndarray, np.ndarray]:
    """(X, phi''(t)) on the selected rows: computed once per memo entry, or
    once per call without a memo."""
    X, _, t, _, _ = _margins(model, dataset, w, indices, memo, gradient=False)
    if memo is None:
        return X, _curvature_pass(model.link, X, t, np.empty(t.size))
    return X, memo.curvature(w, indices)


def erm_value(model: LossModel, dataset: Dataset, w: np.ndarray, indices=None, *,
              memo: MarginMemo | None = None) -> float:
    _check_box(model, w)
    _, _, _, loss, _ = _margins(model, dataset, w, indices, memo, gradient=False)
    return loss + _reg_value(model, w)


def erm_gradient(model: LossModel, dataset: Dataset, w: np.ndarray, indices=None, *,
                 memo: MarginMemo | None = None) -> np.ndarray:
    _check_box(model, w)
    X, _, _, _, g = _margins(model, dataset, w, indices, memo, gradient=True)
    return g / X.shape[0] + _reg_grad(model, w)


def erm_hessian(model: LossModel, dataset: Dataset, w: np.ndarray, indices=None,
                dense_cap: int = DENSE_HESSIAN_CAP, *,
                memo: MarginMemo | None = None) -> np.ndarray:
    _check_box(model, w)
    if dataset.d > dense_cap:
        raise ValueError(
            f"refusing to materialize a {dataset.d}-dim Hessian (cap {dense_cap}); "
            "use erm_hvp instead")
    X, curv = _curvature(model, dataset, w, indices, memo)
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
            np.matmul(scaled.T, scaled, out=out)
        else:
            np.matmul(block.T, np.multiply(block, c[:, None], out=scaled), out=out)

    H = _spread_sum(span, n, d, (d, d), scratch) / n
    H = 0.5 * (H + H.T)  # a gemm block is symmetric only up to rounding
    diag = _reg_hess_diag(model, w)
    H[np.diag_indices_from(H)] += diag
    return H


def erm_hvp(model: LossModel, dataset: Dataset, w: np.ndarray, v: np.ndarray,
            indices=None, *, memo: MarginMemo | None = None) -> np.ndarray:
    _check_box(model, w)
    X, curv = _curvature(model, dataset, w, indices, memo)

    def span(lo: int, hi: int, out: np.ndarray, own) -> None:
        block = X[lo:hi]
        np.matmul(block.T, curv[lo:hi] * (block @ v), out=out)

    n, d = X.shape
    return _spread_sum(span, n, d, (d,), spread=False) / n + _reg_hess_diag(model, w) * v


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


def _subsampling_branches(model: LossModel, constants, T: int, eta: float,
                          d: int) -> tuple[float, float]:
    """The gradient and Hessian subsampling-deviation branches of the
    published sample sizes, at a batch fraction of 1: the batch size under
    which the batch's deviation stays within half of each noise allowance."""
    log_term = math.log(2.0 * d * T / eta)
    grad_branch = (64.0 * model.B_g ** 2 * (log_term + 0.25)
                   * max(constants.c1 ** -2 * constants.eps_g ** -2,
                         (model.M ** 2 / constants.c2 ** 2) * constants.eps_h ** -4))
    hess_branch = 32.0 * model.B_H ** 2 * log_term * constants.c ** -2 * constants.eps_h ** -2
    return grad_branch, hess_branch


def min_batch_size(model: LossModel, constants, T: int, eta: float, d: int) -> int:
    """Smallest mini-batch size under which the subsampling deviation of the
    gradient and Hessian stays within half of the bounded-noise allowances."""
    if T < 1 or d < 1 or not (0.0 < eta < 1.0):
        raise ValueError("need T >= 1, d >= 1, eta in (0, 1)")
    return int(math.ceil(max(_subsampling_branches(model, constants, T, eta, d))))
