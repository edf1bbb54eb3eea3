"""Objective tests: derivatives vs finite differences, declared bounds,
replace-one sensitivities, batching."""

import decimal
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

from dpopt import objective
from dpopt.mechanisms import DEFAULT_WIGNER_TAIL_CONSTANT, SeededRng
from dpopt.objective import (BatchSelector, Dataset, MarginMemo, WeightBoxError,
                             builtin_l2_logistic, builtin_nonconvex_logistic,
                             builtin_quartic_saddle, erm_gradient,
                             erm_hessian, erm_hvp, erm_value, sensitivities)
from dpopt.accountant import NoisePlan
from dpopt.optimizer import AlgorithmConstants, min_batch_size, min_samples_advisor


def random_dataset(n, d, seed, row_norm=1.0):
    rng = SeededRng(seed)
    X = rng.standard_normal((n, d))
    X *= row_norm / np.linalg.norm(X, axis=1, keepdims=True)
    y = np.where(rng.uniform(n) < 0.5, -1.0, 1.0)
    return Dataset(X, y, row_norm)


def fd_gradient(model, ds, w, h=1e-5):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (erm_value(model, ds, w + e) - erm_value(model, ds, w - e)) / (2 * h)
    return g


ALL_MODELS = [
    ("nonconvex", lambda d: builtin_nonconvex_logistic(1e-3, 1.0, d)),
    ("l2", lambda d: builtin_l2_logistic(1e-3, 1.0, d)),
    ("quartic", lambda d: builtin_quartic_saddle(1.0, d)),
]


class TestDataset:
    def test_label_domain_enforced(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([1.0, 2.0]), 2.0)

    def test_norm_bound_enforced(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((1, 4)), np.array([1.0]), 1.0)  # row norm 2 > 1

    def test_shapes(self):
        ds = random_dataset(5, 3, 0)
        assert (ds.n, ds.d) == (5, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected_with_row(self, bad):
        X = np.full((4, 3), 0.1)
        X[2, 1] = bad
        X[3, 0] = bad
        with pytest.raises(ValueError, match="row 2 has a non-finite entry"):
            Dataset(X, np.ones(4), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_past_first_span_rejected_with_row(self, bad):
        n = objective.span_rows(3) + 100
        row = n - 60
        X = np.full((n, 3), 0.1)
        X[row, 1] = bad
        X[row + 7, 0] = bad
        with pytest.raises(ValueError, match=f"row {row} has a non-finite entry"):
            Dataset(X, np.ones(n), 1.0)

    def test_norm_overflow_past_first_span_rejected(self):
        n = objective.span_rows(3) + 100
        X = np.full((n, 3), 0.1)
        X[n - 60] = 1e200  # finite entries whose norm overflows
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match=f"row {n - 60} has a norm that overflows"):
            Dataset(X, np.ones(n), 1e300)

    def test_norm_overflow_rejected_under_an_infinite_bound(self):
        X = np.array([[0.5, 0.5], [1e200, 1e200]])
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="row 1 has a norm that overflows"):
            Dataset(X, np.ones(2), math.inf)

    def test_building_on_existing_features_holds_no_copy(self):
        # the whole-matrix row norm allocates a square of X
        n, d = 65_536, 50
        X, y = np.full((n, d), 0.1), np.ones(n)
        tracemalloc.start()
        try:
            ds = Dataset(X, y, math.sqrt(d) * 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features is X
        assert peak < X.nbytes / 4

    def test_nan_norm_bound_rejected(self):
        with pytest.raises(ValueError, match="feature_norm_bound nan is not finite"):
            Dataset(np.full((2, 2), 0.1), np.ones(2), math.nan)

    def test_infinite_norm_bound_rejected(self):
        with pytest.raises(ValueError, match="feature_norm_bound inf is not finite"):
            Dataset(np.full((2, 2), 0.1), np.ones(2), math.inf)


class TestEvaluation:
    def test_logistic_value_at_origin_is_log_two(self):
        ds = random_dataset(20, 4, 1)
        for model in (builtin_nonconvex_logistic(1e-3, 1.0, 4),
                      builtin_l2_logistic(1e-3, 1.0, 4)):
            assert erm_value(model, ds, np.zeros(4)) == pytest.approx(math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_gradient_matches_finite_differences(self, name, make):
        ds = random_dataset(30, 5, 2)
        model = make(5)
        rng = SeededRng(3)
        for _ in range(5):
            w = 0.5 * rng.standard_normal(5)
            g = erm_gradient(model, ds, w)
            ref = fd_gradient(model, ds, w)
            assert np.max(np.abs(g - ref)) <= 1e-5 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_hessian_matches_gradient_differences(self, name, make):
        ds = random_dataset(25, 4, 4)
        model = make(4)
        w = 0.3 * SeededRng(5).standard_normal(4)
        H = erm_hessian(model, ds, w)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            col = (erm_gradient(model, ds, w + e) - erm_gradient(model, ds, w - e)) / (2 * h)
            assert np.max(np.abs(H[:, i] - col)) <= 1e-6

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_hvp_matches_dense_hessian(self, name, make):
        ds = random_dataset(25, 5, 6)
        model = make(5)
        rng = SeededRng(7)
        w = 0.4 * rng.standard_normal(5)
        v = rng.standard_normal(5)
        assert np.allclose(erm_hvp(model, ds, w, v),
                           erm_hessian(model, ds, w) @ v, atol=1e-10)

    def test_dense_cap_refuses_large_hessian(self, monkeypatch):
        monkeypatch.setattr(objective, "DENSE_HESSIAN_CAP", 5)
        ds = random_dataset(4, 6, 8)
        model = builtin_l2_logistic(0.0, 1.0, 6)
        with pytest.raises(ValueError):
            erm_hessian(model, ds, np.zeros(6))

    def test_empty_selection_rejected(self):
        ds = random_dataset(4, 2, 9)
        model = builtin_l2_logistic(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            erm_value(model, ds, np.zeros(2), indices=[])

    def test_weight_box_violation_raises(self):
        ds = random_dataset(4, 2, 10)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 2, weight_box=0.5)
        for top in (0.6, math.inf, math.nan):
            with pytest.raises(WeightBoxError):
                erm_value(model, ds, np.array([top, 0.0]))

    def test_l2_logistic_hessian_psd(self):
        ds = random_dataset(30, 4, 11)
        model = builtin_l2_logistic(1e-3, 1.0, 4)
        rng = SeededRng(12)
        for _ in range(5):
            w = rng.standard_normal(4)
            vals = np.linalg.eigvalsh(erm_hessian(model, ds, w))
            assert vals[0] >= -1e-12


class TestLogisticLink:
    def test_softplus_matches_logaddexp(self):
        t = np.concatenate([np.linspace(-1e3, 1e3, 200_001),
                            SeededRng(30).standard_normal(100_000) * 20.0])
        value = builtin_nonconvex_logistic(0.0, 1.0, 1).link.value(t)
        assert np.all(np.isfinite(value))
        assert np.max(np.abs(value - np.logaddexp(0.0, -t))) <= 1e-15

    def test_curvature_matches_two_sigmoids(self):
        from scipy.special import expit
        t = np.linspace(-50.0, 50.0, 10_001)
        curv = builtin_l2_logistic(0.0, 1.0, 1).link.second(t)
        assert np.allclose(curv, expit(t) * expit(-t), rtol=1e-12, atol=1e-300)

    # |t| <= 100 and the tails out to where e^-|t| underflows
    GRID = np.concatenate([np.linspace(-100.0, 100.0, 2_001),
                           SeededRng(31).uniform(400) * 200.0 - 100.0,
                           np.linspace(100.0, 745.0, 130), -np.linspace(100.0, 745.0, 130)])

    @staticmethod
    def decimal_derivatives(t):
        """phi'(t) = -1/(1 + e^t) and phi''(t) = 1/((1 + e^t)(1 + e^-t)) in
        50-digit decimal arithmetic, rounded once to float."""
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.Emin = 50, decimal.MAX_EMAX, decimal.MIN_EMIN
            x = decimal.Decimal(float(t))
            up, down = 1 + x.exp(), 1 + (-x).exp()
            return float(-1 / up), float(1 / (up * down))

    def test_derivatives_match_a_decimal_oracle(self):
        link = builtin_nonconvex_logistic(0.0, 1.0, 1).link
        want = np.array([self.decimal_derivatives(t) for t in self.GRID]).T
        # below the smallest normal, e^-|t| keeps only its subnormal bits
        for got, ref in zip((link.deriv(self.GRID), link.second(self.GRID)), want):
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref) + 2.0 ** -1074)

    def test_value_keeps_the_softplus_bits(self):
        t = self.GRID
        link = builtin_nonconvex_logistic(0.0, 1.0, 1).link
        assert np.array_equal(link.value(t),
                              np.maximum(-t, 0.0) + np.log1p(np.exp(-np.abs(t))))

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_pass_has_the_standalone_link_bits(self, name, make, monkeypatch):
        # spans of 7 rows start off any SIMD alignment, and on one core the
        # pass runs them in row order on the calling thread; its link values
        # and derivatives have the bits of the link's own over all the margins
        # at once
        monkeypatch.setattr(objective, "span_rows", lambda d: 7)
        set_cores(monkeypatch, 1)
        ds = random_dataset(60, 4, 32, row_norm=30.0)
        base = make(4)
        derivs = []

        def recorded(t, value, deriv):
            base.link.value_and_deriv(t, value, deriv)
            derivs.append(deriv.copy())

        memo = MarginMemo(replace(base, link=replace(base.link, value_and_deriv=recorded)), ds)
        t = memo.margins(0.4 * SeededRng(33).standard_normal(4), None)[2]
        assert np.array_equal(memo._scratch, base.link.value(t))
        assert np.array_equal(np.concatenate(derivs), base.link.deriv(t))


class TestMarginMemo:
    @staticmethod
    def _evaluate(model, ds, w, v, indices, memo):
        return (erm_value(model, ds, w, indices, memo=memo),
                erm_gradient(model, ds, w, indices, memo=memo),
                erm_hessian(model, ds, w, indices, memo=memo),
                erm_hvp(model, ds, w, v, indices, memo=memo))

    @pytest.mark.parametrize("indices", [None, [0, 3, 4, 9, 17, 22]])
    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_memo_on_and_off_agree(self, name, make, indices, monkeypatch):
        # "off" is a fresh memo, the one a call without memo= gets
        monkeypatch.setattr(objective, "span_rows", lambda d: 4)  # several spans per pass
        ds = random_dataset(25, 5, 31)
        model = make(5)
        rng = SeededRng(32)
        memo = MarginMemo(model, ds)
        for _ in range(3):
            w = 0.4 * rng.standard_normal(5)
            v = rng.standard_normal(5)
            # twice with the warm memo: the second round is served from it
            for _ in range(2):
                on = self._evaluate(model, ds, w, v, indices, memo)
                off = self._evaluate(model, ds, w, v, indices, MarginMemo(model, ds))
                assert on[0] == off[0]
                for a, b in zip(on[1:], off[1:]):
                    assert np.array_equal(a, b)

    def test_minibatch_and_full_batch_share_one_memo(self, monkeypatch):
        # both write their link values to the memo's one scratch vector
        monkeypatch.setattr(objective, "span_rows", lambda d: 4)
        ds = random_dataset(25, 5, 41)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 5)
        memo = MarginMemo(model, ds)
        rng = SeededRng(42)
        batch = [2, 3, 8, 11, 19, 24]
        repeats = list(range(25)) + batch  # more rows than the dataset has
        for _ in range(3):
            w = 0.4 * rng.standard_normal(5)
            for indices in (batch, None, batch, None, repeats, batch):
                assert (erm_value(model, ds, w, indices, memo=memo)
                        == erm_value(model, ds, w, indices))
                assert np.array_equal(erm_gradient(model, ds, w, indices, memo=memo),
                                      erm_gradient(model, ds, w, indices))

    def test_memo_bound_to_its_model_and_dataset(self):
        ds = random_dataset(10, 2, 36)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 2)
        memo = MarginMemo(model, ds)
        w = np.array([0.2, -0.1])
        with pytest.raises(ValueError, match="bound to another"):
            erm_gradient(builtin_l2_logistic(1e-3, 1.0, 2), ds, w, memo=memo)
        with pytest.raises(ValueError, match="bound to another"):
            erm_value(model, random_dataset(10, 2, 37), w, memo=memo)

    def test_batch_call_without_a_memo_maps_no_n_vector(self):
        # the fresh memo of a call sizes its scratch to the batch, not to n
        n = 100_000
        ds = random_dataset(n, 3, 38)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 3)
        tracemalloc.start()
        try:
            erm_gradient(model, ds, np.full(3, 0.1), np.arange(0, n, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 8 / 4

    def test_entry_never_served_for_another_iterate_or_batch(self):
        ds = random_dataset(12, 3, 33)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 3)
        memo = MarginMemo(model, ds)
        w = np.array([0.3, -0.2, 0.5])
        w_near = np.nextafter(w, np.inf)  # one ulp away in every coordinate
        cases = [(w, None), (w_near, None), (w, [1, 2, 5]), (w, [1, 2, 6]),
                 (w_near, [1, 2, 5]), (w, None)]
        for wk, idx in cases:
            assert erm_value(model, ds, wk, idx, memo=memo) == erm_value(model, ds, wk, idx)
            assert np.array_equal(erm_gradient(model, ds, wk, idx, memo=memo),
                                  erm_gradient(model, ds, wk, idx))

    def test_least_recent_entry_evicted(self):
        ds = random_dataset(10, 2, 34)
        memo = MarginMemo(builtin_nonconvex_logistic(1e-3, 1.0, 2), ds)
        a, b, c = (np.full(2, x) for x in (0.1, 0.2, 0.3))
        ta = memo.margins(a, None)[2]
        memo.margins(b, None)
        assert memo.margins(a, None)[2] is ta  # hit: a becomes most recent
        memo.margins(c, None)                  # evicts b, not a
        assert memo.margins(a, None)[2] is ta
        assert len(memo._entries) == MarginMemo.SIZE == 2
        _, _, t, _, g = memo.margins(a, None)
        for stored in (t, g):
            with pytest.raises(ValueError):
                stored[0] = 0.0  # stored margins and gradient sums are read-only

    def test_batch_rows_match_selection(self):
        ds = random_dataset(10, 2, 35)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 2)
        w = np.array([0.2, -0.1])
        X, y, t, loss, g = MarginMemo(model, ds).margins(w, [7, 1, 4])
        assert np.array_equal(X, ds.features[[7, 1, 4]])
        assert np.array_equal(y, ds.labels[[7, 1, 4]])
        assert np.array_equal(t, y * (X @ w))
        assert loss == float(np.mean(model.link.value(t)))
        assert np.array_equal(g, X.T @ (model.link.deriv(t) * y))


def per_span_curvature_reference(model, ds, w, v, indices):
    """erm_hessian and erm_hvp with phi''(t) computed inside every span, as
    each call did before the curvature was kept beside the margins."""
    X, y = ds.features, ds.labels
    if indices is not None:
        X, y = X[indices], y[indices]
    t = np.concatenate([y[lo:hi] * (X[lo:hi] @ w) for lo, hi in objective.row_spans(*X.shape)])

    def hess_span(lo, hi):
        block = X[lo:hi]
        curv = model.link.second(t[lo:hi])
        if np.all(curv >= 0.0):
            scaled = np.einsum('ij,i->ij', block, np.sqrt(curv))
            return scaled.T @ scaled
        return block.T @ (block * curv[:, None])

    def hvp_span(lo, hi):
        block = X[lo:hi]
        return block.T @ (model.link.second(t[lo:hi]) * (block @ v))

    def half_sum(fn, spans):
        total = fn(*spans[0])
        for lo, hi in spans[1:]:
            total += fn(lo, hi)
        return total

    def span_sum(fn):
        # each half of the spans in span order, then the second half's sum
        # added to the first's
        spans = list(objective.row_spans(*X.shape))
        if len(spans) == 1:
            return half_sum(fn, spans)
        mid = -(-len(spans) // 2)
        return half_sum(fn, spans[:mid]) + half_sum(fn, spans[mid:])

    H = span_sum(hess_span) / X.shape[0]
    H = 0.5 * (H + H.T)
    H[np.diag_indices_from(H)] += objective._reg_hess_diag(model, w)
    hvp = span_sum(hvp_span) / X.shape[0] + objective._reg_hess_diag(model, w) * v
    return H, hvp


class TestCurvatureOncePerIterate:
    @pytest.mark.parametrize("with_memo", [False, True])
    @pytest.mark.parametrize("indices", [None, [0, 3, 4, 9, 17, 22, 3]])
    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_kept_curvature_has_the_per_span_bits(self, name, make, indices, with_memo,
                                                   monkeypatch):
        monkeypatch.setattr(objective, "span_rows", lambda d: 4)  # several spans per pass
        ds = random_dataset(25, 5, 51, row_norm=2.0)
        model = make(5)
        rng = SeededRng(52)
        memo = MarginMemo(model, ds) if with_memo else None
        negative = False
        for _ in range(4):  # past MarginMemo.SIZE, so entries are recycled
            w, v = 0.4 * rng.standard_normal(5), rng.standard_normal(5)
            H_ref, hvp_ref = per_span_curvature_reference(model, ds, w, v, indices)
            negative |= bool(np.any(np.linalg.eigvalsh(H_ref) < 0.0))
            for _ in range(2):  # the second round reads the kept curvature
                assert np.array_equal(erm_hvp(model, ds, w, v, indices, memo=memo), hvp_ref)
                assert np.array_equal(erm_hessian(model, ds, w, indices, memo=memo), H_ref)
        if name == "quartic":
            assert negative  # the double well's gemm branch was taken

    def test_curvature_kept_read_only_until_the_next_miss(self):
        ds = random_dataset(12, 3, 53)  # one span: one phi'' call per curvature pass
        base = builtin_nonconvex_logistic(1e-3, 1.0, 3)
        passes = []

        def counted(t):
            passes.append(1)
            return base.link.second(t)

        model = replace(base, link=replace(base.link, second=counted))
        memo = MarginMemo(model, ds)
        a, b = np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.2, -0.4])
        _, _, t, _, _ = memo.margins(a, None)
        curv = memo.curvature(a, None)[1]
        assert memo.curvature(a, None)[1] is curv and len(passes) == 1
        assert np.array_equal(curv, base.link.second(t))
        with pytest.raises(ValueError):
            curv[0] = 0.0
        memo.margins(a, None)  # a hit keeps it
        assert memo.curvature(a, None)[1] is curv and len(passes) == 1
        memo.margins(b, None)  # a miss writes over it: asked again, it is recomputed
        memo.curvature(b, None)
        assert np.array_equal(memo.curvature(a, None)[1], base.link.second(t))
        assert len(passes) == 3

    def test_evicted_arrays_are_recycled(self, monkeypatch):
        # four iterates through a two-entry memo: the third and fourth miss
        # write into the arrays the first two left, so no n-vector is made
        monkeypatch.setattr(objective, "span_rows", lambda d: 64)
        n, d = 20_000, 5
        ds = random_dataset(n, d, 54)
        model = builtin_nonconvex_logistic(1e-3, 1.0, d)
        memo = MarginMemo(model, ds)
        rng = SeededRng(55)
        iterates = [0.4 * rng.standard_normal(d) for _ in range(4)]
        v = rng.standard_normal(d)

        def evaluate(w, memo):
            return (erm_value(model, ds, w, memo=memo), erm_gradient(model, ds, w, memo=memo),
                    erm_hvp(model, ds, w, v, memo=memo))

        tracemalloc.start()
        try:
            with_memo = [evaluate(w, memo) for w in iterates[:2]]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with_memo += [evaluate(w, memo) for w in iterates[2:]]
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grown < n * 8
        for w, on in zip(iterates, with_memo):
            off = evaluate(w, None)
            assert on[0] == off[0]
            assert np.array_equal(on[1], off[1]) and np.array_equal(on[2], off[2])


class TestChunkedHessian:
    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_matches_one_shot_form(self, name, make, monkeypatch):
        ds = random_dataset(30, 4, 37)  # 30 rows: 4 spans of 7 plus one of 2
        model = make(4)
        rng = SeededRng(38)
        w = 0.3 * rng.standard_normal(4)
        v = rng.standard_normal(4)
        monkeypatch.setattr(objective, "span_rows", lambda d: 7)
        X, y = ds.features, ds.labels
        t = y * (X @ w)
        curv = model.link.second(t)
        hessian = X.T @ (X * curv[:, None]) / ds.n
        hessian = 0.5 * (hessian + hessian.T)
        hessian[np.diag_indices(4)] += objective._reg_hess_diag(model, w)
        gradient = X.T @ (model.link.deriv(t) * y) / ds.n + objective._reg_grad(model, w)
        hvp = X.T @ (curv * (X @ v)) / ds.n + objective._reg_hess_diag(model, w) * v
        spanned = erm_hessian(model, ds, w)
        assert np.allclose(spanned, hessian, rtol=1e-12, atol=1e-15)
        assert np.array_equal(spanned, spanned.T)
        assert np.allclose(erm_gradient(model, ds, w), gradient, rtol=1e-12, atol=1e-15)
        assert np.allclose(erm_hvp(model, ds, w, v), hvp, rtol=1e-12, atol=1e-15)

    def test_peak_memory_bounded_by_chunk(self):
        # the one-shot form allocates an n x d temporary as large as X itself
        n, d = 65_536, 50
        X = np.full((n, d), 0.1)
        ds = Dataset(X, np.ones(n), math.sqrt(d) * 0.1)
        model = builtin_l2_logistic(1e-3, 1.0, d)
        w = np.full(d, 0.01)
        tracemalloc.start()
        try:
            erm_hessian(model, ds, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        span_bytes = objective.span_rows(d) * d * 8
        assert peak < span_bytes + 4 * n * 8 + 16 * d * d * 8
        assert peak < X.nbytes / 4


class TestSpans:
    @pytest.mark.parametrize("d", [1, 5, 54, 600, 20_000])
    def test_span_rows_aligned_and_bounded(self, d):
        rows = objective.span_rows(d)
        assert rows % objective.SPAN_ROW_ALIGN == 0
        assert rows * d * 8 <= max(objective.SPAN_BYTES,
                                   objective.SPAN_ROW_ALIGN * d * 8)

    def test_loss_has_the_bits_of_one_product(self):
        # 3 spans of 2368 rows plus a short tail: each margin, and so the
        # mean of the link values, keeps the bits of one X @ w
        ds = random_dataset(7_500, 54, 39)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 54)
        w = 0.1 * SeededRng(40).standard_normal(54)
        assert objective.span_rows(54) < ds.n
        t = ds.labels * (ds.features @ w)
        one_shot = float(np.mean(model.link.value(t))) + objective._reg_value(model, w)
        assert erm_value(model, ds, w) == one_shot
        assert erm_value(model, ds, w, memo=MarginMemo(model, ds)) == one_shot


def set_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)


def counted_thread_starts(monkeypatch):
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


class TestSpreadOverCores:
    # 41 spans of 512 rows and a tail
    N, D = 41 * 512 + 77, 6

    def _evaluate(self, model, ds, w, v, indices, with_memo):
        memo = MarginMemo(model, ds) if with_memo else None
        return (erm_value(model, ds, w, indices, memo=memo),
                erm_gradient(model, ds, w, indices, memo=memo),
                erm_hessian(model, ds, w, indices, memo=memo),
                erm_hvp(model, ds, w, v, indices, memo=memo))

    @pytest.mark.parametrize("cpu_count,cores", [(3, 3), (None, 1)])
    def test_cores_without_an_affinity_call(self, cpu_count, cores, monkeypatch):
        from dpopt.harness import data
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert objective.usable_cores() == cores
        assert data.synth_workers() == min(cores, data.BLOCKS_IN_FLIGHT)

    @pytest.mark.parametrize("spans", [1, 2, 3, 7, 8, 9])
    @pytest.mark.parametrize("name,make", [ALL_MODELS[0], ALL_MODELS[2]])
    def test_bits_do_not_depend_on_worker_count(self, name, make, spans, monkeypatch):
        monkeypatch.setattr(objective, "span_rows", lambda d: 512)
        n = (spans - 1) * 512 + 77  # a short tail span
        ds = random_dataset(n, self.D, 61)
        base = make(self.D)
        scratch_users = {}  # id of a pass's link scratch -> (the scratch, its threads)

        def recorded(t, value, deriv):
            users = scratch_users.setdefault(id(deriv.base), (deriv.base, set()))[1]
            users.add(threading.get_ident())
            base.link.value_and_deriv(t, value, deriv)

        model = replace(base, link=replace(base.link, value_and_deriv=recorded))
        hvp_users = {}  # id of an HVP worker's span scratch -> (the scratch, its threads)
        spread_sum = objective._spread_sum

        def recorded_sum(fn, n, d, shape, scratch):
            def span(lo, hi, out, own):
                if fn.__qualname__.startswith("erm_hvp."):
                    hvp_users.setdefault(id(own), (own, set()))[1].add(threading.get_ident())
                fn(lo, hi, out, own)
            return spread_sum(span, n, d, shape, scratch)

        monkeypatch.setattr(objective, "_spread_sum", recorded_sum)
        rng = SeededRng(62)
        w = 0.4 * rng.standard_normal(self.D)
        v = rng.standard_normal(self.D)
        batch = np.sort(rng.generator.choice(n, size=n))  # repeats rows
        cases = list(product((None, batch), (False, True)))
        set_cores(monkeypatch, 1)
        reference = [self._evaluate(model, ds, w, v, idx, memo) for idx, memo in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # a thread switch after almost every bytecode
        try:
            set_cores(monkeypatch, 2)
            starts = counted_thread_starts(monkeypatch)
            for users in (scratch_users, hvp_users):
                users.clear()
            for (idx, memo), ref in zip(cases, reference):
                got = self._evaluate(model, ds, w, v, idx, memo)
                assert got[0] == ref[0], memo
                for part, want in zip(got[1:], ref[1:]):
                    assert np.array_equal(part, want), memo
            # the passes spread from SPREAD_MIN_SPANS spans on
            assert (len(starts) > 0) == (spans >= objective.SPREAD_MIN_SPANS)
            # each thread's link writes and HVP products go to scratch of its own
            for users in (scratch_users, hvp_users):
                assert all(len(threads) == 1 for _, threads in users.values())
                threads = set().union(*(threads for _, threads in users.values()))
                assert threading.get_ident() in threads
                assert (len(threads) > 1) == (len(starts) > 0)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_span_error_surfaces_and_no_thread_outlives_the_call(self, cores, monkeypatch):
        class SpanFailed(RuntimeError):
            pass

        monkeypatch.setattr(objective, "span_rows", lambda d: 512)
        set_cores(monkeypatch, cores)
        calls = []
        lock = threading.Lock()

        def value_and_deriv(t, value, deriv):
            with lock:
                calls.append(None)
                third = len(calls) == 3
            if third:
                raise SpanFailed("third span")
            np.multiply(t, t, out=value)
            deriv[...] = t

        model = objective.LossModel(
            0.0, B=1.0, B_g=1.0, B_H=1.0, G=1.0, M=1.0, f_lower=0.0, weight_box=10.0,
            link=objective.MarginLink(value_and_deriv, second=np.ones_like),
            regularizer="none")
        ds = random_dataset(self.N, self.D, 63)
        threads = threading.active_count()
        with pytest.raises(SpanFailed, match="third span"):
            erm_gradient(model, ds, np.full(self.D, 0.1))
        assert threading.active_count() == threads
        assert len(calls) >= 3

    def test_hessian_memory_does_not_grow_with_n(self, monkeypatch):
        # a new thread's own state, about 20 KB here, comes and goes with the
        # scheduling, so a span is made much larger than that
        rows, d = 2048, 8
        monkeypatch.setattr(objective, "span_rows", lambda d: rows)
        set_cores(monkeypatch, 2)
        model = builtin_nonconvex_logistic(1e-3, 1.0, d)
        w = np.full(d, 0.05)
        peaks = []
        for n in (9 * rows + 5, 36 * rows + 20):
            ds = random_dataset(n, d, 64)
            memo = MarginMemo(model, ds)
            erm_hessian(model, ds, w, memo=memo)  # the margins and curvature are kept
            tracemalloc.start()
            try:
                erm_hessian(model, ds, w, memo=memo)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < rows * d * 8

    def test_pass_memory_does_not_grow_with_n(self, monkeypatch):
        # the memo's n-vectors are made by the first two misses; a later miss
        # recycles them, so what it makes is its threads' span scratch
        rows, d = 2048, 8
        monkeypatch.setattr(objective, "span_rows", lambda d: rows)
        set_cores(monkeypatch, 2)
        model = builtin_nonconvex_logistic(1e-3, 1.0, d)
        peaks = []
        for n in (9 * rows + 5, 36 * rows + 20):
            ds = random_dataset(n, d, 68)
            memo = MarginMemo(model, ds)
            for w in (0.01, 0.02):
                erm_gradient(model, ds, np.full(d, w), memo=memo)
            tracemalloc.start()
            try:
                erm_gradient(model, ds, np.full(d, 0.03), memo=memo)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < rows * 8
        # two threads' link scratch of one span each, and a thread's own state
        assert max(peaks) < 4 * rows * 8

    def test_threads_and_memory_do_not_grow_with_cores(self, monkeypatch):
        # each thread holds a scaled Hessian span of its own, so a thread per
        # core would grow the peak by one span per core
        rows, d = 2048, 8
        monkeypatch.setattr(objective, "span_rows", lambda d: rows)
        model = builtin_nonconvex_logistic(1e-3, 1.0, d)
        w = np.full(d, 0.05)
        ds = random_dataset(20 * rows + 5, d, 67)
        memo = MarginMemo(model, ds)
        erm_hessian(model, ds, w, memo=memo)  # the margins and curvature are kept
        peaks = []
        for cores in (2, 4, 8):
            set_cores(monkeypatch, cores)
            starts = counted_thread_starts(monkeypatch)
            tracemalloc.start()
            try:
                erm_hessian(model, ds, w, memo=memo)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(starts) == 1, cores
        assert max(peaks) - min(peaks) < rows * d * 8

    @pytest.mark.parametrize("d", [6, 600])
    @pytest.mark.parametrize("spans", [objective.SPREAD_MIN_SPANS - 1,
                                       objective.SPREAD_MIN_SPANS])
    def test_every_pass_of_enough_spans_starts_one_thread(self, d, spans, monkeypatch):
        # at any width, the fused pass, the HVP and the Hessian each start one
        # thread from SPREAD_MIN_SPANS spans on, and the curvature sweep none
        set_cores(monkeypatch, 2)
        ds = random_dataset(spans * objective.span_rows(d), d, 65)
        model = builtin_nonconvex_logistic(1e-3, 1.0, d)
        w, v = np.full(d, 0.01), np.ones(d)
        each = int(spans >= objective.SPREAD_MIN_SPANS)
        starts = counted_thread_starts(monkeypatch)
        erm_value(model, ds, w)
        assert len(starts) == each
        erm_gradient(model, ds, w)
        assert len(starts) == 2 * each
        erm_hvp(model, ds, w, v)  # a margin pass and the product; the curvature none
        assert len(starts) == 4 * each
        memo = MarginMemo(model, ds)
        erm_gradient(model, ds, w, memo=memo)
        assert len(starts) == 5 * each
        memo.curvature(w, None)
        assert len(starts) == 5 * each
        erm_hvp(model, ds, w, v, memo=memo)
        assert len(starts) == 6 * each
        if d <= objective.DENSE_HESSIAN_CAP:
            erm_hessian(model, ds, w, memo=memo)
            assert len(starts) == 7 * each


class TestDeclaredBounds:
    """Random maximization: declared B, B_g, B_H, G, M dominate sampled values."""

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_pointwise_bounds(self, name, make):
        d = 4
        model = make(d)
        rng = SeededRng(13)
        for _ in range(200):
            x = rng.standard_normal(d)
            x /= max(np.linalg.norm(x), 1e-12)
            y = 1.0 if rng.uniform() < 0.5 else -1.0
            ds1 = Dataset(x[None, :], np.array([y]), 1.0)
            w = model.weight_box * (2.0 * rng.uniform(d) - 1.0)
            val = erm_value(model, ds1, w)
            assert 0.0 <= val <= model.B * (1 + 1e-12)
            assert np.linalg.norm(erm_gradient(model, ds1, w)) <= model.B_g * (1 + 1e-12)
            assert np.linalg.norm(erm_hessian(model, ds1, w), 2) <= model.B_H * (1 + 1e-12)

    @pytest.mark.parametrize("name,make", ALL_MODELS)
    def test_smoothness_constants(self, name, make):
        d = 3
        model = make(d)
        rng = SeededRng(14)
        for _ in range(200):
            x = rng.standard_normal(d)
            x /= max(np.linalg.norm(x), 1e-12)
            ds1 = Dataset(x[None, :], np.array([1.0]), 1.0)
            w1 = model.weight_box * (2.0 * rng.uniform(d) - 1.0)
            w2 = model.weight_box * (2.0 * rng.uniform(d) - 1.0)
            dw = np.linalg.norm(w1 - w2)
            g_gap = np.linalg.norm(erm_gradient(model, ds1, w1) - erm_gradient(model, ds1, w2))
            assert g_gap <= model.G * dw * (1 + 1e-9) + 1e-12
            h_gap = np.linalg.norm(erm_hessian(model, ds1, w1) - erm_hessian(model, ds1, w2), 2)
            assert h_gap <= model.M * dw * (1 + 1e-9) + 1e-12

    def test_nonconvex_logistic_lambda_zero_bounds(self):
        model = builtin_nonconvex_logistic(0.0, 1.0, 6)
        assert model.B_g == pytest.approx(1.0)
        assert model.G == pytest.approx(0.25)
        assert model.M == pytest.approx(1.0 / (6.0 * math.sqrt(3.0)))

    def test_nonconvex_regularizer_value_bound(self):
        # lam * r(w) <= lam * d since each term is below 1
        d, lam = 5, 0.2
        model = builtin_nonconvex_logistic(lam, 1.0, d)
        w = np.full(d, model.weight_box)
        x = np.zeros((1, d))
        ds1 = Dataset(x, np.array([1.0]), 1.0)
        reg_val = erm_value(model, ds1, w) - math.log(2.0)
        assert reg_val <= lam * d


class TestCustomModel:
    def test_caller_supplied_link_and_bounds(self):
        from dpopt.objective import LossModel, MarginLink

        def value_and_deriv(t, value, deriv):
            np.multiply(t, t, out=value)
            np.multiply(t, 2.0, out=deriv)

        link = MarginLink(value_and_deriv, second=lambda t: np.full_like(t, 2.0))
        model = LossModel(0.0, B=4.0, B_g=4.0, B_H=2.0, G=2.0, M=0.0, f_lower=0.0,
                          weight_box=2.0, link=link, regularizer="none")
        ds = random_dataset(10, 3, 20)
        w = np.array([0.5, -0.5, 0.25])
        t = ds.labels * (ds.features @ w)
        assert erm_value(model, ds, w) == pytest.approx(float(np.mean(t * t)))
        assert np.allclose(erm_gradient(model, ds, w), fd_gradient(model, ds, w), atol=1e-6)


class TestReplaceOneSensitivity:
    def test_hundred_random_pairs(self):
        d, n = 3, 12
        model = builtin_nonconvex_logistic(1e-3, 1.0, d, weight_box=3.0)
        sens = sensitivities(model, n, d)
        rng = SeededRng(15)
        for _ in range(100):
            ds = random_dataset(n, d, int(rng.uniform() * 1e9))
            X2 = ds.features.copy()
            row = int(rng.uniform() * n)
            new = rng.standard_normal(d)
            X2[row] = new / max(np.linalg.norm(new), 1e-12)
            y2 = ds.labels.copy()
            y2[row] = -y2[row]
            ds2 = Dataset(X2, y2, 1.0)
            w = 3.0 * (2.0 * rng.uniform(d) - 1.0)
            assert abs(erm_value(model, ds, w) - erm_value(model, ds2, w)) <= sens.delta_f
            assert (np.linalg.norm(erm_gradient(model, ds, w) - erm_gradient(model, ds2, w))
                    <= sens.delta_g)
            h_gap = np.linalg.norm(erm_hessian(model, ds, w) - erm_hessian(model, ds2, w), "fro")
            assert h_gap <= sens.delta_h


class TestSensitivities:
    def test_closed_form(self):
        model = builtin_quartic_saddle(1.0, 4)
        object.__setattr__(model, "B", 1.0)
        object.__setattr__(model, "B_g", 2.0)
        object.__setattr__(model, "B_H", 3.0)
        s = sensitivities(model, 100, 4)
        assert (s.delta_f, s.delta_g, s.delta_h) == (0.01, 0.04, pytest.approx(0.12))

    def test_vanishes_with_m(self):
        model = builtin_quartic_saddle(1.0, 4)
        s = sensitivities(model, 10 ** 9, 4)
        assert max(s.delta_f, s.delta_g, s.delta_h) < 1e-5

    def test_minibatch_scaling(self):
        model = builtin_quartic_saddle(1.0, 4)
        full = sensitivities(model, 1000, 4)
        batch = sensitivities(model, 100, 4)
        assert batch.delta_g == pytest.approx(10.0 * full.delta_g)


class TestBatching:
    def test_full_selector_consumes_no_randomness(self):
        sel = BatchSelector(None)
        rng = SeededRng(1)
        assert sel.indices(rng, 10) is None
        assert sel.batch_size(10) == 10
        assert BatchSelector(10).indices(rng, 10) is None

    def test_batch_indices_sorted_unique(self):
        sel = BatchSelector(4)
        idx = sel.indices(SeededRng(2), 10)
        assert len(set(idx.tolist())) == 4
        assert np.all(np.diff(idx) > 0)

    def test_batch_size_bounds(self):
        with pytest.raises(ValueError):
            BatchSelector(11).batch_size(10)

    def test_minibatch_average_is_unbiased_exact(self):
        # n = 6, m = 3: averaging over all 20 batches equals the full gradient
        ds = random_dataset(6, 3, 16)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 3)
        w = np.array([0.2, -0.4, 0.1])
        full_g = erm_gradient(model, ds, w)
        batches = list(combinations(range(6), 3))
        avg_g = np.mean([erm_gradient(model, ds, w, list(b)) for b in batches], axis=0)
        assert np.max(np.abs(avg_g - full_g)) <= 1e-14
        full_v = erm_value(model, ds, w)
        avg_v = np.mean([erm_value(model, ds, w, list(b)) for b in batches])
        assert abs(avg_v - full_v) <= 1e-14


class TestMinBatchSize:
    CONSTANTS = AlgorithmConstants(eps_g=0.1, eps_h=0.3, c=0.1, c1=0.1, c2=0.1)

    def _model(self, B_g=1.0, B_H=1.0, M=1.0):
        model = builtin_quartic_saddle(1.0, 4)
        object.__setattr__(model, "B_g", B_g)
        object.__setattr__(model, "B_H", B_H)
        object.__setattr__(model, "M", M)
        return model

    def test_hand_evaluated(self):
        model = self._model()
        c = AlgorithmConstants(eps_g=0.1, eps_h=0.3, c=0.1, c1=0.1, c2=0.1)
        T, eta, d = 100, 0.1, 10
        log_term = math.log(2 * d * T / eta)
        grad = 64.0 * (log_term + 0.25) * max(100.0 / 0.01, (1.0 / 0.01) / 0.0081)
        hess = 32.0 * log_term * 100.0 / 0.09
        assert min_batch_size(model, c, T, eta, d) == math.ceil(max(grad, hess))

    def test_eps_h_halving_inflates_hessian_branch(self):
        model = self._model(B_g=1e-6, B_H=1.0)  # make the Hessian branch binding
        c1 = AlgorithmConstants(eps_g=0.1, eps_h=0.3, c=0.1, c1=0.1, c2=0.1)
        c2 = AlgorithmConstants(eps_g=0.1, eps_h=0.15, c=0.1, c1=0.1, c2=0.1)
        a = min_batch_size(model, c1, 100, 0.1, 10)
        b = min_batch_size(model, c2, 100, 0.1, 10)
        assert b / a == pytest.approx(4.0, rel=1e-4)  # ceil() jitters the exact 4x

    def test_monotone_in_eta(self):
        model = self._model()
        sizes = [min_batch_size(model, self.CONSTANTS, 100, eta, 10)
                 for eta in (0.01, 0.1, 0.5, 0.9)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_grid_keeps_both_callers_values(self):
        # the two subsampling branches as min_batch_size and the mini-batch
        # branch of min_samples_advisor each spelled them out before they
        # shared one helper; both must give the same sizes on the grid
        for B_g, B_H, M, eps_h, T, eta, d, s in product(
                (0.5, 3.0), (0.25, 2.0), (0.1, 5.0), (0.05, 0.3), (1, 40, 1000),
                (0.01, 0.1, 0.9), (1, 54, 600), (0.01, 0.3)):
            model = self._model(B_g, B_H, M)
            c = AlgorithmConstants(eps_g=0.1, eps_h=eps_h, c=0.1, c1=0.1, c2=0.1, eta=eta)
            log_term = math.log(2.0 * d * T / eta)
            grad = (64.0 * B_g ** 2 * (log_term + 0.25)
                    * max(c.c1 ** -2 * c.eps_g ** -2, (M ** 2 / c.c2 ** 2) * c.eps_h ** -4))
            hess = 32.0 * B_H ** 2 * log_term * c.c ** -2 * c.eps_h ** -2
            assert min_batch_size(model, c, T, eta, d) == int(math.ceil(max(grad, hess)))
            plan = NoisePlan(sigma_f=1.0, sigma_g=2.0, sigma_h=3.0, subsample_fraction=s)
            log_tz = math.log(T / c.zeta)
            noise_floor = min(c.c1 * c.eps_g, c.c2 / M * c.eps_h ** 2)
            grad_short = math.sqrt(2.0 * d) * B_g * plan.sigma_g * log_tz / noise_floor
            hess_short = (DEFAULT_WIGNER_TAIL_CONSTANT * math.sqrt(d) * B_H * plan.sigma_h * log_tz
                          / (c.c * c.eps_h))
            expected = int(math.ceil(max(2.0 * grad_short, 2.0 * hess_short,
                                         grad / s, hess / s)))
            assert min_samples_advisor(model, c, plan, "minibatch", d, T) == expected
