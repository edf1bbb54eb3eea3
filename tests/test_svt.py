"""Sparse-vector line-search tests: probe schedule, accuracy, fallback."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpopt.mechanisms import SeededRng
from dpopt.optimizer import dp_line_search, svt_slack
from noise_doubles import always_failing_line_search


class TestZeroNoiseBacktracking:
    """delta_q = 0 draws no noise: the sweep is exact backtracking."""

    def test_returns_first_nonnegative_probe(self):
        # q >= 0 exactly at probes <= 0.25
        q = lambda g: 0.25 - g
        res = dp_line_search(q, 0.0, 1.0, 0.01, 0.5, 1.0, SeededRng(0))
        assert res.gamma == pytest.approx(0.25)
        assert res.probes == 3  # probed 1.0, 0.5, 0.25
        assert not res.exhausted

    def test_threshold_at_gamma_bar(self):
        # q(gamma) = gamma_bar - gamma: nonnegative only once gamma <= gamma_bar
        gamma_bar = 0.125
        q = lambda g: gamma_bar - g
        res = dp_line_search(q, 0.0, 1.0, gamma_bar, 0.5, 1.0, SeededRng(0))
        assert res.gamma <= gamma_bar * (1 + 1e-12)

    def test_immediate_accept(self):
        res = dp_line_search(lambda g: 1.0, 0.0, 2.0, 0.5, 0.5, 1.0, SeededRng(0))
        assert res.gamma == 2.0
        assert res.probes == 1


class TestProbeSchedule:
    def test_i_max_count(self):
        # gamma_bar / gamma_init = 2^-19 with beta = 1/2: exactly 20 probes
        res = dp_line_search(lambda g: -1.0, 0.0, 1.0, 2.0 ** -19, 0.5, 1.0, SeededRng(1))
        assert res.exhausted
        assert res.probes == 20
        assert res.gamma == 2.0 ** -19

    def test_always_fail_returns_fallback(self):
        # the forced-failure double behind the fallback-path run tests
        rng = SeededRng(2)
        state = rng.generator.bit_generator.state
        res = always_failing_line_search(lambda g: 1e9, 1.0, 1.0, 0.25, 0.5, 1.0, rng)
        assert res.exhausted and res.gamma == 0.25
        assert res.probes == 3
        assert rng.generator.bit_generator.state == state  # no noise drawn

    @given(st.integers(min_value=0, max_value=2 ** 31), st.floats(0.2, 0.9),
           st.floats(0.01, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_output_in_declared_probe_set(self, seed, beta, ratio):
        gamma_init = 1.0
        gamma_bar = ratio * gamma_init
        rng = SeededRng(seed)
        q = lambda g: math.sin(57.0 * g)  # arbitrary bounded query
        res = dp_line_search(q, 0.5, gamma_init, gamma_bar, beta, 2.0, rng)
        probes = [gamma_init * beta ** i for i in range(res.probes + 1)]
        assert any(math.isclose(res.gamma, p, rel_tol=1e-12) for p in probes) \
            or res.gamma == gamma_bar


class TestAccuracy:
    def test_accepted_query_above_slack(self):
        # 1e4 trials at i_max = 20, lam = 2: accepted q(gamma) >= -t Delta_q
        # in >= 95% of trials for t = 8 lam (log i_max + log(1/0.05))
        lam, delta_q = 2.0, 0.01
        t = svt_slack(lam, 20, 1.0, 0.05)
        rng = SeededRng(20240817)
        gamma_init, gamma_bar, beta = 1.0, 2.0 ** -19, 0.5
        good = 0
        trials = 10 ** 4
        for _ in range(trials):
            theta = gamma_bar + float(rng.uniform()) * 0.9
            q = lambda g: theta - g  # q(gamma_bar) >= 0 by construction
            res = dp_line_search(q, delta_q, gamma_init, gamma_bar, beta, lam, rng)
            if q(res.gamma) >= -t * delta_q:
                good += 1
        assert good / trials >= 0.95

    def test_far_below_threshold_exhausts(self):
        # q stuck far below the threshold: fallback in >= 99% of trials
        lam, delta_q = 2.0, 0.01
        t = svt_slack(lam, 20, 1.0, 0.05)
        rng = SeededRng(7)
        fallback = 0
        trials = 10 ** 4
        for _ in range(trials):
            res = dp_line_search(lambda g: -10.0 * t * delta_q, delta_q, 1.0,
                                 2.0 ** -19, 0.5, lam, rng)
            if res.exhausted:
                fallback += 1
        assert fallback / trials >= 0.99


class TestValidation:
    def test_beta_range(self):
        with pytest.raises(ValueError):
            dp_line_search(lambda g: 0.0, 1.0, 1.0, 0.5, 1.0, 1.0, SeededRng(0))

    def test_gamma_ordering(self):
        with pytest.raises(ValueError):
            dp_line_search(lambda g: 0.0, 1.0, 0.5, 1.0, 0.5, 1.0, SeededRng(0))

    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            dp_line_search(lambda g: 0.0, 1.0, 1.0, 0.5, 0.5, 0.0, SeededRng(0))

    def test_sensitivity_nonnegative(self):
        with pytest.raises(ValueError):
            dp_line_search(lambda g: 0.0, -1.0, 1.0, 0.5, 0.5, 1.0, SeededRng(0))
