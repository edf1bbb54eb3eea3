"""Sparse-vector line-search tests: probe schedule, accuracy, fallback."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dpopt.mechanisms import SeededRng
from dpopt.optimizer import dp_line_search, svt, svt_slack
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


def _laplace_cdf(x, b):
    return 0.5 * math.exp(x / b) if x < 0 else 1.0 - 0.5 * math.exp(-x / b)


def _laplace_sf(x, b):
    return 1.0 - 0.5 * math.exp(x / b) if x < 0 else 0.5 * math.exp(-x / b)


class TestPrivacy:
    """The sweep's (1/lam)-DP claim, on the exact distribution of its
    outcome: the probe it accepts, or exhaustion.  Given the threshold t the
    probes are independent, so each outcome's probability is a 1-D integral
    over the Laplace threshold of a product of Laplace tails."""

    @staticmethod
    def drawn(lam, delta_q, gamma_bar, beta):
        """The Laplace scales of the threshold and of each probe, as the
        sweep draws them, and the probed step sizes; every probe rejects."""
        scales, gammas = [], []

        def recording(scale, rng):
            scales.append(scale)
            return 0.0

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(svt, "laplace", recording)
            res = dp_line_search(lambda g: gammas.append(g) or -1.0, delta_q, 1.0,
                                 gamma_bar, beta, lam, SeededRng(0))
        assert res.exhausted and len(scales) == len(gammas) + 1
        return scales[0], scales[1:], gammas

    @staticmethod
    def outcome_probabilities(q, b_threshold, b_probes):
        """P(the sweep accepts probe i) for each i, then P(it exhausts), for
        query values q at the probes."""
        def density(t, i):
            p = math.exp(-abs(t) / b_threshold) / (2.0 * b_threshold)
            for q_j, b in zip(q[:i], b_probes):
                p *= _laplace_cdf(t - q_j, b)  # probe j rejects: q_j + nu_j < t
            return p * _laplace_sf(t - q[i], b_probes[i]) if i < len(q) else p

        kinks = sorted({0.0, *q})
        pieces = [(-math.inf, kinks[0]), *zip(kinks, kinks[1:]), (kinks[-1], math.inf)]
        return [math.fsum(quad(density, lo, hi, args=(i,), epsabs=0.0, epsrel=1e-12,
                               limit=200)[0] for lo, hi in pieces)
                for i in range(len(q) + 1)]

    @pytest.mark.parametrize("lam, beta, i_max",
                             list(itertools.product((0.5, 2.0), (0.5, 0.8), (1, 3))))
    def test_every_outcome_within_one_over_lambda(self, lam, beta, i_max):
        delta_q = 0.3
        b_threshold, b_probes, gammas = self.drawn(lam, delta_q, beta ** (i_max - 0.5), beta)
        assert len(gammas) == i_max
        # queries that fall along the probes: an early probe rejects only
        # under a high threshold, the case that bounds the leakage
        q = [6.0 * lam * delta_q * (g - 0.5) for g in gammas]
        p = self.outcome_probabilities(q, b_threshold, b_probes)
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-10)
        for signs in itertools.product((-1.0, 1.0), repeat=i_max):
            near = [q_i + sign * delta_q for q_i, sign in zip(q, signs)]
            p_near = self.outcome_probabilities(near, b_threshold, b_probes)
            for a, b in zip(p, p_near):
                assert abs(math.log(a / b)) <= 1.0 / lam


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
