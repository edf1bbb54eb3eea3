"""Accountant unit tests: release logs and their notions, conversions,
subsampling, plans."""

import dataclasses
import decimal
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpopt import accountant
from dpopt.accountant import (ApproxDp, DEFAULT_ORDERS, InfeasiblePlanError,
                              NoisePlan, RdpCurve, Release, ZCdp, account_run,
                              approx_dp_to_zcdp, combined_sigma,
                              gaussian_sigma_dp, gaussian_sigma_zcdp,
                              rdp_to_approx_dp, run_log, subsampled_gaussian_rdp,
                              subsampled_gaussian_rdp_curve, tally,
                              tune_noise_plan, zcdp_to_approx_dp)
from dpopt.optimizer import Budget


def gaussian_rho(sigma):
    """rho of one whole-dataset Gaussian release at multiplier sigma."""
    return account_run([Release("gaussian", (sigma,))], ZCdp).rho


def gaussian_curve(sigma):
    """RDP curve of one whole-dataset Gaussian release: alpha / (2 sigma^2)."""
    return account_run([Release("gaussian", (sigma,))], RdpCurve)


def dp_log(budget, s, t_budget, k):
    """The (eps, delta) log of a subsampled plan after k of its T steps."""
    return [Release("dp", budget.f0_dp),
            Release("dp", budget.step(t_budget, s), s, k)]


class TestGaussianMechanism:
    def test_unit_sigma(self):
        assert gaussian_rho(1.0) == 0.5

    def test_half_closed_form(self):
        assert gaussian_rho(2.0) == 0.125

    def test_vanishing_leakage(self):
        assert gaussian_rho(1e6) == pytest.approx(5e-13, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gaussian_rho(0.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_identity_rho_times_two_sigma_sq(self, sigma):
        rho = gaussian_rho(sigma)
        assert rho * 2.0 * sigma * sigma == pytest.approx(1.0, rel=1e-12)

    def test_analytic_curve_on_the_whole_dataset(self):
        orders = np.asarray(DEFAULT_ORDERS, dtype=float)
        assert np.array_equal(gaussian_curve(5.0).epsilons, orders / 50.0)


class TestSvt:
    @staticmethod
    def svt_rho(lam):
        return account_run([Release("svt", (lam,))], ZCdp).rho

    def test_unit_lambda(self):
        assert self.svt_rho(1.0) == 0.5

    def test_lambda_ten(self):
        assert self.svt_rho(10.0) == pytest.approx(0.005, rel=1e-12)

    def test_matches_pure_dp_conversion(self):
        # a sweep is (1/lam)-DP, and epsilon-DP is (epsilon^2 / 2)-zCDP
        assert self.svt_rho(3.0) == pytest.approx(0.5 * (1.0 / 3.0) ** 2, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            self.svt_rho(-1.0)


class TestReleaseLog:
    def test_tally_merges_equal_releases_in_mechanism_order(self):
        f0, g = Release("gaussian", (3.0,)), Release("gaussian", (5.0,), 0.25)
        w, sweep = Release("wigner", (6.0, 5.0), 0.25), Release("svt", (7.0,))
        assert tally([f0, g, sweep, w, g, sweep]) == [
            f0, Release("gaussian", (5.0,), 0.25, 2), w, Release("svt", (7.0,), count=2)]
        assert tally([f0, Release("svt", (7.0,), count=0)]) == [f0]

    def test_a_log_and_its_count_form_convert_to_the_same_bits(self):
        plan = NoisePlan(3.0, 5.0, 6.0, lambda_svt=7.0, subsample_fraction=0.25)
        f0, gradient, wigner, sweep = run_log(plan, 0, 1, 1)
        log = [f0] + [gradient, sweep] * 5 + [gradient, sweep, wigner] * 2
        assert account_run(log, ZCdp) == account_run(run_log(plan, 5, 2, 7), ZCdp)
        assert np.array_equal(account_run(log[:1] + [gradient] * 7 + [wigner] * 2,
                                          RdpCurve).epsilons,
                              account_run(run_log(plan, 5, 2), RdpCurve).epsilons)

    def test_each_notion_refuses_releases_it_cannot_cost(self):
        with pytest.raises(ValueError, match="no zCDP cost"):
            account_run([Release("dp", (0.1, 1e-6))], ZCdp)
        with pytest.raises(ValueError, match="no RDP cost"):
            account_run([Release("svt", (3.0,))], RdpCurve)
        with pytest.raises(ValueError, match=r"no \(eps, delta\) cost"):
            account_run([Release("gaussian", (3.0,))], ApproxDp)

    @pytest.mark.parametrize("bad", [
        Release("laplace", (1.0,)), Release("gaussian", (math.inf,)),
        Release("svt", (-1.0,)), Release("gaussian", (1.0,), count=-1)])
    def test_invalid_releases_refused(self, bad):
        for notion in (ZCdp, RdpCurve, ApproxDp):
            with pytest.raises(ValueError, match="not a valid release"):
                account_run([bad], notion)

    @pytest.mark.parametrize("gradients", [0, 1])
    def test_more_wigner_draws_than_gradients_on_their_batch_refused(self, gradients):
        # each Wigner draw is charged with a gradient at its sigma_g and
        # fraction: more draws than such gradients would charge a negative count
        log = [Release("gaussian", (5.0,), 0.25, gradients),
               Release("wigner", (6.0, 5.0), 0.25, 2)]
        with pytest.raises(ValueError, match="more Wigner draws than gradients"):
            account_run(log, RdpCurve)
        # a gradient at another fraction or multiplier does not pair with it
        for other in (Release("gaussian", (5.0,), 0.5, 2), Release("gaussian", (4.0,), 0.25, 2)):
            with pytest.raises(ValueError, match="more Wigner draws than gradients"):
                account_run(log + [other], RdpCurve)


class TestAdditivity:
    def test_joined_logs_of_two_plans_convert_to_the_sum_of_their_ledgers(self):
        # two runs under distinct plans share no release, so the conversion
        # of their joined logs adds up in each notion: what a two-phase
        # run's joined releases cost
        a = run_log(NoisePlan(3.0, 5.0, 6.0, subsample_fraction=0.25), 4, 2)
        b = run_log(NoisePlan(4.0, 9.0, 8.0, subsample_fraction=0.25), 7, 3)
        assert account_run(a + b, ZCdp).rho == pytest.approx(
            account_run(a, ZCdp).rho + account_run(b, ZCdp).rho, rel=1e-15, abs=0.0)
        np.testing.assert_allclose(
            account_run(a + b, RdpCurve).epsilons,
            account_run(a, RdpCurve).epsilons + account_run(b, RdpCurve).epsilons,
            rtol=1e-15, atol=0.0)
        a = dp_log(Budget(ApproxDp(0.8, 1e-5), composition="advanced"), 0.25, 10, 7)
        b = dp_log(Budget(ApproxDp(0.4, 5e-6), composition="advanced"), 0.25, 30, 12)
        joined, one, other = (account_run(log, ApproxDp) for log in (a + b, a, b))
        assert joined.epsilon == pytest.approx(one.epsilon + other.epsilon, rel=1e-15, abs=0.0)
        assert joined.delta == pytest.approx(one.delta + other.delta, rel=1e-15, abs=0.0)


class TestSigmaSources:
    def test_zcdp_sigma_inverts_the_gaussian_cost(self):
        assert gaussian_rho(gaussian_sigma_zcdp(0.2)) == pytest.approx(0.2)

    def test_plans_take_sigma_f_from_the_one_formula(self):
        assert Budget(ZCdp(0.5), 0.1).plan(10, 1.0, 0).sigma_f == gaussian_sigma_zcdp(0.1 * 0.5)
        # c_f = 0.1 of rho = 0.5 is rho_f = 0.05 exactly
        assert Budget(ZCdp(0.5), 0.1).plan(10, 1.0, 1).sigma_f == gaussian_sigma_zcdp(0.05)
        # half of (0.16, 2e-6) is (0.08, 1e-6) exactly
        plan = Budget(ApproxDp(0.16, 2e-6), 0.5, composition="advanced").plan(10, 0.25, 0)
        assert plan.sigma_f == gaussian_sigma_dp(0.08, 1e-6)
        assert gaussian_sigma_dp(0.5, 1e-5) == math.sqrt(2.0 * math.log(1.25e5)) / 0.5


class TestSpent:
    """Each ledger kind reports its own spent scalar: rho for zCDP, epsilon
    at the report's delta for an RDP curve, and its own epsilon otherwise."""

    def test_zcdp_reports_rho(self):
        assert ZCdp(0.3).spent(1e-5) == 0.3

    def test_rdp_curve_reports_its_converted_epsilon(self):
        curve = gaussian_curve(4.0)
        assert curve.spent(1e-6) == rdp_to_approx_dp(curve, 1e-6)[0].epsilon

    def test_approx_dp_reports_epsilon(self):
        assert ApproxDp(0.7, 1e-6).spent(1e-5) == 0.7


class TestConversions:
    def test_zcdp_to_dp_closed_form(self):
        out = zcdp_to_approx_dp(ZCdp(0.5), 1e-5)
        assert out.epsilon == pytest.approx(0.5 + math.sqrt(2.0 * math.log(1e5)), abs=1e-9)

    def test_zero_budget(self):
        assert zcdp_to_approx_dp(ZCdp(0.0), 1e-5).epsilon == 0.0

    def test_dp_to_zcdp_closed_form(self):
        log1d = math.log(1e5)
        expected = (math.sqrt(1.0 + log1d) - math.sqrt(log1d)) ** 2
        assert approx_dp_to_zcdp(ApproxDp(1.0, 1e-5)).rho == pytest.approx(expected, rel=1e-12)

    def test_dp_to_zcdp_vanishes_with_eps(self):
        assert approx_dp_to_zcdp(ApproxDp(1e-12, 1e-5)).rho < 1e-13

    def test_round_trip_exact(self):
        rho = approx_dp_to_zcdp(ApproxDp(1.0, 1e-6))
        assert zcdp_to_approx_dp(rho, 1e-6).epsilon == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(min_value=1e-3, max_value=20.0),
           st.floats(min_value=1e-9, max_value=0.1))
    def test_round_trip_never_loosens(self, eps, delta):
        rho = approx_dp_to_zcdp(ApproxDp(eps, delta))
        assert zcdp_to_approx_dp(rho, delta).epsilon <= eps + 1e-9

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            zcdp_to_approx_dp(ZCdp(0.5), 1.5)


class TestRdpToApproxDp:
    def test_matches_brute_force_scan(self):
        curve = gaussian_curve(5.0)
        out, alpha = rdp_to_approx_dp(curve, 1e-5)
        log1d = math.log(1e5)
        brute = min(a / 50.0 + log1d / (a - 1.0) for a in curve.orders)
        assert out.epsilon == pytest.approx(brute, abs=1e-9)
        assert alpha in curve.orders

    def test_monotone_in_delta(self):
        curve = gaussian_curve(3.0)
        eps = [rdp_to_approx_dp(curve, d)[0].epsilon for d in (1e-8, 1e-6, 1e-4, 1e-2)]
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    @given(st.floats(min_value=0.0, max_value=2.0))
    def test_monotone_in_curve(self, bump):
        base = gaussian_curve(4.0)
        larger = RdpCurve(base.epsilons + bump)
        assert (rdp_to_approx_dp(larger, 1e-5)[0].epsilon
                >= rdp_to_approx_dp(base, 1e-5)[0].epsilon - 1e-12)


class TestSubsampledGaussianRdp:
    def test_small_s_alpha2_matches_approximation(self):
        val = subsampled_gaussian_rdp(2, 10.0, 0.01)
        approx = 2.0 * 0.01 ** 2 * 2 / 100.0
        assert approx / 1.5 <= val <= approx * 1.5

    def test_nondecreasing_in_s(self):
        for alpha in (2, 8, 32):
            vals = [subsampled_gaussian_rdp(alpha, 10.0, s)
                    for s in (0.001, 0.01, 0.05, 0.2, 1.0)]
            assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_alpha(self):
        for s in (0.001, 0.01, 0.05):
            vals = [subsampled_gaussian_rdp(a, 10.0, s) for a in range(2, 33)]
            assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))

    def test_reads_the_curve(self):
        curve = subsampled_gaussian_rdp_curve(3.0, 0.05)
        assert [subsampled_gaussian_rdp(a, 3.0, 0.05) for a in DEFAULT_ORDERS] == list(
            curve.epsilons)

    @staticmethod
    def oracle_curve(sigma, s):
        """The binomial sum at every order, from the formula alone: exact
        binomial coefficients and 50-digit decimal arithmetic,
        eps(alpha) = log(1 + s^2 C(alpha,2) min{4 (e^{1/sigma^2} - 1), 2 e^{1/sigma^2}}
        + sum_{j=3}^{alpha} 2 s^j C(alpha,j) e^{(j-1) j / (2 sigma^2)}) / (alpha - 1)."""
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.Emin = 50, decimal.MAX_EMAX, decimal.MIN_EMIN
            s, inv = decimal.Decimal(s), 1 / decimal.Decimal(sigma) ** 2
            pair = s ** 2 * min(4 * (inv.exp() - 1), 2 * inv.exp())
            # 2 s^j e^{(j-1) j / (2 sigma^2)}, shared by every order
            tail = [2 * s ** j * ((j - 1) * j * inv / 2).exp()
                    for j in range(DEFAULT_ORDERS[-1] + 1)]
            return [float((1 + math.comb(a, 2) * pair + sum(
                math.comb(a, j) * tail[j] for j in range(3, a + 1))).ln() / (a - 1))
                for a in DEFAULT_ORDERS]

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.0, 5.0, 10.0, 100.0])
    def test_matches_a_decimal_oracle_at_every_order(self, sigma):
        for s in (0.001, 0.01, 0.05, 0.25, 1.0):
            got = subsampled_gaussian_rdp_curve(sigma, s).epsilons
            want = np.array(self.oracle_curve(sigma, s))
            assert np.all(np.abs(got - want) <= 1e-13 * want), (s, np.abs(got / want - 1.0))

    @pytest.mark.parametrize("sigma", [1e-160, 1e-170])
    def test_refuses_a_sigma_whose_exponents_overflow(self, sigma):
        with pytest.raises(ValueError, match="1/sigma\\^2 overflows"):
            subsampled_gaussian_rdp_curve(sigma, 0.01)

    def test_finite_down_to_the_smallest_sigma(self):
        with np.errstate(over="raise", invalid="raise"):
            for s in (1e-6, 0.01, 1.0):
                curve = subsampled_gaussian_rdp_curve(accountant.SIGMA_MIN, s)
                assert np.all(np.isfinite(curve.epsilons))

    def test_vanishes_with_large_sigma_at_alpha2(self):
        assert subsampled_gaussian_rdp(2, 1e6, 0.5) < 1e-11

    def test_full_fraction_dominates_unamplified_second_order(self):
        for sigma in (2.0, 10.0):
            assert subsampled_gaussian_rdp(2, sigma, 1.0) >= 1.0 / sigma ** 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            subsampled_gaussian_rdp(1, 10.0, 0.1)
        with pytest.raises(ValueError, match="DEFAULT_ORDERS"):
            subsampled_gaussian_rdp(65, 10.0, 0.1)  # an integer order off the grid
        with pytest.raises(ValueError):
            subsampled_gaussian_rdp(2, 10.0, 0.0)
        with pytest.raises(ValueError):
            subsampled_gaussian_rdp(2, -1.0, 0.1)


class TestPlans:
    def test_short_step_closed_form(self):
        plan = Budget(ZCdp(0.5), 0.1).plan(100, 1.0, 0)
        assert plan.sigma_f == pytest.approx(math.sqrt(10.0), rel=1e-12)
        assert plan.sigma_g == plan.sigma_h == pytest.approx(math.sqrt(100.0 / 0.45), rel=1e-12)
        assert plan.lambda_svt is None
        assert plan.subsample_fraction == 1.0

    def test_short_step_single_iteration(self):
        plan = Budget(ZCdp(1.0), 0.5).plan(1, 1.0, 0)
        assert plan.sigma_f == pytest.approx(1.0)
        assert plan.sigma_g == pytest.approx(math.sqrt(2.0))

    def test_short_step_account_round_trip(self):
        # worst case inside a T-iteration budget: every iteration draws the
        # Hessian, i.e. k_g = 0, k_h = T; any split with k_g + k_h <= T stays
        # within the target
        rho, T = 0.5, 100
        plan = Budget(ZCdp(rho), 0.1).plan(T, 1.0, 0)
        assert account_run(run_log(plan, 0, T), ZCdp).rho == pytest.approx(rho, rel=1e-12)
        for k_g, k_h in ((T, 0), (T - 10, 10), (0, T), (37, 41)):
            assert account_run(run_log(plan, k_g, k_h), ZCdp).rho <= rho + 1e-12

    def test_line_search_closed_form(self):
        plan = Budget(ZCdp(1.0), 0.25).plan(50, 1.0, 1)
        assert plan.sigma_g == plan.sigma_h == plan.lambda_svt == pytest.approx(10.0)

    def test_line_search_account_round_trip(self):
        plan = Budget(ZCdp(1.0), 0.25).plan(50, 1.0, 1)
        assert account_run(run_log(plan, 0, 50, 50), ZCdp).rho == pytest.approx(1.0, rel=1e-12)
        for k_g, k_h in ((50, 0), (25, 25), (10, 3)):
            assert account_run(run_log(plan, k_g, k_h, k_g + k_h), ZCdp).rho <= 1.0 + 1e-12

    def test_subsampled_dp_closed_form(self):
        budget = Budget(ApproxDp(1.0, 1e-5), 0.1, composition="advanced")
        eps_f, delta_f, s, T = 0.1, 1e-6, 0.01, 400
        eps0, delta0, rest = budget.step(T, s)
        assert eps0 == pytest.approx(
            0.9 / (8 * s * math.sqrt(2 * T * math.log(2 / (1e-5 - 1e-6)))), rel=1e-12)
        assert delta0 == pytest.approx((1e-5 - 1e-6) / (4 * s * T), rel=1e-12)
        assert rest == pytest.approx(1e-5 - 1e-6, rel=1e-12)
        plan = budget.plan(T, s, 0)
        assert plan.sigma_f == pytest.approx(math.sqrt(2 * math.log(1.25 / delta_f)) / eps_f)
        assert plan.sigma_g == pytest.approx(math.sqrt(2 * math.log(1.25 / delta0)) / eps0)

    def test_subsampled_dp_symmetric_split(self):
        plan = Budget(ApproxDp(0.8, 1e-5), 0.5, composition="advanced").plan(100, 0.01, 0)
        assert plan.sigma_f > 0 and plan.sigma_g > 0

    def test_subsampled_dp_warns_when_eps0_invalid(self):
        # s -> 0 at fixed T drives the per-iteration eps0 past 1, where the
        # calibration is not valid: no plan, rather than a warning
        with pytest.raises(InfeasiblePlanError, match="eps0"):
            Budget(ApproxDp(0.9, 1e-5), composition="advanced").plan(10, 1e-6, 0)

    def test_subsampled_dp_rejects_degenerate_split(self):
        # the initial loss would take more than the whole target
        with pytest.raises(ValueError, match="c_f"):
            Budget(ApproxDp(0.5, 1e-5), 1.2, composition="advanced")

    @pytest.mark.parametrize("epsilon", [1.0 / 0.9, 2.0])
    def test_subsampled_dp_infeasible_when_the_run_budget_reaches_one(self, epsilon):
        # eps - eps_f >= 1 is outside advanced composition, at any s and T
        budget = Budget(ApproxDp(epsilon, 1e-5), composition="advanced")
        with pytest.raises(InfeasiblePlanError, match="eps - eps_f"):
            budget.step(100, 0.5)
        with pytest.raises(InfeasiblePlanError, match="eps - eps_f"):
            budget.plan(100, 0.5, 0)

    def test_subsampled_dp_ledger_bounds_the_exact_composition_of_both_draws(self):
        # an iteration draws a gradient and a Wigner draw at (eps0, delta0)
        # each on one batch: (2 eps0, 2 delta0), amplified at fraction s to
        # (log(1 + s (e^{2 eps0} - 1)), 2 s delta0), then T of them composed by
        # the exact advanced-composition bound at delta'' = delta_rest / 2
        checked, worst = 0, 0.0
        for eps, delta, s, t in itertools.product(
                (0.1, 0.3, 0.6, 0.9, 1.1), (1e-8, 1e-5, 1e-3),
                (0.001, 0.01, 0.05, 0.25, 1.0), (1, 10, 100, 1000)):
            budget = Budget(ApproxDp(eps, delta), composition="advanced")
            try:
                eps0, delta0, rest = budget.step(t, s)
            except InfeasiblePlanError:
                continue
            pair = math.log1p(s * math.expm1(2.0 * eps0))
            exact = (math.sqrt(2.0 * t * math.log(2.0 / rest)) * pair
                     + t * pair * math.expm1(pair))
            ledger = account_run([Release("dp", (eps0, delta0, rest), s, t)], ApproxDp)
            assert exact <= ledger.epsilon, (eps, delta, s, t)
            assert t * 2.0 * s * delta0 + rest / 2.0 == pytest.approx(ledger.delta, rel=1e-15)
            checked, worst = checked + 1, max(worst, exact / ledger.epsilon)
        assert checked >= 100 and worst > 0.7  # the grid reaches where the bound is tight

    def test_subsampled_dp_log_hits_target_at_full_budget(self):
        budget = Budget(ApproxDp(0.9, 1e-5), 0.1, composition="advanced")
        s, T = 0.01, 123
        spent = account_run(dp_log(budget, s, T, T), ApproxDp)
        assert spent.epsilon == pytest.approx(budget.target.epsilon, rel=1e-12)
        assert spent.delta <= budget.target.delta * (1 + 1e-12)
        partial = account_run(dp_log(budget, s, T, T // 2), ApproxDp)
        assert partial.epsilon < spent.epsilon
        zero = account_run(dp_log(budget, s, T, 0), ApproxDp)
        assert (zero.epsilon, zero.delta) == budget.f0_dp


class TestAccountRun:
    def test_short_worked_example(self):
        plan = NoisePlan(2.0, 10.0, 10.0)
        out = account_run(run_log(plan, 10, 2), ZCdp)
        assert out.rho == pytest.approx(0.5 * (0.25 + 12 / 100 + 2 / 100), rel=1e-12)
        assert out.rho == pytest.approx(0.195, rel=1e-12)

    def test_zero_steps_only_f_charge(self):
        plan = NoisePlan(2.0, 10.0, 10.0)
        assert account_run(run_log(plan, 0, 0), ZCdp).rho == pytest.approx(1 / 8)

    def test_line_search_adds_svt_term(self):
        plan = NoisePlan(2.0, 10.0, 10.0, lambda_svt=5.0)
        short = account_run(run_log(plan, 10, 2), ZCdp).rho
        ls = account_run(run_log(plan, 10, 2, 12), ZCdp).rho
        assert ls == pytest.approx(short + 12 / (2 * 25.0), rel=1e-12)

    def test_line_search_requires_lambda(self):
        with pytest.raises(ValueError):
            run_log(NoisePlan(2.0, 10.0, 10.0), 1, 0, 1)

    def test_minibatch_curve_matches_manual_composition(self):
        plan = NoisePlan(5.0, 8.0, 8.0, subsample_fraction=0.01)
        out = account_run(run_log(plan, 7, 3), RdpCurve)
        orders = np.asarray(DEFAULT_ORDERS, dtype=float)
        manual = (orders / (2 * 25.0)
                  + 7 * subsampled_gaussian_rdp_curve(8.0, 0.01).epsilons
                  + 3 * subsampled_gaussian_rdp_curve(combined_sigma(8.0, 8.0), 0.01).epsilons)
        assert np.max(np.abs(out.epsilons - manual)) <= 1e-12

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            run_log(NoisePlan(1.0, 1.0, 1.0), -1, 0)
        with pytest.raises(ValueError):
            run_log(NoisePlan(1.0, 1.0, 1.0), -1, 1)


# the initial-loss multiplier Budget(ApproxDp(1, 1e-5)) would fix is about 17
SIGMA_F = 20.0


class TestTuneNoisePlan:
    def test_returned_plan_is_feasible(self):
        target = ApproxDp(1.0, 1e-5)
        plan = tune_noise_plan(target, 0.01, 100, SIGMA_F)
        curve = account_run(run_log(plan, 0, 100), RdpCurve)
        assert rdp_to_approx_dp(curve, 1e-5)[0].epsilon <= 1.0

    @pytest.mark.parametrize("eps,s,t_budget", [(1.0, 0.01, 100), (1.0, 0.05, 10),
                                                 (8.0, 0.25, 50), (2.0, 0.05, 100)])
    def test_tuned_plan_meets_the_target_on_every_split_of_its_iterations(
            self, eps, s, t_budget, monkeypatch):
        # a T-iteration run draws T gradients, k of them with a Wigner draw
        monkeypatch.setattr(accountant, "subsampled_gaussian_rdp_curve",
                            functools.lru_cache(maxsize=None)(subsampled_gaussian_rdp_curve))
        plan = Budget(ApproxDp(eps, 1e-5)).plan(t_budget, s, 0)
        for k in range(t_budget + 1):
            curve = account_run(run_log(plan, t_budget - k, k), RdpCurve)
            assert curve.spent(1e-5) <= eps, k

    @staticmethod
    def spent(plan, t_budget):
        return account_run(run_log(plan, 0, t_budget), RdpCurve).spent(1e-5)

    def test_returned_sigma_is_the_least_feasible_to_the_tolerance(self):
        plan = tune_noise_plan(ApproxDp(1.0, 1e-5), 0.01, 100, SIGMA_F)
        assert accountant.SIGMA_BRACKET[0] < plan.sigma_g
        smaller = plan.sigma_g * math.exp(-accountant.SIGMA_RTOL)
        assert self.spent(NoisePlan(SIGMA_F, smaller, smaller, None, 0.01), 100) > 1.0

    def test_unconstrained_target_returns_the_bracket_bottom(self):
        plan = tune_noise_plan(ApproxDp(50.0, 1e-5), 0.001, 10, 3.7)
        assert plan.sigma_g == plan.sigma_h == accountant.SIGMA_BRACKET[0] == 0.5
        assert plan.sigma_f == 3.7

    def test_larger_t_budget_weakly_increases_sigma(self):
        target = ApproxDp(1.0, 1e-5)
        small = tune_noise_plan(target, 0.01, 50, SIGMA_F)
        large = tune_noise_plan(target, 0.01, 200, SIGMA_F)
        assert large.sigma_g >= small.sigma_g - 1e-12

    @pytest.mark.parametrize("s", [0.0, 1.5, math.nan])
    def test_fraction_outside_the_unit_interval_refused(self, s):
        with pytest.raises(ValueError, match="subsample_fraction"):
            tune_noise_plan(ApproxDp(1.0, 1e-5), s, 10, SIGMA_F)

    def test_target_infeasible_at_the_bracket_top_reported_distinctly(self):
        top = accountant.SIGMA_BRACKET[1]
        assert top == 2e4
        assert self.spent(NoisePlan(0.5, top, top, None, 0.5), 1000) > 0.01
        with pytest.raises(InfeasiblePlanError):
            tune_noise_plan(ApproxDp(0.01, 1e-5), 0.5, 1000, 0.5)

    def test_feasibility_monotone_and_tuner_returns_its_least_point(self, monkeypatch):
        # a curve depends only on (sigma, s), so memoizing it keeps every
        # value and lets the test scan the bracket on a grid of its own
        monkeypatch.setattr(accountant, "subsampled_gaussian_rdp_curve",
                            functools.lru_cache(maxsize=None)(subsampled_gaussian_rdp_curve))
        bottom, top = accountant.SIGMA_BRACKET
        outcomes = set()
        for eps, s, t in itertools.product((0.3, 1.0, 8.0, 50.0), (0.01, 0.25), (1, 100)):
            sigma_f = Budget(ApproxDp(eps, 1e-5)).sigma_f

            def feasible(sigma):
                return self.spent(NoisePlan(sigma_f, sigma, sigma, None, s), t) <= eps

            flags = [feasible(x) for x in np.geomspace(bottom, top, 9).tolist()]
            assert flags == sorted(flags), (eps, s, t, flags)
            if not flags[-1]:
                outcomes.add("infeasible")
                with pytest.raises(InfeasiblePlanError):
                    tune_noise_plan(ApproxDp(eps, 1e-5), s, t, sigma_f)
                continue
            plan = tune_noise_plan(ApproxDp(eps, 1e-5), s, t, sigma_f)
            assert plan.sigma_f == sigma_f and plan.sigma_g == plan.sigma_h
            assert feasible(plan.sigma_g), (eps, s, t)
            if plan.sigma_g == bottom:
                outcomes.add("bottom")
            else:
                outcomes.add("interior")
                assert not feasible(plan.sigma_g * math.exp(-accountant.SIGMA_RTOL)), (eps, s, t)
        assert outcomes == {"infeasible", "bottom", "interior"}

    def test_tune_builds_at_most_sixteen_curves(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return subsampled_gaussian_rdp_curve(*args, **kwargs)

        monkeypatch.setattr(accountant, "subsampled_gaussian_rdp_curve", counting)
        Budget(ApproxDp(1.0, 1e-5)).plan(100, 0.01, 0)
        # one probe of each end of the bracket, then 14 halvings of its log
        # width, log(4e4) ~ 10.6, to at most SIGMA_RTOL = 2^-10; each probe
        # builds one curve, since every gradient is paired with a Wigner draw
        assert len(calls) <= 16


class TestZCdpCalibration:
    @pytest.mark.parametrize("rho,c_f", itertools.product((0.02, 0.1, 0.5, 2.0), (0.1, 0.3)))
    def test_worst_case_log_converts_to_rho(self, rho, c_f):
        # the worst case is T curvature iterations, each with a sweep in a line search
        for t_budget in (1, 7, 100, 1000):
            short = Budget(ZCdp(rho), c_f).plan(t_budget, 1.0, 0)
            line = Budget(ZCdp(rho), c_f).plan(t_budget, 1.0, 1)
            assert short.lambda_svt is None and line.lambda_svt == line.sigma_g
            for spent in (ZCdp.of(run_log(short, 0, t_budget)).rho,
                          ZCdp.of(run_log(line, 0, t_budget, t_budget)).rho):
                assert abs(spent - rho) <= 4 * math.ulp(rho), (t_budget, spent)


class TestValidation:
    def test_rdp_curve_invariants(self):
        eps = np.full(len(DEFAULT_ORDERS), 0.1)
        assert np.array_equal(RdpCurve(eps).orders, DEFAULT_ORDERS)
        with pytest.raises(ValueError, match="one eps"):
            RdpCurve(eps[:-1])  # not one value per order
        with pytest.raises(ValueError, match="one eps"):
            RdpCurve(eps[:, None])
        for bad in (-0.1, math.nan):
            eps[3] = bad
            with pytest.raises(ValueError, match="nonnegative"):
                RdpCurve(eps)

    def test_rdp_curve_orders_are_the_read_only_default_grid(self):
        assert "orders" not in {f.name for f in dataclasses.fields(RdpCurve)}
        with pytest.raises(ValueError, match="read-only"):
            RdpCurve.orders[0] = 1.5

    def test_noise_plan_invariants(self):
        with pytest.raises(ValueError):
            NoisePlan(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            NoisePlan(1.0, math.inf, 1.0)
        with pytest.raises(ValueError, match="finite"):
            NoisePlan(1.0, 1.0, 1.0, lambda_svt=math.inf)
        with pytest.raises(ValueError):
            NoisePlan(1.0, 1.0, 1.0, subsample_fraction=0.0)

    def test_approx_dp_invariants(self):
        with pytest.raises(ValueError):
            ApproxDp(-0.1, 1e-5)
        with pytest.raises(ValueError):
            ApproxDp(0.1, 0.0)
