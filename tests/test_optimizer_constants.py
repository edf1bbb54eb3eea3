"""Constants machinery: roots, minimum decrease, budgets, sample-size advisors."""

import math

import numpy as np
import pytest

from dpopt.accountant import NoisePlan, ZCdp
from dpopt.objective import builtin_quartic_saddle
from dpopt.optimizer import (AlgorithmConstants, iteration_budget,
                             min_dec_line_search, min_dec_short,
                             min_samples_advisor, probe_count, roots_t1_t2,
                             svt_slack)


def poly(t, c, c2, c_h):
    return -t * t / 6.0 + 0.5 * (1.0 - c - c_h) * t - c2


class TestRoots:
    def test_degenerate_zero_c2(self):
        t1, t2 = roots_t1_t2(0.0, 0.0, 0.5)
        assert t1 == pytest.approx(0.0, abs=1e-15)
        assert t2 == pytest.approx(1.5)

    def test_roots_satisfy_polynomial(self):
        t1, t2 = roots_t1_t2(0.05, 0.05, 0.3)
        assert abs(poly(t1, 0.05, 0.05, 0.3)) <= 1e-12
        assert abs(poly(t2, 0.05, 0.05, 0.3)) <= 1e-12
        assert 0 < t1 < t2

    def test_sign_pattern(self):
        c, c2, c_h = 0.05, 0.05, 0.3
        t1, t2 = roots_t1_t2(c, c2, c_h)
        for t in np.linspace(0.0, 3.0, 1000):
            val = poly(t, c, c2, c_h)
            if t1 + 1e-9 <= t <= t2 - 1e-9:
                assert val >= 0.0
            elif t < t1 - 1e-9 or t > t2 + 1e-9:
                assert val < 0.0

    def test_negative_discriminant_rejected(self):
        with pytest.raises(ValueError):
            roots_t1_t2(0.3, 0.3, 0.6)


class TestMinDec:
    def test_short_worked_example(self):
        val = min_dec_short(1.0, 1.0, 0.1, 0.3, 0.1, 0.1, 0.1)
        first = 0.8 / 2.0 * 0.01
        second = 2.0 * (1.0 / 3.0 - 0.2) * 0.027
        assert val == pytest.approx(min(first, second), rel=1e-12)
        assert val == pytest.approx(0.004, rel=1e-12)

    def test_short_rejects_boundary_c1(self):
        with pytest.raises(ValueError):
            min_dec_short(1.0, 1.0, 0.1, 0.3, 0.5, 0.1, 0.1)

    def test_short_quadratic_in_eps_g(self):
        base = min_dec_short(1.0, 1.0, 0.1, 10.0, 0.1, 0.1, 0.1)  # grad branch binding
        doubled = min_dec_short(1.0, 1.0, 0.2, 10.0, 0.1, 0.1, 0.1)
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_line_search_worked_example(self):
        _, t2 = roots_t1_t2(0.1, 0.1, 0.25)
        val = min_dec_line_search(1.0, 1.0, 0.1, 0.3, 0.1, 0.4, 0.25, t2)
        first = (1.0 - 0.1 - 0.4) * 0.4 * 0.01
        second = 0.25 * 0.25 * t2 * t2 * 0.027
        assert val == pytest.approx(min(first, second), rel=1e-12)
        assert first > 0 and second > 0

    def test_c_g_midpoint_maximizes_gradient_branch(self):
        c1 = 0.1
        best = 0.5 * (1.0 - c1)
        mid = min_dec_line_search(1.0, 1e-9 + 1.0, 1.0, 10.0, c1, best, 0.25, 1.5)
        for cg in (best - 0.05, best + 0.05):
            other = min_dec_line_search(1.0, 1.0, 1.0, 10.0, c1, cg, 0.25, 1.5)
            assert mid >= other


class TestIterationBudget:
    def test_worked_example(self):
        assert iteration_budget(1.0, 0.0, 0.0, 0.01) == 100

    def test_degenerate_clamps_to_one(self):
        assert iteration_budget(0.5, 0.0, 0.5, 0.01) == 1
        assert iteration_budget(0.1, 0.0, 0.5, 0.01) == 1

    def test_monotone_in_noise_magnitude(self):
        budgets = [iteration_budget(1.0, z, 0.0, 0.01) for z in (0.0, -0.5, 1.0, -2.0)]
        assert budgets == sorted(budgets)


class TestHelpers:
    def test_probe_count(self):
        # b = 2, beta = 0.5: probes 2*gbar, gbar
        assert probe_count(0.5, 2.0) == 2
        assert probe_count(0.5, 1.0) == 1
        assert probe_count(0.9, 3.0) == math.floor(math.log(1 / 3.0) / math.log(0.9)) + 1

    def test_svt_slack(self):
        assert svt_slack(2.0, 20, 1.0, 0.05) == pytest.approx(
            16.0 * (math.log(20.0) + math.log(20.0)))


class TestDeriveConstants:
    def test_bundles_roots_budget_and_fallback_step(self):
        from dpopt.optimizer import derive_constants

        model = _model_with(1.0, 1.0, 1.0)
        consts = AlgorithmConstants(eps_g=0.1, eps_h=0.3, c=0.1, c1=0.1, c2=0.1,
                                    c_g=0.4, c_h=0.25)
        derived = derive_constants(consts, model, "short", f0_plus_z=1.0)
        t1, t2 = roots_t1_t2(0.1, 0.1, 0.25)
        assert (derived.t1, derived.t2) == (t1, t2)
        assert derived.min_dec == min_dec_short(model.G, model.M, 0.1, 0.3, 0.1, 0.1, 0.1)
        assert derived.t_budget == iteration_budget(1.0, 0.0, 0.0, derived.min_dec)
        assert derived.gamma_bar_g == pytest.approx(2.0 * (1.0 - 0.1 - 0.4) / model.G)

    def test_line_search_variant_validates_beta_h_window(self):
        from dpopt.optimizer import derive_constants

        model = _model_with(1.0, 1.0, 1.0)
        consts = AlgorithmConstants(eps_g=0.1, eps_h=0.3, beta_h=0.05)  # below t1/t2
        with pytest.raises(ValueError):
            derive_constants(consts, model, "line_search", f0_plus_z=1.0)


class TestConstantsValidation:
    def test_defaults_valid(self):
        AlgorithmConstants(eps_g=0.06, eps_h=0.245)

    def test_c1_range(self):
        with pytest.raises(ValueError):
            AlgorithmConstants(eps_g=0.1, eps_h=0.1, c1=0.5)

    def test_c2_plus_c_range(self):
        with pytest.raises(ValueError):
            AlgorithmConstants(eps_g=0.1, eps_h=0.1, c=0.2, c2=0.15)

    def test_c_h_range(self):
        with pytest.raises(ValueError):
            AlgorithmConstants(eps_g=0.1, eps_h=0.1, c_h=0.9)

    def test_multipliers_above_one(self):
        with pytest.raises(ValueError):
            AlgorithmConstants(eps_g=0.1, eps_h=0.1, b_g=1.0)


def _model_with(B_g, B_H, M):
    model = builtin_quartic_saddle(1.0, 4)
    object.__setattr__(model, "B_g", B_g)
    object.__setattr__(model, "B_H", B_H)
    object.__setattr__(model, "M", M)
    return model


class TestMinSamplesAdvisor:
    """Hand-evaluated oracle values, written as independent transcriptions."""

    SETS = [
        dict(B_g=1.0, B_H=1.0, M=1.0, eps_g=0.1, eps_h=0.3, sigma=14.0, lam=14.0,
             T=100, s=0.01),
        dict(B_g=2.5, B_H=0.7, M=0.4, eps_g=0.05, eps_h=0.2, sigma=80.0, lam=25.0,
             T=400, s=0.05),
        dict(B_g=0.5, B_H=3.0, M=2.0, eps_g=0.02, eps_h=0.14, sigma=300.0, lam=120.0,
             T=2000, s=0.002),
    ]

    @staticmethod
    def _constants(p):
        return AlgorithmConstants(eps_g=p["eps_g"], eps_h=p["eps_h"], c=0.1, c1=0.1,
                                  c2=0.1, c_g=0.4, c_h=0.25, b_g=2.0, b_h=2.0,
                                  beta_g=0.5, beta_h=0.5, zeta=0.1, xi=0.05, eta=0.1)

    @staticmethod
    def _oracle_short(p, wigner_c=2.0):
        lo = min(0.1 * p["eps_g"], 0.1 / p["M"] * p["eps_h"] ** 2)
        d = 10
        g = math.sqrt(2 * d) * p["B_g"] * p["sigma"] * math.log(p["T"] / 0.1) / lo
        h = wigner_c * math.sqrt(d) * p["B_H"] * p["sigma"] * math.log(p["T"] / 0.1) / (0.1 * p["eps_h"])
        return g, h

    @pytest.mark.parametrize("p", SETS)
    def test_short_variant(self, p):
        model = _model_with(p["B_g"], p["B_H"], p["M"])
        plan = NoisePlan(1.0, p["sigma"], p["sigma"])
        got = min_samples_advisor(model, self._constants(p), plan, "short", 10, p["T"])
        g, h = self._oracle_short(p)
        expected = max(g, h)
        assert abs(got - math.ceil(expected)) <= 1  # ceil of a value within 1 ulp

    @pytest.mark.parametrize("p", SETS)
    def test_line_search_variant_adds_svt_branch(self, p):
        model = _model_with(p["B_g"], p["B_H"], p["M"])
        plan = NoisePlan(1.0, p["sigma"], p["sigma"], lambda_svt=p["lam"])
        got = min_samples_advisor(model, self._constants(p), plan, "line_search", 10, p["T"])
        g, h = self._oracle_short(p)
        t2 = 1.5 * (1 - 0.1 - 0.25) + 3 * math.sqrt(0.25 * (1 - 0.1 - 0.25) ** 2 - 2 * 0.1 / 3)
        i_max = math.floor(math.log(0.5) / math.log(0.5)) + 1
        svt = (16 * p["lam"] * (math.log(i_max) + math.log(p["T"] / 0.05)) * p["B_g"]
               * max(2 * 2.0 / (0.4 * p["eps_g"]),
                     4 * 2.0 * p["M"] / (t2 * 0.25 * p["eps_h"] ** 2)))
        assert abs(got - math.ceil(max(g, h, svt))) <= 1
        assert got >= max(g, h)  # never below the short-variant branches

    @pytest.mark.parametrize("p", SETS)
    def test_minibatch_variant(self, p):
        model = _model_with(p["B_g"], p["B_H"], p["M"])
        plan = NoisePlan(1.0, p["sigma"], p["sigma"], subsample_fraction=p["s"])
        got = min_samples_advisor(model, self._constants(p), plan, "minibatch", 10, p["T"])
        g, h = self._oracle_short(p)
        lb = math.log(2 * 10 * p["T"] / 0.1)
        sub_g = 64 * p["B_g"] ** 2 * (lb + 0.25) * max(
            100 / p["eps_g"] ** 2, p["M"] ** 2 / 0.01 / p["eps_h"] ** 4) / p["s"]
        sub_h = 32 * p["B_H"] ** 2 * lb * 100 / p["eps_h"] ** 2 / p["s"]
        assert abs(got - math.ceil(max(2 * g, 2 * h, sub_g, sub_h))) <= 1

    def test_eps_h_halving_scales_like_seven_halves_power(self):
        # regime where the eps_h^(-7/2) contribution dominates: sigma ~ sqrt(T)
        # with T ~ eps_h^-3 and the gradient branch floor at c2 eps_h^2 / M
        from dpopt.optimizer import Budget, min_dec_short, iteration_budget

        def advised(eps_h):
            c = AlgorithmConstants(eps_g=1.0, eps_h=eps_h, c=0.1, c1=0.1, c2=0.1)
            model = _model_with(1.0, 1.0, 1.0)
            md = min_dec_short(model.G, model.M, 1.0, eps_h, 0.1, 0.1, 0.1)
            T = iteration_budget(1.0, 0.0, 0.0, md)
            plan = Budget(ZCdp(0.1), 0.1).plan(T, 1.0, 0)
            return min_samples_advisor(model, c, plan, "short", 10, T)

        ratio = advised(0.05) / advised(0.1)
        assert ratio == pytest.approx(2 ** 3.5, rel=0.35)  # log factors perturb the power law
