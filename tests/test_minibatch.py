"""Mini-batch variant: degeneracy at m = n, ledgers, advisory checks."""

import numpy as np
import pytest

from dpopt.accountant import (DEFAULT_ORDERS, combined_sigma, rdp_to_approx_dp,
                              subsampled_gaussian_rdp_curve)
from dpopt.harness import synth_dataset
from dpopt.mechanisms import SeededRng
from dpopt.objective import BatchSelector, builtin_nonconvex_logistic
from dpopt.optimizer import (AlgorithmConstants, RdpTuneBudget, ShortStepBudget,
                             SubsampledDpBudget, run_minibatch, run_short_step,
                             run_two_phase)

CONSTS = AlgorithmConstants(eps_g=0.060, eps_h=0.245)


@pytest.fixture(scope="module")
def instance():
    ds = synth_dataset("logistic_separable", 60000, 5, seed=123)
    model = builtin_nonconvex_logistic(1e-3, ds.feature_norm_bound, 5, 10.0)
    return ds, model


class TestDegeneracy:
    def test_full_batch_selector_reproduces_short_step_exactly(self, instance):
        ds, model = instance
        w0 = np.zeros(5)
        a = run_short_step(model, ds, w0, CONSTS, ShortStepBudget(0.05), SeededRng(42))
        b = run_minibatch(model, ds, w0, CONSTS, ShortStepBudget(0.05),
                          BatchSelector(ds.n), SeededRng(42), accounting="zcdp")
        assert a.trace == b.trace
        assert np.array_equal(a.w_final, b.w_final)
        assert a.accounted_privacy == b.accounted_privacy


class TestRdpLedger:
    def test_composed_curve_matches_published_form_termwise(self, instance):
        ds, model = instance
        sel = BatchSelector(600)
        out = run_minibatch(model, ds, np.zeros(5), CONSTS, RdpTuneBudget(1.0, 1e-5),
                            sel, SeededRng(0))
        s = 600 / ds.n
        k_g, k_h = out.grad_steps, out.hess_evals
        manual = np.asarray(DEFAULT_ORDERS, float) / (2.0 * out.plan.sigma_f ** 2)
        manual = manual + k_g * subsampled_gaussian_rdp_curve(out.plan.sigma_g, s).epsilons
        if k_h:
            sigma_gh = combined_sigma(out.plan.sigma_g, out.plan.sigma_h)
            manual = manual + k_h * subsampled_gaussian_rdp_curve(sigma_gh, s).epsilons
        assert np.max(np.abs(out.accounted_privacy.epsilons - manual)) <= 1e-12

    def test_spent_epsilon_within_target(self, instance):
        ds, model = instance
        out = run_minibatch(model, ds, np.zeros(5), CONSTS, RdpTuneBudget(1.0, 1e-5),
                            BatchSelector(600), SeededRng(0))
        spent, _ = rdp_to_approx_dp(out.accounted_privacy, 1e-5)
        assert spent.epsilon <= 1.0

    def test_advisory_violation_flagged_not_fatal(self, instance):
        ds, model = instance
        out = run_minibatch(model, ds, np.zeros(5), CONSTS, RdpTuneBudget(1.0, 1e-5),
                            BatchSelector(600), SeededRng(0))
        assert any("advisory-violated" in w for w in out.warnings)


class TestApproxDpLedger:
    def test_spent_budget_within_target(self, instance):
        ds, model = instance
        out = run_minibatch(model, ds, np.zeros(5), CONSTS,
                            SubsampledDpBudget(0.8, 1e-5), BatchSelector(600),
                            SeededRng(1), accounting="approx_dp")
        assert out.accounted_privacy.epsilon <= 0.8 + 1e-12
        assert out.accounted_privacy.delta <= 1e-5 * (1 + 1e-12)

    def test_requires_matching_budget(self, instance):
        ds, model = instance
        with pytest.raises(ValueError):
            run_minibatch(model, ds, np.zeros(5), CONSTS, ShortStepBudget(0.1),
                          BatchSelector(600), SeededRng(0), accounting="approx_dp")


class TestSelectorValidation:
    def test_batch_larger_than_n_rejected(self, instance):
        ds, model = instance
        with pytest.raises(ValueError):
            run_minibatch(model, ds, np.zeros(5), CONSTS, RdpTuneBudget(1.0, 1e-5),
                          BatchSelector(ds.n + 1), SeededRng(0))

    def test_line_search_budget_rejected(self, instance):
        ds, model = instance
        from dpopt.optimizer import LineSearchBudget
        with pytest.raises(TypeError):
            run_minibatch(model, ds, np.zeros(5), CONSTS, LineSearchBudget(0.1),
                          BatchSelector(600), SeededRng(0))


class TestTwoPhaseMinibatch:
    def test_two_phase_converges_within_its_epsilon(self, instance):
        ds, model = instance
        out = run_two_phase(model, ds, np.zeros(5), CONSTS, RdpTuneBudget(1.0, 1e-5),
                            SeededRng(4), variant="minibatch", selector=BatchSelector(600))
        spent, _ = rdp_to_approx_dp(out.accounted_privacy, 1e-5)
        assert spent.epsilon <= 1.0
        assert out.status == "converged_2s"
