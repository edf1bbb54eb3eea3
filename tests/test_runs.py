"""Run-level tests: convergence, descent guarantees, ledgers, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dpopt import objective
from dpopt.optimizer import runs
from dpopt.spectral import EigenResult
from dpopt.accountant import NoisePlan, account_run
from dpopt.mechanisms import SeededRng
from dpopt.objective import (BatchSelector, Dataset, builtin_nonconvex_logistic,
                             builtin_quartic_saddle, erm_gradient, erm_hessian,
                             sensitivities)
from dpopt.harness import synth_dataset
from dpopt.optimizer import (VARIANTS, AlgorithmConstants, LineSearchBudget,
                             RdpTuneBudget, ShortStepBudget, SubsampledDpBudget,
                             default_phase1_policy, min_dec_line_search,
                             min_dec_short, roots_t1_t2, run_line_search,
                             run_minibatch, run_short_step, run_two_phase, run_variant)
from noise_doubles import always_failing_line_search, bounded_noise

TOLS = AlgorithmConstants(eps_g=1e-2, eps_h=1e-1)


def identical_sample_quartic(n=8, d=2):
    """ERM over n identical rows (1, 0, ...): saddle at the origin with
    lambda_min(H(0)) = -1 exactly."""
    X = np.zeros((n, d))
    X[:, 0] = 1.0
    return Dataset(X, np.ones(n), 1.0), builtin_quartic_saddle(1.0, d, weight_box=4.0)


def planted_instance():
    ds = synth_dataset("planted_saddle", 400, 6, seed=5,
                       saddle_signal=1.6, saddle_noise=0.4)
    return ds, builtin_quartic_saddle(ds.feature_norm_bound, 6, weight_box=1.0)


def bounded_plan(model, ds, constants, lam=1e-8):
    """Noise multipliers sized so rejection sampling accepts quickly."""
    sens = sensitivities(model, ds.n, ds.d)
    grad_bound = min(constants.c1 * constants.eps_g,
                     constants.c2 / model.M * constants.eps_h ** 2)
    hess_bound = constants.c * constants.eps_h
    sigma_g = grad_bound / (3.0 * math.sqrt(ds.d)) / sens.delta_g
    sigma_h = hess_bound / (6.0 * math.sqrt(ds.d)) / sens.delta_h
    return NoisePlan(10.0, sigma_g, sigma_h, lambda_svt=lam)


class TestZeroNoiseConvergence:
    def test_short_step_reaches_exact_second_order_point(self):
        ds, model = identical_sample_quartic()
        out = run_short_step(model, ds, np.array([2.0, 0.0]), TOLS,
                             ShortStepBudget(0.5), SeededRng(0), noise_mode="zero")
        assert out.status == "converged_2s"
        g = erm_gradient(model, ds, out.w_final)
        lam_min = np.linalg.eigvalsh(erm_hessian(model, ds, out.w_final))[0]
        assert np.linalg.norm(g) <= TOLS.eps_g
        assert lam_min >= -TOLS.eps_h

    def test_line_search_reaches_exact_second_order_point(self):
        ds, model = identical_sample_quartic()
        out = run_line_search(model, ds, np.array([2.0, 0.0]), TOLS,
                              LineSearchBudget(0.5), SeededRng(0), noise_mode="zero")
        assert out.status == "converged_2s"
        g = erm_gradient(model, ds, out.w_final)
        lam_min = np.linalg.eigvalsh(erm_hessian(model, ds, out.w_final))[0]
        assert np.linalg.norm(g) <= TOLS.eps_g
        assert lam_min >= -TOLS.eps_h

    def test_saddle_start_takes_curvature_step_first(self):
        ds, model = identical_sample_quartic()
        out = run_short_step(model, ds, np.zeros(2), TOLS, ShortStepBudget(0.5),
                             SeededRng(1), noise_mode="zero")
        first = out.trace[0]
        assert first.kind == "negative_curvature"
        assert first.grad_norm_noisy == 0.0
        assert first.lambda_noisy == pytest.approx(-1.0, abs=1e-12)
        assert out.status == "converged_2s"

    def test_line_search_first_step_outdecreases_short_step(self):
        # with b_g > 1 the search probes longer steps than 1/G from the same point
        ds, model = identical_sample_quartic()
        w0 = np.array([2.0, 0.0])
        short = run_short_step(model, ds, w0, TOLS, ShortStepBudget(0.5),
                               SeededRng(0), noise_mode="zero")
        ls = run_line_search(model, ds, w0, TOLS, LineSearchBudget(0.5),
                             SeededRng(0), noise_mode="zero")
        dec_short = short.trace[0].loss_before - short.trace[0].loss_after
        dec_ls = ls.trace[0].loss_before - ls.trace[0].loss_after
        assert dec_ls >= dec_short

    def test_line_search_accepted_steps_satisfy_sufficient_decrease(self):
        ds, model = identical_sample_quartic()
        out = run_line_search(model, ds, np.array([2.0, 0.0]), TOLS,
                              LineSearchBudget(0.5), SeededRng(0), noise_mode="zero")
        for rec in out.trace:
            if rec.kind == "gradient":
                # SD1 with the noiseless gradient: decrease >= c_g gamma ||g||^2
                dec = rec.loss_before - rec.loss_after
                assert dec >= TOLS.c_g * rec.step_size * rec.grad_norm_noisy ** 2 - 1e-12

    def test_line_search_curvature_step_in_window(self):
        ds, model = identical_sample_quartic()
        t1, t2 = roots_t1_t2(TOLS.c, TOLS.c2, TOLS.c_h)
        out = run_line_search(model, ds, np.zeros(2), TOLS, LineSearchBudget(0.5),
                              SeededRng(1), noise_mode="zero")
        curv = [r for r in out.trace if r.kind == "negative_curvature"]
        assert curv
        for rec in curv:
            gamma_bar = t2 * abs(rec.lambda_noisy) / model.M
            assert (t1 / t2) * gamma_bar - 1e-12 <= rec.step_size
            assert rec.step_size <= TOLS.b_h * gamma_bar + 1e-12
            dec = rec.loss_before - rec.loss_after
            assert dec >= 0.5 * TOLS.c_h * rec.step_size ** 2 * abs(rec.lambda_noisy) - 1e-12


BOUNDED = AlgorithmConstants(eps_g=1e-2, eps_h=1e-1, c=0.05, c1=0.05, c2=0.05, c_h=0.3)


class TestBoundedNoiseDescent:
    def test_short_step_descent_guarantee(self):
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        min_dec = min_dec_short(model.G, model.M, BOUNDED.eps_g, BOUNDED.eps_h,
                                BOUNDED.c1, BOUNDED.c2, BOUNDED.c)
        for seed in range(3):
            with bounded_noise(model, BOUNDED):
                out = run_short_step(model, ds, np.zeros(6), BOUNDED, plan, SeededRng(seed))
            assert out.status == "converged_2s"
            for rec in out.trace:
                if rec.kind != "terminate":
                    assert rec.loss_before - rec.loss_after >= min_dec - 1e-9

    def test_line_search_descent_guarantee(self):
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        _, t2 = roots_t1_t2(BOUNDED.c, BOUNDED.c2, BOUNDED.c_h)
        min_dec = min_dec_line_search(model.G, model.M, BOUNDED.eps_g, BOUNDED.eps_h,
                                      BOUNDED.c1, BOUNDED.c_g, BOUNDED.c_h, t2)
        for seed in range(3):
            with bounded_noise(model, BOUNDED):
                out = run_line_search(model, ds, np.zeros(6), BOUNDED, plan, SeededRng(seed))
            assert out.status == "converged_2s"
            for rec in out.trace:
                if rec.kind != "terminate":
                    assert rec.loss_before - rec.loss_after >= min_dec - 1e-9

    def test_output_quality_under_bounded_noise(self):
        # exact derivatives at the terminal point satisfy the relaxed tolerances
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        with bounded_noise(model, BOUNDED):
            out = run_short_step(model, ds, np.zeros(6), BOUNDED, plan, SeededRng(0))
        assert out.status == "converged_2s"
        g = erm_gradient(model, ds, out.w_final)
        lam_min = np.linalg.eigvalsh(erm_hessian(model, ds, out.w_final))[0]
        assert np.linalg.norm(g) <= (1.0 + BOUNDED.c1) * BOUNDED.eps_g
        assert lam_min >= -(1.0 + BOUNDED.c) * BOUNDED.eps_h

    def test_forced_fallback_still_decreases(self, monkeypatch):
        # all SVT probes fail: steps use the fallback gamma_bar and decrease
        # the loss because the fallback query is nonnegative under bounded
        # noise
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        gamma_bar_g = 2.0 * (1.0 - BOUNDED.c1 - BOUNDED.c_g) / model.G
        monkeypatch.setattr(runs, "dp_line_search", always_failing_line_search)
        with bounded_noise(model, BOUNDED):
            out = run_line_search(model, ds, np.zeros(6), BOUNDED, plan, SeededRng(4))
        assert out.status == "converged_2s"
        for rec in out.trace:
            if rec.kind == "gradient":
                assert rec.step_size == pytest.approx(gamma_bar_g)
                assert rec.loss_before - rec.loss_after > 0.0


class TestLedger:
    def test_zcdp_ledger_matches_account_run_exactly(self):
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        with bounded_noise(model, BOUNDED):
            out = run_short_step(model, ds, np.zeros(6), BOUNDED, plan, SeededRng(0))
        recomputed = account_run(out.grad_steps, out.hess_evals, out.plan, "short")
        assert out.accounted_privacy.rho == recomputed.rho
        increments = math.fsum(r.rho_increment for r in out.trace)
        f_charge = 0.5 / out.plan.sigma_f ** 2
        assert increments + f_charge == pytest.approx(out.accounted_privacy.rho, rel=1e-12)

    def test_ledger_never_exceeds_planned_budget(self):
        ds, model = identical_sample_quartic()
        rho = 0.3
        out = run_short_step(model, ds, np.array([2.0, 0.0]), TOLS,
                             ShortStepBudget(rho), SeededRng(2), noise_mode="zero")
        assert out.accounted_privacy.rho <= rho + 1e-12
        out_ls = run_line_search(model, ds, np.array([2.0, 0.0]), TOLS,
                                 LineSearchBudget(rho), SeededRng(2), noise_mode="zero")
        assert out_ls.accounted_privacy.rho <= rho + 1e-12
        recomputed = account_run(out_ls.grad_steps, out_ls.hess_evals, out_ls.plan,
                                 "line_search")
        assert out_ls.accounted_privacy.rho == recomputed.rho

    def test_iteration_cap_and_hessian_placement(self):
        ds, model = identical_sample_quartic()
        out = run_short_step(model, ds, np.array([2.0, 0.0]), TOLS,
                             ShortStepBudget(0.5), SeededRng(0), noise_mode="zero")
        assert out.iterations <= out.t_budget
        for rec in out.trace:
            if rec.lambda_noisy is not None:
                assert rec.grad_norm_noisy <= TOLS.eps_g  # Hessian drawn only here
            else:
                assert rec.grad_norm_noisy > TOLS.eps_g


class TestDeterminism:
    def test_identical_seeds_produce_identical_traces(self):
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        a = run_short_step(model, ds, np.zeros(6), BOUNDED, plan, SeededRng(11))
        b = run_short_step(model, ds, np.zeros(6), BOUNDED, plan, SeededRng(11))
        assert a.trace == b.trace
        assert np.array_equal(a.w_final, b.w_final)
        assert a.z_draw == b.z_draw

    def test_different_seeds_differ(self):
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        a = run_short_step(model, ds, np.zeros(6), BOUNDED, plan, SeededRng(11))
        b = run_short_step(model, ds, np.zeros(6), BOUNDED, plan, SeededRng(12))
        assert a.z_draw != b.z_draw


class TestLanczosPath:
    def test_zero_noise_lanczos_run_converges_with_exact_checks(self):
        ds, model = planted_instance()
        out = run_short_step(model, ds, np.zeros(6), TOLS, ShortStepBudget(0.5),
                             SeededRng(0), noise_mode="zero", lanczos=True)
        assert out.status == "converged_2s"
        g = erm_gradient(model, ds, out.w_final)
        lam_min = np.linalg.eigvalsh(erm_hessian(model, ds, out.w_final))[0]
        assert np.linalg.norm(g) <= TOLS.eps_g
        assert lam_min >= -TOLS.eps_h

    def test_missing_lambda_rejected_for_line_search(self):
        ds, model = identical_sample_quartic()
        plan = NoisePlan(10.0, 10.0, 10.0)  # no lambda_svt
        with pytest.raises(ValueError, match="lambda_svt"):
            run_line_search(model, ds, np.array([2.0, 0.0]), TOLS, plan,
                            SeededRng(0), noise_mode="zero")


class TestWeightBox:
    def test_violation_aborts_with_failed_termination(self):
        ds = synth_dataset("logistic_separable", 200, 3, seed=1)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 3, weight_box=0.4)
        out = run_short_step(model, ds, np.zeros(3),
                             AlgorithmConstants(eps_g=1e-4, eps_h=0.2),
                             ShortStepBudget(0.5), SeededRng(0), noise_mode="zero")
        assert out.status == "failed_termination"
        assert any("weight box" in w for w in out.warnings)
        # the returned iterate is the last one inside the box, with a real loss
        assert np.max(np.abs(out.w_final)) <= 0.4 * (1 + 1e-12)
        assert math.isfinite(out.final_loss)


class TestNonFiniteRelease:
    """A NaN noisy gradient norm or noisy eigenvalue ends the run as
    failed_termination and charges the iteration it was released in."""

    @staticmethod
    def _with_link(model, **parts):
        return replace(model, link=replace(model.link, **parts))

    def test_nan_gradient_norm_fails_the_run(self):
        ds = synth_dataset("logistic_separable", 200, 3, seed=1)
        model = self._with_link(builtin_nonconvex_logistic(1e-3, 1.0, 3),
                                deriv=lambda t: np.full_like(t, np.nan))
        out = run_short_step(model, ds, np.zeros(3), TOLS, ShortStepBudget(0.5),
                             SeededRng(0))
        assert out.status == "failed_termination"
        assert any("non-finite noisy gradient norm" in w for w in out.warnings)
        assert out.trace == ()
        assert np.array_equal(out.w_final, np.zeros(3))
        assert math.isfinite(out.final_loss)
        assert out.accounted_privacy == account_run(1, 0, out.plan, "short")

    @pytest.mark.parametrize("path,what", [
        ("dense", "noisy Hessian at"), ("lanczos", "noisy Hessian-vector product"),
        ("eigensolver", "noisy eigenvalue")])
    def test_nan_eigenvalue_fails_the_run(self, path, what, monkeypatch):
        # the gradient vanishes at the saddle, so iteration 0 draws a Hessian
        ds, model = identical_sample_quartic(d=3)
        if path == "eigensolver":
            monkeypatch.setattr(runs, "min_eigenpair_dense", lambda H: EigenResult(
                math.nan, np.full(H.shape[0], math.nan), "dense"))
        else:
            model = self._with_link(model, second=lambda t: np.full_like(t, np.nan))
        out = run_short_step(model, ds, np.zeros(3), TOLS, ShortStepBudget(0.5),
                             SeededRng(0), noise_mode="zero", lanczos=path == "lanczos")
        assert out.status == "failed_termination"
        assert any(f"non-finite {what}" in w for w in out.warnings)
        assert out.trace == ()
        assert out.accounted_privacy == account_run(0, 1, out.plan, "short")


class TestTwoPhase:
    def test_phase_one_success_short_circuits(self):
        ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 4)
        consts = AlgorithmConstants(eps_g=0.06, eps_h=0.245)
        rho = 0.5
        out = run_two_phase(model, ds, np.zeros(4), consts, ShortStepBudget(rho),
                            SeededRng(0), variant="short", noise_mode="zero")
        assert out.status == "converged_2s"
        assert len(out.phases) == 1
        assert out.accounted_privacy.rho <= 0.75 * rho + 1e-12

    def test_forced_fallback_warm_starts_phase_two(self):
        ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 4)
        consts = AlgorithmConstants(eps_g=0.06, eps_h=0.245)
        rho = 0.5
        out = run_two_phase(model, ds, np.zeros(4), consts, ShortStepBudget(rho),
                            SeededRng(1), variant="short", noise_mode="zero",
                            phase1_t_policy=lambda t: 2)
        p1, p2 = out.phases
        assert p1.status == "budget_exhausted" and p1.iterations == 2
        assert p2.status == "converged_2s"
        assert np.array_equal(p2.trace[0].loss_before, p1.final_loss)
        assert out.accounted_privacy.rho <= rho + 1e-12
        assert out.iterations == p1.iterations + p2.iterations

    def test_default_phase_one_policy(self):
        assert default_phase1_policy(100) == 10
        assert default_phase1_policy(1) == 1
        for t in (3, 10, 1000):
            assert 1 <= default_phase1_policy(t) < t

    def test_line_search_two_phase(self):
        ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 4)
        consts = AlgorithmConstants(eps_g=0.06, eps_h=0.245)
        out = run_two_phase(model, ds, np.zeros(4), consts, LineSearchBudget(0.5),
                            SeededRng(5), variant="line_search", noise_mode="zero")
        assert out.status == "converged_2s"
        assert out.accounted_privacy.rho <= 0.5 + 1e-12


class TestMarginReuse:
    """A run computes the margins y * (X @ w) once per (iterate, batch)."""

    CONSTS = AlgorithmConstants(eps_g=0.06, eps_h=0.245)

    @pytest.fixture
    def products(self, monkeypatch):
        """(iterate, batch) keys of every margin product, plus the call count."""
        log = {"keys": [], "calls": 0}
        served = []
        original = objective.MarginMemo.margins

        def margins(memo, w, indices):
            entry = original(memo, w, indices)
            log["calls"] += 1
            if not any(entry[2] is s for s in served):  # a miss returns new margins
                served.append(entry[2])
                log["keys"].append((w.tobytes(), None if indices is None
                                    else np.asarray(indices).tobytes()))
            return entry

        monkeypatch.setattr(objective.MarginMemo, "margins", margins)
        return log

    @staticmethod
    def _instance():
        ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
        return ds, builtin_nonconvex_logistic(1e-3, 1.0, 4)

    def test_short_step_one_product_per_iterate(self, products):
        ds, model = self._instance()
        out = run_short_step(model, ds, np.zeros(4), self.CONSTS, ShortStepBudget(0.5),
                             SeededRng(2))
        steps = out.iterations - out.converged
        assert len(products["keys"]) == 1 + steps
        # f0, each gradient and loss after a step, the Hessian, the final loss
        assert products["calls"] == 2 + 2 * steps + out.converged + out.hess_evals

    @pytest.mark.parametrize("run", ["line_search", "minibatch", "lanczos", "two_phase"])
    def test_no_product_repeated(self, products, run):
        ds, model = self._instance()
        w0, rng = np.zeros(4), SeededRng(4)
        if run == "line_search":
            out = run_line_search(model, ds, w0, self.CONSTS, LineSearchBudget(0.5), rng)
            assert sum(r.probes for r in out.trace) > 0
        elif run == "minibatch":
            out = run_minibatch(model, ds, w0, self.CONSTS, ShortStepBudget(0.5),
                                BatchSelector(500), rng)
        elif run == "lanczos":
            out = run_short_step(model, ds, w0, self.CONSTS, ShortStepBudget(0.5), rng,
                                 lanczos=True)
        else:
            out = run_two_phase(model, ds, w0, self.CONSTS, LineSearchBudget(0.5), rng,
                                variant="line_search", phase1_t_policy=lambda t: 2)
        assert out.status != "failed_termination"
        keys = products["keys"]
        # both phases of a two-phase run share one memo, so phase 2's start
        # is served from phase 1's final loss
        assert run != "two_phase" or len(out.phases) == 2
        assert len(keys) == len(set(keys))
        assert products["calls"] > len(keys)


class TestVariantTable:
    def test_selector_needed_by_exactly_the_minibatch_variants(self):
        ds, model = identical_sample_quartic()
        for name, variant in VARIANTS.items():
            budget = (LineSearchBudget(0.5) if variant.loop == "line_search"
                      else ShortStepBudget(0.5))
            selector = None if variant.minibatch else BatchSelector(4)
            with pytest.raises(ValueError, match="selector"):
                run_variant(name, model, ds, np.zeros(2), TOLS, budget, SeededRng(0),
                            selector=selector, noise_mode="zero")

    @pytest.mark.parametrize("budget", [
        ShortStepBudget(0.3, c_f=0.2), LineSearchBudget(0.3, 0.2),
        SubsampledDpBudget(0.8, 1e-5), RdpTuneBudget(1.0, 1e-5, sigma_grid=(10.0, 1e4))])
    def test_pre_committed_sigma_f_is_the_plans(self, budget):
        # sigma_f is fixed before T; the plan calibrated at T must keep it
        assert budget.plan(10, 0.01).sigma_f == budget.sigma_f
        half = budget.scaled(0.5)
        assert type(half) is type(budget) and half.accounting == budget.accounting
        assert half.plan(10, 0.01).sigma_f == half.sigma_f

    def test_noise_plan_is_its_own_plan_and_cannot_be_split(self):
        plan = NoisePlan(10.0, 20.0, 20.0, None, 0.25)
        assert plan.plan(7, 0.25) is plan
        with pytest.raises(ValueError, match="subsample_fraction"):
            plan.plan(7, 0.5)
        with pytest.raises(TypeError, match="budget policy"):
            plan.scaled(0.5)
