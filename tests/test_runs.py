"""Run-level tests: convergence, descent guarantees, ledgers, determinism."""

import inspect
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dpopt import objective
from dpopt.optimizer import runs
from dpopt.spectral import EigenResult
from dpopt.accountant import (SIGMA_MIN, ApproxDp, NoisePlan, RdpCurve, Release, ZCdp,
                              account_run, combined_sigma, run_log, tally)
from dpopt.mechanisms import SeededRng, WignerOperator
from dpopt.objective import (BatchSelector, Dataset, builtin_nonconvex_logistic,
                             builtin_quartic_saddle, erm_gradient, erm_hessian,
                             sensitivities)
from dpopt.harness import synth_dataset
from dpopt.optimizer import (VARIANTS, AlgorithmConstants, Budget, default_phase1_policy,
                             min_dec_line_search, min_dec_short, roots_t1_t2, run_minibatch,
                             run_variant)
from noise_doubles import (always_failing_line_search, bounded_noise, capped_t,
                           recorded_scales, zero_noise)

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
    @pytest.fixture(autouse=True)
    def _no_noise(self):
        with zero_noise():
            yield

    def test_short_step_reaches_exact_second_order_point(self):
        ds, model = identical_sample_quartic()
        out = run_variant("opt", model, ds, np.array([2.0, 0.0]), TOLS, Budget(ZCdp(0.5)),
                          SeededRng(0))
        assert out.status == "converged_2s"
        g = erm_gradient(model, ds, out.w_final)
        lam_min = np.linalg.eigvalsh(erm_hessian(model, ds, out.w_final))[0]
        assert np.linalg.norm(g) <= TOLS.eps_g
        assert lam_min >= -TOLS.eps_h

    def test_line_search_reaches_exact_second_order_point(self):
        ds, model = identical_sample_quartic()
        out = run_variant("opt_ls", model, ds, np.array([2.0, 0.0]), TOLS, Budget(ZCdp(0.5)),
                          SeededRng(0))
        assert out.status == "converged_2s"
        g = erm_gradient(model, ds, out.w_final)
        lam_min = np.linalg.eigvalsh(erm_hessian(model, ds, out.w_final))[0]
        assert np.linalg.norm(g) <= TOLS.eps_g
        assert lam_min >= -TOLS.eps_h

    def test_saddle_start_takes_curvature_step_first(self):
        ds, model = identical_sample_quartic()
        out = run_variant("opt", model, ds, np.zeros(2), TOLS, Budget(ZCdp(0.5)), SeededRng(1))
        first = out.trace[0]
        assert first.kind == "negative_curvature"
        assert first.grad_norm_noisy == 0.0
        assert first.lambda_noisy == pytest.approx(-1.0, abs=1e-12)
        assert out.status == "converged_2s"

    def test_line_search_first_step_outdecreases_short_step(self):
        # with b_g > 1 the search probes longer steps than 1/G from the same point
        ds, model = identical_sample_quartic()
        w0 = np.array([2.0, 0.0])
        short = run_variant("opt", model, ds, w0, TOLS, Budget(ZCdp(0.5)), SeededRng(0))
        ls = run_variant("opt_ls", model, ds, w0, TOLS, Budget(ZCdp(0.5)), SeededRng(0))
        dec_short = short.trace[0].loss_before - short.trace[0].loss_after
        dec_ls = ls.trace[0].loss_before - ls.trace[0].loss_after
        assert dec_ls >= dec_short

    def test_line_search_accepted_steps_satisfy_sufficient_decrease(self):
        ds, model = identical_sample_quartic()
        out = run_variant("opt_ls", model, ds, np.array([2.0, 0.0]), TOLS, Budget(ZCdp(0.5)),
                          SeededRng(0))
        for rec in out.trace:
            if rec.kind == "gradient":
                # SD1 with the noiseless gradient: decrease >= c_g gamma ||g||^2
                dec = rec.loss_before - rec.loss_after
                assert dec >= TOLS.c_g * rec.step_size * rec.grad_norm_noisy ** 2 - 1e-12

    def test_line_search_curvature_step_in_window(self):
        ds, model = identical_sample_quartic()
        t1, t2 = roots_t1_t2(TOLS.c, TOLS.c2, TOLS.c_h)
        out = run_variant("opt_ls", model, ds, np.zeros(2), TOLS, Budget(ZCdp(0.5)),
                          SeededRng(1))
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
                out = run_variant("opt", model, ds, np.zeros(6), BOUNDED, plan, SeededRng(seed))
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
                out = run_variant("opt_ls", model, ds, np.zeros(6), BOUNDED, plan, SeededRng(seed))
            assert out.status == "converged_2s"
            for rec in out.trace:
                if rec.kind != "terminate":
                    assert rec.loss_before - rec.loss_after >= min_dec - 1e-9

    def test_output_quality_under_bounded_noise(self):
        # exact derivatives at the terminal point satisfy the relaxed tolerances
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        with bounded_noise(model, BOUNDED):
            out = run_variant("opt", model, ds, np.zeros(6), BOUNDED, plan, SeededRng(0))
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
            out = run_variant("opt_ls", model, ds, np.zeros(6), BOUNDED, plan, SeededRng(4))
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
            out = run_variant("opt", model, ds, np.zeros(6), BOUNDED, plan, SeededRng(0))
        recomputed = account_run(run_log(out.plan, out.grad_steps, out.hess_evals), ZCdp)
        assert out.accounted_privacy.rho == recomputed.rho
        # each record's log costs f0's charge plus a gradient's per iteration
        # through it, and a Wigner draw's per Hessian
        spent = 0.5 / out.plan.sigma_f ** 2
        for rec in out.trace:
            spent += 0.5 / out.plan.sigma_g ** 2
            if rec.lambda_noisy is not None:
                spent += 0.5 / out.plan.sigma_h ** 2
            assert account_run(rec.releases, ZCdp).rho == pytest.approx(spent, rel=1e-12)
        assert out.trace[-1].releases == out.releases

    def test_ledger_never_exceeds_planned_budget(self):
        ds, model = identical_sample_quartic()
        rho = 0.3
        with zero_noise():
            out = run_variant("opt", model, ds, np.array([2.0, 0.0]), TOLS, Budget(ZCdp(rho)),
                              SeededRng(2))
            out_ls = run_variant("opt_ls", model, ds, np.array([2.0, 0.0]), TOLS,
                                 Budget(ZCdp(rho)), SeededRng(2))
        assert out.accounted_privacy.rho <= rho + 1e-12
        assert out_ls.accounted_privacy.rho <= rho + 1e-12
        recomputed = account_run(run_log(out_ls.plan, out_ls.grad_steps, out_ls.hess_evals,
                                         out_ls.iterations), ZCdp)
        assert out_ls.accounted_privacy.rho == recomputed.rho

    @pytest.fixture
    def passes(self, monkeypatch):
        """The data passes a run makes: one name per evaluator call."""
        calls = []
        for evaluator in ("erm_value", "erm_gradient", "erm_hessian", "erm_hvp"):
            monkeypatch.setattr(runs, evaluator,
                                lambda *a, _name=evaluator, **kw: calls.append(_name))
        return calls

    @pytest.mark.parametrize("name", ["opt_b", "2opt_b"])
    def test_zcdp_target_on_a_batch_refused_before_any_pass(self, name, passes):
        # zCDP has no amplification by subsampling: a zCDP budget at m < n is
        # refused, not charged in another notion than the one it claims
        ds, model = _logistic_instance()
        with pytest.raises(ValueError, match="zCDP target has no amplification"):
            run_variant(name, model, ds, np.zeros(4), LOGISTIC, Budget(ZCdp(0.5)),
                        SeededRng(4), selector=BatchSelector(500))
        assert passes == []

    @pytest.mark.parametrize("name", ["opt", "opt_ls", "2opt", "2opt_ls"])
    @pytest.mark.parametrize("composition", ["rdp", "advanced"])
    def test_approx_dp_target_off_a_batch_refused_before_any_pass(self, name, composition,
                                                                   passes):
        # an (epsilon, delta) plan prices no sweep: a variant that draws no
        # mini-batches takes a zCDP target, so no line search goes uncharged
        ds, model = _logistic_instance()
        with pytest.raises(ValueError, match="mini-batch variants") as err:
            run_variant(name, model, ds, np.zeros(4), LOGISTIC,
                        Budget(ApproxDp(1.0, 1e-5), composition=composition), SeededRng(4))
        assert type(err.value) is ValueError
        assert passes == []

    def test_plan_must_keep_the_budgets_sigma_f(self):
        # the initial loss is noised at the budget's sigma_f before the plan
        # exists; a plan charging another sigma_f is refused
        class Drifting(Budget):
            def plan(self, t_budget, s, sweeps):
                return replace(super().plan(t_budget, s, sweeps), sigma_f=2.0 * self.sigma_f)

        ds, model = identical_sample_quartic()
        with pytest.raises(ValueError, match="sigma_f"):
            run_variant("opt", model, ds, np.array([2.0, 0.0]), TOLS, Drifting(ZCdp(0.5)),
                        SeededRng(0))

    def test_iteration_cap_and_hessian_placement(self):
        ds, model = identical_sample_quartic()
        with zero_noise():
            out = run_variant("opt", model, ds, np.array([2.0, 0.0]), TOLS, Budget(ZCdp(0.5)),
                              SeededRng(0))
        assert out.iterations <= out.t_budget
        for rec in out.trace:
            if rec.lambda_noisy is not None:
                assert rec.grad_norm_noisy <= TOLS.eps_g  # Hessian drawn only here
            else:
                assert rec.grad_norm_noisy > TOLS.eps_g


def _logistic_instance():
    ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
    return ds, builtin_nonconvex_logistic(1e-3, ds.feature_norm_bound, 4)


LOGISTIC = AlgorithmConstants(eps_g=0.06, eps_h=0.245)


def _logistic_run(name, budget, seed, **kw):
    ds, model = _logistic_instance()
    return run_variant(name, model, ds, np.zeros(4), LOGISTIC, budget, SeededRng(seed), **kw)


def _fallback_run(name, budget, seed, **kw):
    """A two-phase run whose phase 1 stops after two iterations."""
    with capped_t(lambda t_full: 2, name):
        return _logistic_run(name, budget, seed, **kw)


WEIGHT_BOX = AlgorithmConstants(eps_g=0.05, eps_h=0.3)


def _weight_box_run():
    ds, model = planted_instance()
    return run_variant("opt", model, ds, np.zeros(6), WEIGHT_BOX, Budget(ZCdp(2.0)),
                       SeededRng(4))


# a target with a plan on a batch of RDP_BATCH of the 2000 rows
LOOSE_RDP = Budget(ApproxDp(4.0, 1e-5))
RDP_BATCH = 100
SUBSAMPLED = Budget(ApproxDp(0.8, 1e-5), composition="advanced")


DRAWING_RUNS = {
    "opt": lambda: _logistic_run("opt", Budget(ZCdp(0.5)), 0),
    "opt_lanczos": lambda: _logistic_run("opt", Budget(ZCdp(0.5)), 2, lanczos=True),
    "opt_ls": lambda: _logistic_run("opt_ls", Budget(ZCdp(0.5)), 1),
    "opt_b_rdp": lambda: _logistic_run("opt_b", LOOSE_RDP, 4,
                                       selector=BatchSelector(RDP_BATCH)),
    "opt_b_noise_plan": lambda: _logistic_run(
        "opt_b", NoisePlan(10.0, 20.0, 20.0, None, 0.25), 5, selector=BatchSelector(500)),
    "opt_b_approx_dp": lambda: _logistic_run("opt_b", SUBSAMPLED, 2,
                                             selector=BatchSelector(500)),
    "2opt": lambda: _fallback_run("2opt", Budget(ZCdp(0.5)), 1),
    "2opt_ls": lambda: _fallback_run("2opt_ls", Budget(ZCdp(0.5)), 3, lanczos=True),
    "2opt_b": lambda: _fallback_run("2opt_b", Budget(ApproxDp(8.0, 1e-5)), 10,
                                    selector=BatchSelector(RDP_BATCH)),
    "2opt_b_approx_dp": lambda: _fallback_run(
        "2opt_b", Budget(ApproxDp(0.8, 1e-5), composition="advanced"), 5,
        selector=BatchSelector(500)),
    "weight_box_abort": _weight_box_run,
}


def _drawing_setting(name):
    """(dataset, model, constants, batch size or None) of a DRAWING_RUNS case."""
    if name == "weight_box_abort":
        return (*planted_instance(), WEIGHT_BOX, None)
    batch = RDP_BATCH if name in ("opt_b_rdp", "2opt_b") else 500
    return (*_logistic_instance(), LOGISTIC, batch if "_b" in name else None)


class TestNoiseScales:
    """Every draw is at its sensitivity times the plan's multiplier, checked
    without the golden traces: the gradients and Wigner matrices at the
    batch size, the initial loss at n, and each sweep at 2 gamma_init B_g
    ||u|| / n, recomputed from its step, with the plan's lambda."""

    @pytest.mark.parametrize("name", sorted(DRAWING_RUNS))
    def test_every_draw_is_at_its_planned_scale(self, name):
        with recorded_scales() as drawn_by_phase:
            out = DRAWING_RUNS[name]()
        ds, model, constants, m = _drawing_setting(name)
        n, d = ds.n, ds.d
        full, batch = sensitivities(model, n, d), sensitivities(model, m or n, d)
        _, t2 = roots_t1_t2(constants.c, constants.c2, constants.c_h)
        outcomes = out.phases or (out,)
        assert len(drawn_by_phase) == len(outcomes)
        for phase, drawn in zip(outcomes, drawn_by_phase):
            plan = phase.plan
            assert drawn["f0"] == full.delta_f * plan.sigma_f
            assert drawn["gradient"]
            assert set(drawn["gradient"]) == {batch.delta_g * plan.sigma_g}
            assert len(drawn["wigner"]) >= phase.hess_evals
            assert set(drawn["wigner"]) <= {batch.delta_h * plan.sigma_h}
            steps = [r for r in phase.trace if r.kind != "terminate"]
            if "ls" not in name:
                assert drawn["sweep"] == []
                continue
            assert steps and len(drawn["sweep"]) >= len(steps)
            for rec, (delta_q, gamma_init, lam) in zip(steps, drawn["sweep"]):
                if rec.kind == "gradient":
                    gamma_bar = 2.0 * (1.0 - constants.c1 - constants.c_g) / model.G
                    want_init, u_norm = constants.b_g * gamma_bar, rec.grad_norm_noisy
                else:
                    gamma_bar = t2 * abs(rec.lambda_noisy) / model.M
                    want_init, u_norm = constants.b_h * gamma_bar, 1.0
                assert gamma_init == pytest.approx(want_init, rel=1e-12)
                assert delta_q == pytest.approx(2.0 * gamma_init * model.B_g * u_norm / n,
                                                rel=1e-12)
                assert lam == plan.lambda_svt


def assert_same_ledger(got, want):
    assert type(got) is type(want)
    if type(want) is RdpCurve:
        assert np.array_equal(got.orders, want.orders)
        assert np.array_equal(got.epsilons, want.epsilons)
    else:
        assert got == want


def dp_step(budget, plan, t_budget):
    """The one (eps0, delta0) step an (eps, delta) plan logs per iteration."""
    return budget.step(t_budget, plan.subsample_fraction)


def drawn_log(budget, phase, grads, wigners):
    """The log of a phase's counted draws: a gradient per iteration begun,
    a Wigner matrix per Hessian, and in a line search (whose plan alone
    sets lambda_svt among these runs) a sweep per gradient;
    in (eps, delta), one plan step per iteration."""
    if type(phase.accounted_privacy) is ApproxDp:
        return [Release("dp", budget.f0_dp),
                Release("dp", dp_step(budget, phase.plan, phase.t_budget),
                        phase.plan.subsample_fraction, grads)]
    sweeps = grads if phase.plan.lambda_svt is not None else 0
    return run_log(phase.plan, grads - wigners, wigners, sweeps)


def drawn_since(later, earlier) -> list[Release]:
    """The releases of the count-form log later less those of earlier: what
    a run drew between the two; a release of earlier missing from later
    leaves a negative count, which tally refuses."""
    counts = Counter({r[:3]: r.count for r in later})
    counts.subtract({r[:3]: r.count for r in earlier})
    return tally(Release(*key, count) for key, count in counts.items())


class TestDrawsAndCharges:
    """A run's releases are the log of the noise it drew, in count form, and
    its ledger their conversion: the gradient draws counted at
    runs.gaussian_vector and the Wigner draws counted at WignerOperator; a
    two-phase run's are both phases' logs joined."""

    @pytest.fixture
    def draws(self, monkeypatch):
        phases = []  # per phase: [budget, gradient draws, Wigner draws]
        core, draw, init = runs._run_core, runs.gaussian_vector, WignerOperator.__init__

        def counted_core(loop, model, dataset, w0, constants, budget, *args, **kw):
            phases.append([budget, 0, 0])
            return core(loop, model, dataset, w0, constants, budget, *args, **kw)

        def counted_draw(*args, **kw):
            phases[-1][1] += 1
            return draw(*args, **kw)

        def counted_init(op, *args, **kw):
            phases[-1][2] += 1
            init(op, *args, **kw)

        monkeypatch.setattr(runs, "_run_core", counted_core)
        monkeypatch.setattr(runs, "gaussian_vector", counted_draw)
        monkeypatch.setattr(WignerOperator, "__init__", counted_init)
        return phases

    @pytest.mark.parametrize("name", sorted(DRAWING_RUNS))
    def test_ledger_charges_exactly_the_draws(self, draws, name):
        out = DRAWING_RUNS[name]()
        outcomes = out.phases or (out,)
        assert len(draws) == len(outcomes)
        logs = []
        for phase, (budget, grads, wigners) in zip(outcomes, draws):
            assert wigners == phase.hess_evals
            if phase.status == "failed_termination":
                # the aborted iteration drew its gradient and is charged
                assert grads == phase.iterations + 1
            else:
                assert grads == phase.iterations
            log = drawn_log(budget, phase, grads, wigners)
            assert list(phase.releases) == tally(log)
            notion = type(phase.accounted_privacy)
            assert_same_ledger(phase.accounted_privacy, account_run(log, notion))
            logs += log
        assert list(out.releases) == tally(logs)
        assert_same_ledger(out.accounted_privacy,
                           account_run(logs, type(out.accounted_privacy)))

    @pytest.mark.parametrize("name", sorted(DRAWING_RUNS))
    def test_spend_of_each_prefix_of_the_log(self, draws, name):
        # prefix j is the log of the initial loss and the first j iterations:
        # f0's alone, then each record's
        out = DRAWING_RUNS[name]()
        for phase, (budget, _, _) in zip(out.phases or (out,), draws):
            notion = type(phase.accounted_privacy)
            spends = [account_run(drawn_log(budget, phase, 0, 0)[:1], notion)] + [
                account_run(r.releases, notion) for r in phase.trace]
            if phase.status != "failed_termination":
                assert_same_ledger(spends[-1], phase.accounted_privacy)
            if notion is ZCdp:
                # the charge of each iteration's gradient, Wigner draw and sweep
                g, h = 0.5 / phase.plan.sigma_g ** 2, 0.5 / phase.plan.sigma_h ** 2
                sweep = (0.5 / phase.plan.lambda_svt ** 2
                         if phase.plan.lambda_svt is not None else 0.0)
                increments = [g + sweep + h * (r.lambda_noisy is not None) for r in phase.trace]
                f0 = 0.5 / phase.plan.sigma_f ** 2
                for j, spend in enumerate(spends):
                    assert spend.rho == pytest.approx(f0 + math.fsum(increments[:j]), rel=1e-12)
            elif notion is RdpCurve:
                for before, after in zip(spends, spends[1:]):
                    assert np.all(after.epsilons >= before.epsilons)
                    assert after.spent(1e-5) >= before.spent(1e-5)
            else:
                eps0, delta0, rest = dp_step(budget, phase.plan, phase.t_budget)
                s = phase.plan.subsample_fraction
                eps_f, delta_f = budget.f0_dp
                assert spends[0] == ApproxDp(eps_f, delta_f)
                for j, spend in enumerate(spends[1:], start=1):
                    assert spend.epsilon == pytest.approx(
                        eps_f + 8 * s * eps0 * math.sqrt(2 * j * math.log(2 / rest)),
                        rel=1e-12)
                    assert spend.delta == pytest.approx(
                        delta_f + 2 * s * delta0 * j + rest / 2, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(DRAWING_RUNS))
    def test_each_record_keeps_the_log_so_far(self, draws, name):
        # record k's releases are f0's and those of iterations 0..k, in count
        # form: one iteration's draws past record k - 1's; a finished run's
        # last record is its releases, an aborted run's releases add the
        # aborted iteration's draws; and the spend never falls
        out = DRAWING_RUNS[name]()

        def one_iteration(budget, phase, curvature: bool) -> list[Release]:
            return tally(drawn_log(budget, phase, 1, int(curvature))[1:])

        for phase, (budget, _, _) in zip(out.phases or (out,), draws):
            logs = [tuple(tally(drawn_log(budget, phase, 0, 0)[:1]))]
            for rec in phase.trace:
                assert list(rec.releases) == tally(rec.releases)
                assert drawn_since(rec.releases, logs[-1]) == one_iteration(
                    budget, phase, rec.lambda_noisy is not None)
                logs.append(rec.releases)
            if phase.status == "failed_termination":
                assert drawn_since(phase.releases, logs[-1]) in (
                    one_iteration(budget, phase, False), one_iteration(budget, phase, True))
            else:
                assert logs[-1] == phase.releases
        if out.phases:
            p1 = out.phases[0]
            assert out.trace[:p1.iterations] == p1.trace
            for rec, own in zip(out.trace[p1.iterations:], out.phases[-1].trace):
                assert rec.releases == tuple(tally(p1.releases + own.releases))
        if out.status != "failed_termination":
            assert out.trace[-1].releases == out.releases
        notion = type(out.accounted_privacy)
        spends = [account_run(r.releases, notion).spent(1e-5) for r in out.trace]
        spends.append(out.accounted_privacy.spent(1e-5))
        assert all(a <= b for a, b in zip(spends, spends[1:]))

    def test_runs_cover_every_notion_and_a_weight_box_abort(self):
        outs = {name: case() for name, case in DRAWING_RUNS.items()}
        phases = [p for out in outs.values() for p in out.phases or (out,)]
        assert {type(p.accounted_privacy) for p in phases} == {ZCdp, RdpCurve, ApproxDp}
        assert any(r.mechanism == "svt" for p in phases for r in p.releases)
        assert any(len(out.phases) == 2 for out in outs.values())
        abort = outs["weight_box_abort"]
        assert abort.status == "failed_termination"
        assert any("weight box" in w for w in abort.warnings)


class TestDeterminism:
    def test_identical_seeds_produce_identical_traces(self):
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        a = run_variant("opt", model, ds, np.zeros(6), BOUNDED, plan, SeededRng(11))
        b = run_variant("opt", model, ds, np.zeros(6), BOUNDED, plan, SeededRng(11))
        assert a.trace == b.trace
        assert np.array_equal(a.w_final, b.w_final)
        assert a.z_draw == b.z_draw

    def test_different_seeds_differ(self):
        ds, model = planted_instance()
        plan = bounded_plan(model, ds, BOUNDED)
        a = run_variant("opt", model, ds, np.zeros(6), BOUNDED, plan, SeededRng(11))
        b = run_variant("opt", model, ds, np.zeros(6), BOUNDED, plan, SeededRng(12))
        assert a.z_draw != b.z_draw


class TestLanczosPath:
    def test_zero_noise_lanczos_run_converges_with_exact_checks(self):
        ds, model = planted_instance()
        with zero_noise():
            out = run_variant("opt", model, ds, np.zeros(6), TOLS, Budget(ZCdp(0.5)),
                              SeededRng(0), lanczos=True)
        assert out.status == "converged_2s"
        g = erm_gradient(model, ds, out.w_final)
        lam_min = np.linalg.eigvalsh(erm_hessian(model, ds, out.w_final))[0]
        assert np.linalg.norm(g) <= TOLS.eps_g
        assert lam_min >= -TOLS.eps_h

    def test_dense_path_above_the_cap_refused_before_any_pass(self, monkeypatch):
        calls = []
        for name in ("erm_value", "erm_gradient", "erm_hessian"):
            def counting(*args, _name=name, _original=getattr(runs, name), **kw):
                calls.append(_name)
                return _original(*args, **kw)
            monkeypatch.setattr(runs, name, counting)
        d = objective.DENSE_HESSIAN_CAP + 1
        ds = synth_dataset("planted_saddle", 4, d, seed=0)
        model = builtin_nonconvex_logistic(1e-3, ds.feature_norm_bound, d)
        with pytest.raises(ValueError, match="lanczos=True"):
            run_variant("opt", model, ds, np.zeros(d), TOLS, Budget(ZCdp(0.5)), SeededRng(0))
        assert calls == []

    def test_missing_lambda_rejected_for_line_search(self):
        ds, model = identical_sample_quartic()
        plan = NoisePlan(10.0, 10.0, 10.0)  # no lambda_svt
        with pytest.raises(ValueError, match="lambda_svt"):
            run_variant("opt_ls", model, ds, np.array([2.0, 0.0]), TOLS, plan, SeededRng(0))


class TestWeightBox:
    def test_violation_aborts_with_failed_termination(self):
        ds = synth_dataset("logistic_separable", 200, 3, seed=1)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 3, weight_box=0.4)
        with zero_noise():
            out = run_variant("opt", model, ds, np.zeros(3),
                              AlgorithmConstants(eps_g=1e-4, eps_h=0.2), Budget(ZCdp(0.5)),
                              SeededRng(0))
        assert out.status == "failed_termination"
        assert any("weight box" in w for w in out.warnings)
        # the returned iterate is the last one inside the box, with a real loss
        assert np.max(np.abs(out.w_final)) <= 0.4 * (1 + 1e-12)
        assert math.isfinite(out.final_loss)

    @pytest.mark.parametrize("top", [0.5, math.inf, math.nan])
    def test_start_outside_the_box_refused_at_the_initial_loss(self, top):
        # a NaN entry of w0 is outside the box as an infinite one is, and
        # ends there, not in the iteration budget its loss would make NaN
        ds = synth_dataset("logistic_separable", 200, 3, seed=1)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 3, weight_box=0.4)
        with pytest.raises(objective.WeightBoxError):
            run_variant("opt", model, ds, np.array([top, 0.0, 0.0]),
                        AlgorithmConstants(eps_g=1e-4, eps_h=0.2), Budget(ZCdp(0.5)),
                        SeededRng(0))


class TestNonFiniteRelease:
    """A NaN noisy gradient norm or noisy eigenvalue ends the run as
    failed_termination and charges the iteration it was released in."""

    @staticmethod
    def _with_link(model, **parts):
        return replace(model, link=replace(model.link, **parts))

    def test_nan_gradient_norm_fails_the_run(self):
        ds = synth_dataset("logistic_separable", 200, 3, seed=1)
        base = builtin_nonconvex_logistic(1e-3, 1.0, 3)

        def nan_deriv(t, value, deriv):
            base.link.value_and_deriv(t, value, deriv)
            deriv.fill(np.nan)

        model = self._with_link(base, value_and_deriv=nan_deriv)
        out = run_variant("opt", model, ds, np.zeros(3), TOLS, Budget(ZCdp(0.5)), SeededRng(0))
        assert out.status == "failed_termination"
        assert any("non-finite noisy gradient norm" in w for w in out.warnings)
        assert out.trace == ()
        assert np.array_equal(out.w_final, np.zeros(3))
        assert math.isfinite(out.final_loss)
        assert out.accounted_privacy == account_run(run_log(out.plan, 1, 0), ZCdp)

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
        with zero_noise():
            out = run_variant("opt", model, ds, np.zeros(3), TOLS, Budget(ZCdp(0.5)),
                              SeededRng(0), lanczos=path == "lanczos")
        assert out.status == "failed_termination"
        assert any(f"non-finite {what}" in w for w in out.warnings)
        assert out.trace == ()
        assert out.accounted_privacy == account_run(run_log(out.plan, 0, 1), ZCdp)


class TestTwoPhase:
    def test_phase_one_success_short_circuits(self):
        ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 4)
        consts = AlgorithmConstants(eps_g=0.06, eps_h=0.245)
        rho = 0.5
        with zero_noise():
            out = run_variant("2opt", model, ds, np.zeros(4), consts, Budget(ZCdp(rho)),
                              SeededRng(0))
        assert out.status == "converged_2s"
        assert len(out.phases) == 1
        assert out.accounted_privacy.rho <= 0.75 * rho + 1e-12

    def test_forced_fallback_warm_starts_phase_two(self):
        ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 4)
        consts = AlgorithmConstants(eps_g=0.06, eps_h=0.245)
        rho = 0.5
        with zero_noise(), capped_t(lambda t: 2, "2opt"):
            out = run_variant("2opt", model, ds, np.zeros(4), consts, Budget(ZCdp(rho)),
                              SeededRng(1))
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
        with zero_noise():
            out = run_variant("2opt_ls", model, ds, np.zeros(4), consts, Budget(ZCdp(0.5)),
                              SeededRng(5))
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
        out = run_variant("opt", model, ds, np.zeros(4), self.CONSTS, Budget(ZCdp(0.5)),
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
            out = run_variant("opt_ls", model, ds, w0, self.CONSTS, Budget(ZCdp(0.5)), rng)
            assert sum(r.probes for r in out.trace) > 0
        elif run == "minibatch":
            out = run_variant("opt_b", model, ds, w0, self.CONSTS, LOOSE_RDP, rng,
                              selector=BatchSelector(RDP_BATCH))
        elif run == "lanczos":
            out = run_variant("opt", model, ds, w0, self.CONSTS, Budget(ZCdp(0.5)), rng,
                              lanczos=True)
        else:
            with capped_t(lambda t: 2, "2opt_ls"):
                out = run_variant("2opt_ls", model, ds, w0, self.CONSTS, Budget(ZCdp(0.5)), rng)
        assert out.status != "failed_termination"
        keys = products["keys"]
        # both phases of a two-phase run share one memo, so phase 2's start
        # is served from phase 1's final loss
        assert run != "two_phase" or len(out.phases) == 2
        assert len(keys) == len(set(keys))
        assert products["calls"] > len(keys)


class TestTracerContract:
    """perfbench/tracer.py wraps the four evaluators and dp_line_search where
    runs looks them up, binding each call's arguments to count rows and
    probes, and wraps WignerOperator's __init__ and matvec on the class."""

    NAMES = ("erm_value", "erm_gradient", "erm_hessian", "erm_hvp")

    @pytest.fixture(autouse=True)
    def _no_noise(self):
        with zero_noise():
            yield

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {name: 0 for name in self.NAMES}

        def wrap(name, fn):
            signature = inspect.signature(fn)

            def traced(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                assert isinstance(bound.arguments["dataset"], Dataset)
                assert "indices" in bound.arguments
                calls[name] += 1
                return fn(*args, **kwargs)
            return traced

        for name in self.NAMES:
            monkeypatch.setattr(runs, name, wrap(name, getattr(runs, name)))
        return calls

    def test_dense_line_search_calls_each_dense_evaluator(self, calls):
        ds, model = identical_sample_quartic()
        out = run_variant("opt_ls", model, ds, np.zeros(2), TOLS, Budget(ZCdp(0.5)),
                          SeededRng(1))
        assert out.hess_evals > 0
        assert [calls[name] > 0 for name in self.NAMES] == [True, True, True, False]

    def test_lanczos_two_phase_calls_the_hvp(self, calls):
        ds, model = identical_sample_quartic()
        out = run_variant("2opt", model, ds, np.zeros(2), TOLS, Budget(ZCdp(0.5)), SeededRng(1),
                          lanczos=True)
        assert out.hess_evals > 0
        assert [calls[name] > 0 for name in self.NAMES] == [True, True, False, True]

    @pytest.fixture
    def noise_calls(self, monkeypatch):
        calls = {"dp_line_search": 0, "wigner_init": 0, "wigner_matvec": 0}
        search, init, matvec = runs.dp_line_search, WignerOperator.__init__, WignerOperator.matvec
        signature = inspect.signature(search)

        def traced_search(*args, **kwargs):
            signature.bind(*args, **kwargs)
            result = search(*args, **kwargs)
            assert isinstance(result.probes, int) and isinstance(result.exhausted, bool)
            calls["dp_line_search"] += 1
            return result

        def traced_init(op, *args, **kwargs):
            calls["wigner_init"] += 1
            init(op, *args, **kwargs)

        def traced_matvec(op, v):
            calls["wigner_matvec"] += 1
            return matvec(op, v)

        monkeypatch.setattr(runs, "dp_line_search", traced_search)
        monkeypatch.setattr(WignerOperator, "__init__", traced_init)
        monkeypatch.setattr(WignerOperator, "matvec", traced_matvec)
        return calls

    def test_line_search_sweeps_once_per_step(self, noise_calls):
        ds, model = identical_sample_quartic()
        out = run_variant("opt_ls", model, ds, np.zeros(2), TOLS, Budget(ZCdp(0.5)),
                          SeededRng(1))
        steps = sum(1 for r in out.trace if r.kind != "terminate")
        assert out.curv_steps > 0 and out.grad_steps > 0
        assert noise_calls == {"dp_line_search": steps, "wigner_init": out.hess_evals,
                               "wigner_matvec": 0}

    def test_lanczos_multiplies_by_each_draw(self, noise_calls):
        ds, model = identical_sample_quartic()
        out = run_variant("2opt", model, ds, np.zeros(2), TOLS, Budget(ZCdp(0.5)), SeededRng(1),
                          lanczos=True)
        assert noise_calls["dp_line_search"] == 0
        assert noise_calls["wigner_init"] == out.hess_evals > 0
        assert noise_calls["wigner_matvec"] > 0


class TestVariantTable:
    def test_selector_needed_by_exactly_the_minibatch_variants(self):
        ds, model = identical_sample_quartic()
        for name, variant in VARIANTS.items():
            selector = None if variant.minibatch else BatchSelector(4)
            with pytest.raises(ValueError, match="selector"):
                run_variant(name, model, ds, np.zeros(2), TOLS, Budget(ZCdp(0.5)), SeededRng(0),
                            selector=selector)

    @pytest.mark.parametrize("budget,sweeps", [
        (Budget(ZCdp(0.3), c_f=0.2), 0), (Budget(ZCdp(0.3), 0.2), 1), (SUBSAMPLED, 0),
        (Budget(ApproxDp(1.0, 1e-5)), 0)])
    def test_pre_committed_sigma_f_is_the_plans(self, budget, sweeps):
        # sigma_f is fixed before T; the plan calibrated at T must keep it
        assert budget.plan(10, 0.01, sweeps).sigma_f == budget.sigma_f
        half = budget.scaled(0.5)
        assert half.accounting == budget.accounting
        assert half.plan(10, 0.01, sweeps).sigma_f == half.sigma_f

    def test_noise_plan_is_its_own_plan_and_cannot_be_split(self):
        plan = NoisePlan(10.0, 20.0, 20.0, None, 0.25)
        assert plan.plan(7, 0.25, 0) is plan
        with pytest.raises(ValueError, match="subsample_fraction"):
            plan.plan(7, 0.5, 0)
        ds, model = identical_sample_quartic()
        for name in ("2opt", "2opt_ls", "2opt_b"):
            selector = BatchSelector(2) if VARIANTS[name].minibatch else None
            with pytest.raises(TypeError, match=f"{name} takes a Budget$"):
                run_variant(name, model, ds, np.zeros(2), TOLS, plan, SeededRng(0),
                            selector=selector)


# a target checks its own fields when it is made (ZCdp(-1.0) and
# ApproxDp(1.0, 0.0) raise), and the Budget checks the rest
BAD_BUDGETS = {
    **{f"rho={rho}": lambda rho=rho: Budget(ZCdp(rho))
       for rho in (0.0, -1.0, math.nan, math.inf)},
    **{f"{composition}-eps={eps}": lambda c=composition, eps=eps: Budget(ApproxDp(eps, 1e-5),
                                                                          composition=c)
       for composition in ("rdp", "advanced") for eps in (0.0, -1.0, math.nan, math.inf)},
    **{f"{composition}-delta={delta}": lambda c=composition, delta=delta: Budget(
        ApproxDp(1.0, delta), composition=c)
       for composition in ("rdp", "advanced") for delta in (0.0, 1.0, math.nan)},
    **{f"{target}-c_f={c_f}": lambda target=target, c_f=c_f: Budget(
        ZCdp(0.5) if target == "zcdp" else ApproxDp(1.0, 1e-5), c_f,
        None if target == "zcdp" else target)
       for target in ("zcdp", "rdp", "advanced") for c_f in (0.0, 1.0, 1.5, -0.1, math.nan)},
    **{f"zcdp-{composition}": lambda c=composition: Budget(ZCdp(0.5), composition=c)
       for composition in ("rdp", "advanced")},
    "eps-delta-pure": lambda: Budget(ApproxDp(1.0, 1e-5), composition="pure"),
    "no-target": lambda: Budget(0.5),
    "no-target-rdp": lambda: Budget(0.5, composition="rdp"),
}


class TestBudgetChecks:
    """A budget is checked when it is made, before any data pass could run."""

    @pytest.mark.parametrize("name", sorted(BAD_BUDGETS))
    def test_bad_budget_refused_when_made(self, name):
        with pytest.raises(ValueError):
            BAD_BUDGETS[name]()

    def test_composition_with_a_zcdp_target_refused_when_made(self):
        with pytest.raises(ValueError, match="zCDP target takes no composition"):
            Budget(ZCdp(0.5), composition="advanced")

    def test_accounting_follows_the_target_and_its_composition(self):
        assert Budget(ZCdp(0.5)).accounting == "zcdp"
        assert Budget(ApproxDp(1.0, 1e-5)) == Budget(ApproxDp(1.0, 1e-5), composition="rdp")
        assert Budget(ApproxDp(1.0, 1e-5)).accounting == "rdp"
        assert SUBSAMPLED.accounting == "approx_dp"

    @pytest.mark.parametrize("budget", [Budget(ZCdp(0.5)), SUBSAMPLED,
                                        Budget(ApproxDp(1.0, 1e-5))])
    @pytest.mark.parametrize("fraction", [0.0, -0.5, math.nan, math.inf])
    def test_scaled_share_is_checked_again(self, budget, fraction):
        with pytest.raises(ValueError):
            budget.scaled(fraction)


# the budgets the one type replaced, each with the sweeps its class planned
# for: ShortStepBudget(0.5, 0.1), LineSearchBudget(0.5, 0.1),
# SubsampledDpBudget(0.8, 1e-5, 0.1) and RdpTuneBudget(4.0, 1e-5, 0.1)
PINNED_BUDGETS = {"short": (Budget(ZCdp(0.5), 0.1), 0),
                  "line_search": (Budget(ZCdp(0.5), 0.1), 1),
                  "advanced": (Budget(ApproxDp(0.8, 1e-5), 0.1, "advanced"), 0),
                  "rdp": (Budget(ApproxDp(4.0, 1e-5), 0.1), 0)}
# (budget, T, s) -> float.hex of the plan's sigma_f, sigma_g, sigma_h and
# lambda_svt, as the old classes planned them
PINNED_PLANS = {
    ("short", 1, 0.1): ("0x1.94c583ada5b53p+1", "0x1.7d9f4cf754635p+0",
                        "0x1.7d9f4cf754635p+0", None),
    ("short", 1, 0.05): ("0x1.94c583ada5b53p+1", "0x1.7d9f4cf754635p+0",
                         "0x1.7d9f4cf754635p+0", None),
    ("short", 40, 0.1): ("0x1.94c583ada5b53p+1", "0x1.2db2eaabf5c80p+3",
                         "0x1.2db2eaabf5c80p+3", None),
    ("short", 40, 0.05): ("0x1.94c583ada5b53p+1", "0x1.2db2eaabf5c80p+3",
                          "0x1.2db2eaabf5c80p+3", None),
    ("line_search", 1, 0.1): ("0x1.94c583ada5b53p+1", "0x1.d363d1848dcbep+0",
                              "0x1.d363d1848dcbep+0", "0x1.d363d1848dcbep+0"),
    ("line_search", 1, 0.05): ("0x1.94c583ada5b53p+1", "0x1.d363d1848dcbep+0",
                               "0x1.d363d1848dcbep+0", "0x1.d363d1848dcbep+0"),
    ("line_search", 40, 0.1): ("0x1.94c583ada5b53p+1", "0x1.7181116f43fe4p+3",
                               "0x1.7181116f43fe4p+3", "0x1.7181116f43fe4p+3"),
    ("line_search", 40, 0.05): ("0x1.94c583ada5b53p+1", "0x1.7181116f43fe4p+3",
                                "0x1.7181116f43fe4p+3", "0x1.7181116f43fe4p+3"),
    ("advanced", 1, 0.1): ("0x1.08f0ac1eb73f4p+6", "0x1.9c5bd9a517dadp+4",
                           "0x1.9c5bd9a517dadp+4", None),
    ("advanced", 1, 0.05): ("0x1.08f0ac1eb73f4p+6", "0x1.8f1038d358a76p+3",
                            "0x1.8f1038d358a76p+3", None),
    ("advanced", 40, 0.1): ("0x1.08f0ac1eb73f4p+6", "0x1.790a0ebfbf002p+7",
                            "0x1.790a0ebfbf002p+7", None),
    ("advanced", 40, 0.05): ("0x1.08f0ac1eb73f4p+6", "0x1.6ffd378e149e9p+6",
                             "0x1.6ffd378e149e9p+6", None),
    ("rdp", 1, 0.1): ("0x1.064eb33b896aap+2", "0x1.2cca0b6e83e1cp+0",
                      "0x1.2cca0b6e83e1cp+0", None),
    ("rdp", 1, 0.05): ("0x1.064eb33b896aap+2", "0x1.0d787ab463368p+0",
                       "0x1.0d787ab463368p+0", None),
    ("rdp", 40, 0.1): ("0x1.064eb33b896aap+2", "0x1.9cc28f8b44678p+1",
                       "0x1.9cc28f8b44678p+1", None),
    ("rdp", 40, 0.05): ("0x1.064eb33b896aap+2", "0x1.b131c2e9cb8e3p+0",
                        "0x1.b131c2e9cb8e3p+0", None),
}
# (T, s) -> float.hex of SubsampledDpBudget(0.8, 1e-5, 0.1).step(T, s)
PINNED_STEPS = {
    (1, 0.1): ("0x1.7373cfe3e69c1p-3", "0x1.797cc39ffd60ep-16",
               "0x1.2dfd694ccab3fp-17"),
    (1, 0.05): ("0x1.7373cfe3e69c1p-2", "0x1.797cc39ffd60ep-15",
                "0x1.2dfd694ccab3fp-17"),
    (40, 0.1): ("0x1.d5daaf68af838p-6", "0x1.2dfd694ccab3fp-21",
                "0x1.2dfd694ccab3fp-17"),
    (40, 0.05): ("0x1.d5daaf68af838p-5", "0x1.2dfd694ccab3fp-20",
                 "0x1.2dfd694ccab3fp-17"),
}


def _hex(values) -> tuple:
    return tuple(None if x is None else float(x).hex() for x in values)


class TestPlansPinned:
    @pytest.mark.parametrize("key", sorted(PINNED_PLANS), ids=str)
    def test_plan_is_the_replaced_classes_bit_for_bit(self, key):
        name, t_budget, s = key
        budget, sweeps = PINNED_BUDGETS[name]
        plan = budget.plan(t_budget, s, sweeps)
        assert _hex((plan.sigma_f, plan.sigma_g, plan.sigma_h, plan.lambda_svt)) \
            == PINNED_PLANS[key]
        assert plan.subsample_fraction == s

    @pytest.mark.parametrize("key", sorted(PINNED_STEPS), ids=str)
    def test_advanced_step_is_the_replaced_class_bit_for_bit(self, key):
        assert _hex(PINNED_BUDGETS["advanced"][0].step(*key)) == PINNED_STEPS[key]


class TestAccountingCheckedFirst:
    """An infeasible RDP target at s = 0.25 must not hide a bad accounting
    mode, and the mode is rejected before the initial loss or the tuner is paid for."""

    def _rejected(self, monkeypatch, match, run):
        calls = []
        for name in ("tune_noise_plan", "erm_value"):
            def counting(*args, _name=name, _original=getattr(runs, name), **kw):
                calls.append(_name)
                return _original(*args, **kw)
            monkeypatch.setattr(runs, name, counting)
        ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 4)
        with pytest.raises(ValueError, match=match) as err:
            run(model, ds, np.zeros(4), AlgorithmConstants(eps_g=0.06, eps_h=0.245),
                Budget(ApproxDp(1.0, 1e-5)))
        assert type(err.value) is ValueError
        assert calls == []

    @pytest.mark.parametrize("accounting", ["pure", "zcdp", "approx_dp"])
    def test_accounting_other_than_the_budgets_raised_before_any_tune(self, accounting,
                                                                      monkeypatch):
        # run_minibatch's own keyword, which may only restate the budget's notion
        self._rejected(monkeypatch, f"the budget accounts in rdp, not '{accounting}'",
                       lambda *args: run_minibatch(*args, BatchSelector(500), SeededRng(0),
                                                   accounting=accounting, lanczos=False))

    @pytest.mark.parametrize("sigma_g,sigma_h", [(1e-160, 1.0), (1.0, 1e-160),
                                                 (2.5e-152, 2.5e-152)])
    def test_plan_below_the_rdp_floor_refused_before_any_pass(self, sigma_g, sigma_h,
                                                               monkeypatch):
        # each multiplier alone may clear SIGMA_MIN while the combined_sigma
        # a Wigner draw is charged at does not
        assert combined_sigma(2.5e-152, 2.5e-152) < SIGMA_MIN < 2.5e-152
        calls = []
        for name in ("erm_value", "erm_gradient", "erm_hessian", "erm_hvp"):
            monkeypatch.setattr(runs, name, lambda *a, _name=name, **kw: calls.append(_name))
        ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 4)
        plan = NoisePlan(1.0, sigma_g, sigma_h, subsample_fraction=0.1)
        with pytest.raises(ValueError, match=r"accountant\.SIGMA_MIN"):
            run_variant("opt_b", model, ds, np.zeros(4), TOLS, plan, SeededRng(0),
                        selector=BatchSelector(200))
        assert calls == []
