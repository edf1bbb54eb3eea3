"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 2's factor-two clause is expected to fail: the published
amplification bound's j >= 3 binomial terms dominate its own second-order
approximation on most of the stated (s, alpha) grid (see the analysis notes
shipped with the repository); the criterion is asserted as stated rather
than weakened.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from dpopt.accountant import (ApproxDp, DEFAULT_ORDERS, NoisePlan, RdpCurve, Release,
                              ZCdp, account_run, approx_dp_to_zcdp, combined_sigma,
                              rdp_to_approx_dp, run_log,
                              subsampled_gaussian_rdp,
                              subsampled_gaussian_rdp_curve, zcdp_to_approx_dp)
from dpopt.harness import synth_dataset
from dpopt.mechanisms import SeededRng, wigner_matrix
from dpopt.objective import (BatchSelector, builtin_nonconvex_logistic,
                             builtin_quartic_saddle, erm_gradient, erm_hessian,
                             sensitivities)
from dpopt.optimizer import (AlgorithmConstants, LineSearchBudget, RdpTuneBudget,
                             ShortStepBudget, dp_line_search, min_batch_size,
                             min_dec_line_search, min_dec_short, min_samples_advisor,
                             roots_t1_t2, run_line_search, run_minibatch,
                             run_short_step, run_two_phase, svt_slack)
from dpopt.spectral import lanczos_iteration_cap, lanczos_min_eig, min_eigenpair_dense
from noise_doubles import bounded_noise


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared instances


SADDLE_TOLS = AlgorithmConstants(eps_g=1e-2, eps_h=1e-1)
BOUNDED_TOLS = AlgorithmConstants(eps_g=1e-2, eps_h=1e-1,
                                  c=0.05, c1=0.05, c2=0.05, c_h=0.3)


@pytest.fixture(scope="module")
def saddle_instance():
    ds = synth_dataset("planted_saddle", 1000, 10, seed=7)
    model = builtin_quartic_saddle(ds.feature_norm_bound, 10, weight_box=2.0)
    return ds, model


@pytest.fixture(scope="module")
def bounded_instance():
    ds = synth_dataset("planted_saddle", 400, 6, seed=5,
                       saddle_signal=1.6, saddle_noise=0.4)
    model = builtin_quartic_saddle(ds.feature_norm_bound, 6, weight_box=1.0)
    sens = sensitivities(model, ds.n, ds.d)
    grad_bound = min(BOUNDED_TOLS.c1 * BOUNDED_TOLS.eps_g,
                     BOUNDED_TOLS.c2 / model.M * BOUNDED_TOLS.eps_h ** 2)
    hess_bound = BOUNDED_TOLS.c * BOUNDED_TOLS.eps_h
    plan = NoisePlan(10.0,
                     grad_bound / (3.0 * math.sqrt(ds.d)) / sens.delta_g,
                     hess_bound / (6.0 * math.sqrt(ds.d)) / sens.delta_h,
                     lambda_svt=1e-8)
    return ds, model, plan


@pytest.fixture(scope="module")
def zero_noise_runs(saddle_instance):
    """Criterion 3 runs, audited again by criterion 7."""
    ds, model = saddle_instance
    w0 = np.zeros(10)
    w0[0] = 0.8
    runs = {
        "short": run_short_step(model, ds, w0, SADDLE_TOLS, ShortStepBudget(0.5),
                                SeededRng(0), noise_mode="zero"),
        "line_search": run_line_search(model, ds, w0, SADDLE_TOLS, LineSearchBudget(0.5),
                                       SeededRng(0), noise_mode="zero"),
        "short_from_saddle": run_short_step(model, ds, np.zeros(10), SADDLE_TOLS,
                                            ShortStepBudget(0.5), SeededRng(1),
                                            noise_mode="zero"),
    }
    return runs


@pytest.fixture(scope="module")
def bounded_runs(bounded_instance):
    """Criterion 4 runs, audited again by criterion 7."""
    ds, model, plan = bounded_instance
    short, ls = [], []
    with bounded_noise(model, BOUNDED_TOLS):
        for seed in range(10):
            short.append(run_short_step(model, ds, np.zeros(6), BOUNDED_TOLS, plan,
                                        SeededRng(seed)))
            ls.append(run_line_search(model, ds, np.zeros(6), BOUNDED_TOLS, plan,
                                      SeededRng(100 + seed)))
    return short, ls


@pytest.fixture(scope="module")
def minibatch_run():
    ds = synth_dataset("logistic_separable", 60000, 5, seed=123)
    model = builtin_nonconvex_logistic(1e-3, ds.feature_norm_bound, 5, 10.0)
    consts = AlgorithmConstants(eps_g=0.060, eps_h=0.245)
    out = run_minibatch(model, ds, np.zeros(5), consts, RdpTuneBudget(1.0, 1e-5),
                        BatchSelector(600), SeededRng(0))
    return ds, out


def test_criterion_1_accountant_golden_values():
    ok = account_run([Release("gaussian", (1.0,))], ZCdp).rho == 0.5
    expected = 0.5 + math.sqrt(2.0 * math.log(1e5))
    got = zcdp_to_approx_dp(ZCdp(0.5), 1e-5).epsilon
    ok &= abs(got - expected) <= 1e-9
    curve = account_run([Release("gaussian", (5.0,))], RdpCurve)
    converted, _ = rdp_to_approx_dp(curve, 1e-5)
    brute = min(float(e) + math.log(1e5) / (float(a) - 1.0)
                for a, e in zip(curve.orders, curve.epsilons))
    ok &= abs(converted.epsilon - brute) <= 1e-9
    report(1, ok, f"gauss rho=0.5, zCDP->DP eps={got:.6f}, RDP->DP matches brute scan")
    assert ok


def test_criterion_2_subsampling_amplification():
    sigma = 10.0
    fractions = (0.001, 0.01, 0.05)
    alphas = range(2, 33)
    worst_ratio, bad_cells, total = 0.0, 0, 0
    monotone = True
    values = {}
    for s in fractions:
        prev = -math.inf
        for alpha in alphas:
            val = subsampled_gaussian_rdp(alpha, sigma, s)
            values[(s, alpha)] = val
            monotone &= val >= prev - 1e-18
            prev = val
            ratio = val / (2.0 * s * s * alpha / sigma ** 2)
            worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
            bad_cells += not (0.5 <= ratio <= 2.0)
            total += 1
    for alpha in alphas:
        seq = [values[(s, alpha)] for s in fractions]
        monotone &= all(a <= b + 1e-18 for a, b in zip(seq, seq[1:]))
    within_factor_two = bad_cells == 0
    report(2, within_factor_two and monotone,
           f"monotone={monotone}; factor-2 vs 2 s^2 alpha / sigma^2 holds on "
           f"{total - bad_cells}/{total} cells (worst ratio {worst_ratio:.1f}); "
           "the published bound's higher-order terms exceed the approximation "
           "outside s * alpha * sigma^2 <~ 6 - see decision notes")
    assert monotone
    assert within_factor_two, (
        f"{bad_cells}/{total} grid cells violate the factor-2 claim "
        f"(worst ratio {worst_ratio:.1f}); the criterion is unattainable "
        "under the published bound")


def test_criterion_3_zero_noise_correctness(saddle_instance, zero_noise_runs):
    ds, model = saddle_instance
    ok = True
    for key in ("short", "line_search"):
        out = zero_noise_runs[key]
        ok &= out.status == "converged_2s"
        g = erm_gradient(model, ds, out.w_final)
        lam = np.linalg.eigvalsh(erm_hessian(model, ds, out.w_final))[0]
        ok &= np.linalg.norm(g) <= SADDLE_TOLS.eps_g
        ok &= lam >= -SADDLE_TOLS.eps_h
    first = zero_noise_runs["short_from_saddle"].trace[0]
    ok &= first.kind == "negative_curvature"
    report(3, ok, "both variants converge with exact checks "
                  f"||g|| <= {SADDLE_TOLS.eps_g}, lam_min >= -{SADDLE_TOLS.eps_h}; "
                  f"saddle start opens with a curvature step (lam~{first.lambda_noisy:.2f})")
    assert ok


def test_criterion_4_bounded_noise_descent(bounded_instance, bounded_runs):
    ds, model, _plan = bounded_instance
    md_short = min_dec_short(model.G, model.M, BOUNDED_TOLS.eps_g, BOUNDED_TOLS.eps_h,
                             BOUNDED_TOLS.c1, BOUNDED_TOLS.c2, BOUNDED_TOLS.c)
    _, t2 = roots_t1_t2(BOUNDED_TOLS.c, BOUNDED_TOLS.c2, BOUNDED_TOLS.c_h)
    md_ls = min_dec_line_search(model.G, model.M, BOUNDED_TOLS.eps_g, BOUNDED_TOLS.eps_h,
                                BOUNDED_TOLS.c1, BOUNDED_TOLS.c_g, BOUNDED_TOLS.c_h, t2)
    short, ls = bounded_runs
    checked, ok = 0, True
    for out in short:
        for rec in out.trace:
            if rec.kind != "terminate":
                ok &= rec.loss_before - rec.loss_after >= md_short - 1e-9
                checked += 1
    for out in ls:
        for rec in out.trace:
            if rec.kind != "terminate":
                ok &= rec.loss_before - rec.loss_after >= md_ls - 1e-9
                checked += 1
    report(4, ok, f"{checked} non-terminal iterations across 20 bounded-noise runs "
                  f"all decrease by >= MIN_DEC - 1e-9 "
                  f"(short {md_short:.3e}, line-search {md_ls:.3e})")
    assert ok


def test_criterion_5_svt_guarantee():
    lam, delta_q = 2.0, 0.01
    i_max = 20
    t = svt_slack(lam, i_max, 1.0, 0.05)
    rng = SeededRng(20240817)
    gamma_init, gamma_bar, beta = 1.0, 2.0 ** -(i_max - 1), 0.5
    trials, good = 10 ** 4, 0
    for _ in range(trials):
        theta = gamma_bar + float(rng.uniform()) * 0.9
        q = lambda g: theta - g
        res = dp_line_search(q, delta_q, gamma_init, gamma_bar, beta, lam, rng)
        if q(res.gamma) >= -t * delta_q:
            good += 1
    frac = good / trials
    ok = frac >= 0.95
    report(5, ok, f"accepted gamma satisfies q >= -t Delta_q in {frac:.4f} of 1e4 "
                  f"trials (t = {t:.1f} at i_max = {i_max}, lambda = {lam})")
    assert ok


@pytest.fixture(scope="module")
def lanczos_trials():
    d = 54
    ds = synth_dataset("logistic_separable", 400, d, seed=3)
    model = builtin_nonconvex_logistic(1e-3, 1.0, d)
    master = SeededRng(99)
    eps, delta_l = 0.05, 0.05
    hits, caps_ok, results = 0, True, []
    for _ in range(200):
        w = 0.3 * master.standard_normal(d)
        H = erm_hessian(model, ds, w) + wigner_matrix(d, 0.02, master)
        dense = min_eigenpair_dense(H)
        norm_bound = float(np.linalg.norm(H, 2))
        res = lanczos_min_eig(lambda v, H=H: H @ v, d, norm_bound, eps, delta_l, master)
        hits += abs(res.lambda_min - dense.lambda_min) <= eps / 2.0
        caps_ok &= res.matvec_count <= lanczos_iteration_cap(d, norm_bound, eps, delta_l)
        results.append((res, dense))
    return hits, caps_ok, results


def test_criterion_6_lanczos_vs_dense(lanczos_trials):
    hits, caps_ok, results = lanczos_trials
    frac = hits / len(results)
    ok = frac >= 0.95 and caps_ok
    report(6, ok, f"|lanczos - dense| <= eps/2 in {frac:.3f} of 200 trials at "
                  f"d = 54; iteration cap respected: {caps_ok}")
    assert ok


def test_criterion_7_privacy_ledger_audit(zero_noise_runs, bounded_runs, minibatch_run):
    ok = True
    audited = 0
    # zCDP runs from criteria 3 and 4: trace-derived counts reproduce the
    # ledger exactly and stay within the worst-case budget
    zcdp_runs = ([(zero_noise_runs["short"], "short", 0.5),
                  (zero_noise_runs["line_search"], "line_search", 0.5),
                  (zero_noise_runs["short_from_saddle"], "short", 0.5)]
                 + [(r, "short", None) for r in bounded_runs[0]]
                 + [(r, "line_search", None) for r in bounded_runs[1]])
    for out, mode, rho_target in zcdp_runs:
        sweeps = out.iterations if mode == "line_search" else 0
        recomputed = account_run(run_log(out.plan, out.grad_steps, out.hess_evals, sweeps), ZCdp)
        ok &= out.accounted_privacy.rho == recomputed.rho
        worst_sweeps = out.t_budget if mode == "line_search" else 0
        worst = account_run(run_log(out.plan, 0, out.t_budget, worst_sweeps), ZCdp).rho
        ok &= out.accounted_privacy.rho <= worst + 1e-12
        if rho_target is not None:
            ok &= out.accounted_privacy.rho <= rho_target + 1e-12
        audited += 1
    # mini-batch run: composed RDP curve matches the published form termwise
    ds, out = minibatch_run
    s = 600 / ds.n
    manual = np.asarray(DEFAULT_ORDERS, float) / (2.0 * out.plan.sigma_f ** 2)
    manual = manual + out.grad_steps * subsampled_gaussian_rdp_curve(out.plan.sigma_g, s).epsilons
    if out.hess_evals:
        sigma_gh = combined_sigma(out.plan.sigma_g, out.plan.sigma_h)
        manual = manual + out.hess_evals * subsampled_gaussian_rdp_curve(sigma_gh, s).epsilons
    gap = float(np.max(np.abs(out.accounted_privacy.epsilons - manual)))
    ok &= gap <= 1e-12
    spent, _ = rdp_to_approx_dp(out.accounted_privacy, 1e-5)
    ok &= spent.epsilon <= 1.0
    audited += 1
    report(7, ok, f"{audited} run ledgers match account_run exactly and stay within "
                  f"budget; mini-batch curve max termwise gap {gap:.2e}")
    assert ok


def test_criterion_8_minibatch_degeneracy_and_unbiasedness():
    ds = synth_dataset("logistic_separable", 60000, 5, seed=123)
    model = builtin_nonconvex_logistic(1e-3, ds.feature_norm_bound, 5, 10.0)
    consts = AlgorithmConstants(eps_g=0.060, eps_h=0.245)
    w0 = np.zeros(5)
    full = run_short_step(model, ds, w0, consts, ShortStepBudget(0.05), SeededRng(42))
    batched = run_minibatch(model, ds, w0, consts, ShortStepBudget(0.05),
                            BatchSelector(ds.n), SeededRng(42), accounting="zcdp")
    identical = full.trace == batched.trace and np.array_equal(full.w_final, batched.w_final)

    tiny = synth_dataset("logistic_separable", 6, 3, seed=11)
    tiny_model = builtin_nonconvex_logistic(1e-3, 1.0, 3)
    w = np.array([0.3, -0.2, 0.5])
    full_grad = erm_gradient(tiny_model, tiny, w)
    avg_grad = np.mean([erm_gradient(tiny_model, tiny, w, list(c))
                        for c in combinations(range(6), 3)], axis=0)
    gap = float(np.max(np.abs(avg_grad - full_grad)))
    ok = identical and gap <= 1e-14
    report(8, ok, f"m = n trace-identical: {identical}; batch-averaged gradient over "
                  f"all 20 subsets matches full gradient (max gap {gap:.1e})")
    assert ok


def test_criterion_9_synthetic_reproduction_bands():
    # The benchmark file is not shipped; per the stated downgrade the bands
    # come from zero-noise baselines (+- 10%) on the separable synthetic,
    # with delta fixed to 1e-5 for the (eps, delta) -> zCDP conversion.
    ds = synth_dataset("logistic_separable", 60000, 5, seed=123)
    model = builtin_nonconvex_logistic(1e-3, ds.feature_norm_bound, 5, 10.0)
    w0 = np.zeros(5)

    loose = AlgorithmConstants(eps_g=0.060, eps_h=0.245)
    base_short = run_short_step(model, ds, w0, loose, ShortStepBudget(1.0),
                                SeededRng(999), noise_mode="zero")
    rho_1 = approx_dp_to_zcdp(ApproxDp(1.0, 1e-5)).rho
    opt_runs = [run_short_step(model, ds, w0, loose, ShortStepBudget(rho_1), SeededRng(s))
                for s in range(5)]
    opt_mean = float(np.mean([r.final_loss for r in opt_runs]))
    ok = all(r.status == "converged_2s" for r in opt_runs)
    ok &= abs(opt_mean - base_short.final_loss) <= 0.10 * base_short.final_loss
    ok &= all(r.hess_evals <= 5 for r in opt_runs)

    tight = AlgorithmConstants(eps_g=0.030, eps_h=0.173)
    base_ls = run_two_phase(model, ds, w0, tight, LineSearchBudget(1.0), SeededRng(999),
                            variant="line_search", noise_mode="zero")
    rho_06 = approx_dp_to_zcdp(ApproxDp(0.6, 1e-5)).rho
    ls_runs = [run_two_phase(model, ds, w0, tight, LineSearchBudget(rho_06), SeededRng(s),
                             variant="line_search") for s in range(5)]
    ls_mean = float(np.mean([r.final_loss for r in ls_runs]))
    ok &= all(r.status == "converged_2s" for r in ls_runs)
    ok &= abs(ls_mean - base_ls.final_loss) <= 0.10 * base_ls.final_loss
    report(9, ok, f"OPT @ eps=1.0 loose: mean loss {opt_mean:.4f} vs baseline "
                  f"{base_short.final_loss:.4f} (band +-10%), <= 5 Hessian evals; "
                  f"2OPT-LS @ eps=0.6 tight: mean {ls_mean:.4f} vs "
                  f"{base_ls.final_loss:.4f}; all seeds converged")
    assert ok


def test_criterion_10_advisory_formulas():
    sets = [
        dict(B_g=1.0, B_H=1.0, M=1.0, eps_g=0.1, eps_h=0.3, sigma=14.0, lam=14.0,
             T=100, s=0.01, d=10, eta=0.1),
        dict(B_g=2.5, B_H=0.7, M=0.4, eps_g=0.05, eps_h=0.2, sigma=80.0, lam=25.0,
             T=400, s=0.05, d=20, eta=0.05),
        dict(B_g=0.5, B_H=3.0, M=2.0, eps_g=0.02, eps_h=0.14, sigma=300.0, lam=120.0,
             T=2000, s=0.002, d=54, eta=0.2),
    ]
    ok = True
    for p in sets:
        model = builtin_quartic_saddle(1.0, p["d"])
        object.__setattr__(model, "B_g", p["B_g"])
        object.__setattr__(model, "B_H", p["B_H"])
        object.__setattr__(model, "M", p["M"])
        consts = AlgorithmConstants(eps_g=p["eps_g"], eps_h=p["eps_h"], c=0.1, c1=0.1,
                                    c2=0.1, c_g=0.4, c_h=0.25, b_g=2.0, b_h=2.0,
                                    beta_g=0.5, beta_h=0.5, zeta=0.1, xi=0.05,
                                    eta=p["eta"])

        # independent spreadsheet-style evaluation of every branch
        lo = min(0.1 * p["eps_g"], 0.1 / p["M"] * p["eps_h"] ** 2)
        logt = math.log(p["T"] / 0.1)
        g_branch = math.sqrt(2 * p["d"]) * p["B_g"] * p["sigma"] * logt / lo
        h_branch = 2.0 * math.sqrt(p["d"]) * p["B_H"] * p["sigma"] * logt / (0.1 * p["eps_h"])
        t2 = 1.5 * 0.65 + 3.0 * math.sqrt(0.25 * 0.65 ** 2 - 2.0 * 0.1 / 3.0)
        svt = (16.0 * p["lam"] * (math.log(2) + math.log(p["T"] / 0.05)) * p["B_g"]
               * max(2 * 2.0 / (0.4 * p["eps_g"]),
                     4 * 2.0 * p["M"] / (t2 * 0.25 * p["eps_h"] ** 2)))
        lb = math.log(2 * p["d"] * p["T"] / p["eta"])
        sub_g = 64.0 * p["B_g"] ** 2 * (lb + 0.25) * max(
            100.0 / p["eps_g"] ** 2, p["M"] ** 2 * 100.0 / p["eps_h"] ** 4) / p["s"]
        sub_h = 32.0 * p["B_H"] ** 2 * lb * 100.0 / p["eps_h"] ** 2 / p["s"]

        def ceil_band(x):
            return (math.ceil(np.nextafter(x, -np.inf)), math.ceil(np.nextafter(x, np.inf)))

        plan = NoisePlan(1.0, p["sigma"], p["sigma"], lambda_svt=p["lam"],
                         subsample_fraction=p["s"])
        short = min_samples_advisor(model, consts, plan, "short", p["d"], p["T"])
        lo_b, hi_b = ceil_band(max(g_branch, h_branch))
        ok &= lo_b <= short <= hi_b
        ls = min_samples_advisor(model, consts, plan, "line_search", p["d"], p["T"])
        lo_b, hi_b = ceil_band(max(g_branch, h_branch, svt))
        ok &= lo_b <= ls <= hi_b
        mb = min_samples_advisor(model, consts, plan, "minibatch", p["d"], p["T"])
        lo_b, hi_b = ceil_band(max(2 * g_branch, 2 * h_branch, sub_g, sub_h))
        ok &= lo_b <= mb <= hi_b
        batch = min_batch_size(model, consts, p["T"], p["eta"], p["d"])
        lo_b, hi_b = ceil_band(max(sub_g * p["s"], sub_h * p["s"]))
        ok &= lo_b <= batch <= hi_b
    report(10, ok, "advisor and batch-size formulas reproduce three hand-evaluated "
                   "constant sets within one ulp before rounding")
    assert ok
