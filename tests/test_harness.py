"""Harness tests: loaders, presets, synthetic instances, sweeps, reports, CLI."""

import json
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc, betaincinv

from dpopt.harness import (ExperimentConfig, TOLERANCE_PRESETS, emit_report,
                           load_dataset, read_report_csv,
                           render_markdown, run_experiment, synth_dataset)
from dpopt.harness.cli import main as cli_main
from dpopt.accountant import InfeasiblePlanError, ZCdp, zcdp_to_approx_dp
from dpopt.harness import experiment
from dpopt.harness.experiment import ConfigError
from dpopt import objective
from dpopt.harness import data
from dpopt.mechanisms import SeededRng
from dpopt.objective import builtin_nonconvex_logistic, builtin_quartic_saddle, erm_hessian
from dpopt.optimizer import (VARIANTS, AlgorithmConstants, ShortStepBudget,
                             SubsampledDpBudget, run_short_step, run_variant, runs)


class TestCsvLoader:
    def test_covertype_preset_filters_and_recodes(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,2.0,1\n3.0,4.0,2\n5.0,6.0,3\n")
        ds = load_dataset(path, "csv", preprocessing="covertype")
        assert ds.n == 2
        assert set(ds.labels.tolist()) == {1.0, -1.0}

    def test_header_detected_and_skipped(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,label\n0.5,0.5,1\n0.1,0.2,-1\n")
        ds = load_dataset(path, "csv")
        assert ds.n == 2

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5,1\n0.1,oops,-1\n")
        with pytest.raises(ValueError, match=":2"):
            load_dataset(path, "csv")

    def test_short_row_reports_line_number(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b,label\n0.5,0.5,1\n\n0.1,-1\n0.2,0.3,1\n")
        with pytest.raises(ValueError, match=r"short\.csv:4: expected 3 fields, got 2"):
            load_dataset(path, "csv")

    def test_blank_lines_skipped_and_values_exact(self, tmp_path):
        path = tmp_path / "blank.csv"
        rows = ["0.1,0.30000000000000004,1", "1e-300,-0.7071067811865476,-1"]
        path.write_text("x1,x2,y\n\n" + rows[0] + "\n   \n" + rows[1] + "\n\n")
        ds = load_dataset(path, "csv")
        expected = np.array([[float(t) for t in row.split(",")] for row in rows])
        assert np.array_equal(ds.features, expected[:, :2])
        assert np.array_equal(ds.labels, expected[:, 2])

    def test_norm_overflow_rejected_with_row(self, tmp_path):
        # finite entries whose row norm overflows would otherwise give R = inf
        path = tmp_path / "overflow.csv"
        path.write_text("0.5,0.5,1\n1e200,1e200,-1\n")
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="row 1 has a norm that overflows"):
            load_dataset(path, "csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,label\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(path, "csv")

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("0.5,0.5,3\n")
        with pytest.raises(ValueError, match="label"):
            load_dataset(path, "csv")

    def test_label_column_configurable(self, tmp_path):
        path = tmp_path / "first.csv"
        path.write_text("1,0.5,0.25\n-1,0.1,0.2\n")
        ds = load_dataset(path, "csv", label_column=0)
        assert np.array_equal(ds.labels, [1.0, -1.0])
        assert ds.features.shape == (2, 2)

    def test_ingest_holds_one_copy_of_x(self, tmp_path):
        # dropping the label column with np.delete peaked at 2.16 x the final X
        src = synth_dataset("logistic_separable", 20_000, 54, seed=4)
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.column_stack([src.features, src.labels]), fmt="%.17g",
                   delimiter=",")
        tracemalloc.start()
        try:
            ds = load_dataset(path, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * ds.features.nbytes
        assert np.array_equal(ds.features, src.features)
        assert np.array_equal(ds.labels, src.labels)

    @pytest.mark.parametrize("label_column", [-1, 0, 3, 5])
    def test_label_column_dropped_span_by_span(self, tmp_path, label_column, monkeypatch):
        monkeypatch.setattr(objective, "span_rows", lambda d: 7)  # many spans
        table = SeededRng(8).standard_normal((300, 6)) / 3.0
        table[:, label_column] = np.where(np.arange(300) % 3 == 0, 1.0, -1.0)
        path = tmp_path / "cols.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",")
        ds = load_dataset(path, "csv", label_column=label_column)
        assert np.array_equal(ds.features, np.delete(table, label_column % 6, axis=1))
        assert np.array_equal(ds.labels, table[:, label_column])

    @pytest.mark.parametrize("label_column", [3, -4, 99])
    def test_label_column_outside_the_row_refused_before_parsing(self, tmp_path,
                                                                 label_column, monkeypatch):
        # the first data row after the header and blank lines has the width
        path = tmp_path / "wide.csv"
        path.write_text("x1,x2,y\n\n0.5,0.1,1\n0.1,0.2,-1\n")
        calls = []
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=f"label column {label_column} is outside "
                                             "rows of 3 fields"):
            load_dataset(path, "csv", label_column=label_column)
        assert calls == []

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_dataset("/nonexistent/file.csv")


class TestLibsvmLoader:
    def test_sparse_line_densified(self, tmp_path):
        path = tmp_path / "toy.libsvm"
        path.write_text("-1 1:0.5 3:2.0\n+1 2:1.0\n")
        ds = load_dataset(path, "libsvm")
        assert np.array_equal(ds.features, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(ds.labels, [-1.0, 1.0])

    def test_zero_based_index_rejected(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 0:0.5\n")
        with pytest.raises(ValueError, match=":1"):
            load_dataset(path, "libsvm")

    def test_index_above_n_features_rejected_with_line(self, tmp_path):
        path = tmp_path / "wide.libsvm"
        path.write_text("1 1:0.5\n-1 2:0.5 4:0.1\n")
        with pytest.raises(ValueError, match=r"wide\.libsvm:2: index 4 is above n_features = 3"):
            load_dataset(path, "libsvm", n_features=3)


class TestPreprocessing:
    def test_covertype_preset_idempotent(self, tmp_path):
        rng = SeededRng(0)
        X = rng.standard_normal((50, 12)) * 3.0 + 1.0
        rows = [",".join(repr(float(v)) for v in row) + f",{1 + i % 2}"
                for i, row in enumerate(X)]
        path = tmp_path / "cover.csv"
        path.write_text("\n".join(rows) + "\n")
        once = load_dataset(path, "csv", preprocessing="covertype")
        features, labels = data._apply_preset(once.features, once.labels, "covertype")
        assert np.allclose(once.features, features, atol=1e-12)
        assert np.array_equal(once.labels, labels)

    def test_ijcnn_preset_normalizes_all_columns(self, tmp_path):
        path = tmp_path / "ij.csv"
        rows = [f"{i},{i * 2},{1 if i % 2 else -1}" for i in range(1, 21)]
        path.write_text("\n".join(rows) + "\n")
        ds = load_dataset(path, "csv", preprocessing="ijcnn")
        assert np.allclose(ds.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(ds.features.std(axis=0), 1.0, atol=1e-12)


def one_batch_synth(kind, n, d, seed, margin):
    """Reference: synth_dataset's rows drawn over the whole array at once,
    with no blocks and no threads."""
    G = SeededRng(seed).standard_normal((n, d))
    if kind == "planted_saddle":
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        G[:, 0] = 0.0
        G /= np.maximum(np.linalg.norm(G, axis=1, keepdims=True), 1e-300)
        X = 0.5 * G
        X[:, 0] += 2.0 * signs
        return X, np.ones(n)
    # row i: label and 1 - t^2 from uniform i of stream 1, v from normals
    # [i d, (i + 1) d) of stream 0 with their w* component removed twice
    u = 2.0 * SeededRng(seed, 1).uniform(n)
    y = np.floor(u)
    u -= y
    y = 2.0 * y - 1.0
    a = (d - 1) / 2
    s2 = (np.zeros(n) if d == 1 else
          np.minimum(betaincinv(a, 0.5, u * betainc(a, 0.5, 1.0 - margin ** 2)),
                     1.0 - margin ** 2))
    t = np.sqrt(1.0 - s2) * y
    for _ in range(2):
        G -= G.mean(axis=1, keepdims=True)
    scale = np.sqrt(s2) / np.maximum(np.linalg.norm(G, axis=1), 1e-300)
    return G * scale[:, None] + (t * (1.0 / math.sqrt(d)))[:, None], y


def ks_within_one_percent(sample, cdf) -> bool:
    """Whether the Kolmogorov-Smirnov statistic D of the sample against the
    continuous CDF passes at the 1 % level: sqrt(n) D < 1.628, the
    asymptotic critical value, close for n in the thousands."""
    n = len(sample)
    F = cdf(np.sort(sample))
    i = np.arange(1, n + 1)
    return math.sqrt(n) * max(np.max(i / n - F), np.max(F - (i - 1) / n)) < 1.628


def check_separable_distribution(ds, margin):
    """x uniform on the unit sphere conditioned on |<x, w*>| >= margin: t^2 =
    <x, w*>^2 is Beta(1/2, (d - 1) / 2) truncated to [margin^2, 1], the label
    is sign(t), balanced, and v, the direction of x - t w*, is uniform on
    the sphere of w*-perp, independent of t."""
    X, (n, d) = ds.features, ds.features.shape
    w_star = np.ones(d) / math.sqrt(d)
    t = X @ w_star
    assert np.all(np.abs(t) >= margin - 1e-12)
    assert np.array_equal(ds.labels, np.sign(t))
    assert abs(np.sum(ds.labels)) < 2.576 * math.sqrt(n)  # binomial, at the 1 % level
    # t^2's CDF through the lower tail of 1 - t^2 ~ Beta((d - 1) / 2, 1/2)
    a = (d - 1) / 2
    tail = betainc(a, 0.5, 1.0 - margin ** 2)
    assert ks_within_one_percent(t ** 2, lambda x: 1.0 - betainc(a, 0.5, 1.0 - x) / tail)
    if d > 2:
        V = X - t[:, None] * w_star
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        # e_1's part in w*-perp has norm sqrt(1 - 1/d); along it, the square
        # of a coordinate of the (d - 2)-sphere is Beta(1/2, (d - 2) / 2)
        z = V[:, 0] / math.sqrt(1.0 - 1.0 / d)
        assert ks_within_one_percent(
            z, lambda z: 0.5 + 0.5 * np.sign(z) * betainc(0.5, (d - 2) / 2, z * z))
        # and v does not lean with t
        assert abs(np.corrcoef(np.abs(t), z)[0, 1]) < 4 / math.sqrt(n)


class TestSynthetic:
    @pytest.mark.parametrize("d,margin", [(3, 0.15), (54, 0.15), (600, 0.01)])
    @pytest.mark.parametrize("kind", ["logistic_separable", "planted_saddle"])
    def test_spanwise_build_matches_one_batch(self, kind, d, margin):
        # row i reads the same draws of the streams whatever size the
        # blocks drawn from them have
        for n in (1, 6, 63, 2000, 10_007):
            for seed in (0, 1, 330):
                ds = synth_dataset(kind, n, d, seed, margin=margin)
                X, y = one_batch_synth(kind, n, d, seed, margin)
                assert np.array_equal(ds.features, X), (n, seed)
                assert np.array_equal(ds.labels, y), (n, seed)

    @pytest.mark.parametrize("kind", ["logistic_separable", "planted_saddle"])
    def test_peak_memory_one_copy_of_x(self, kind):
        # the one-batch build peaks near 4 copies of X
        n, d = 65_536, 50
        tracemalloc.start()
        try:
            ds = synth_dataset(kind, n, d, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * ds.features.nbytes

    def test_deterministic_bytes(self):
        a = synth_dataset("planted_saddle", 100, 4, seed=9)
        b = synth_dataset("planted_saddle", 100, 4, seed=9)
        assert a.features.tobytes() == b.features.tobytes()
        c = synth_dataset("logistic_separable", 100, 4, seed=9)
        d = synth_dataset("logistic_separable", 100, 4, seed=9)
        assert c.features.tobytes() == d.features.tobytes()

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_rows_do_not_depend_on_worker_count(self, cores, monkeypatch):
        # several blocks in flight, and a thread switch after almost every
        # bytecode, so that blocks finish out of order
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert data.synth_workers() == min(cores, data.BLOCKS_IN_FLIGHT)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kind, n, d, margin in (("logistic_separable", 10_007, 54, 0.15),
                                       ("planted_saddle", 10_007, 54, 0.15),
                                       ("logistic_separable", 3_001, 600, 0.01)):
                for seed in (0, 330):
                    ds = synth_dataset(kind, n, d, seed, margin=margin)
                    X, y = one_batch_synth(kind, n, d, seed, margin)
                    assert ds.features.tobytes() == X.tobytes(), (kind, d, seed)
                    assert ds.labels.tobytes() == y.tobytes(), (kind, d, seed)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("d", [3, 50, 600])
    @pytest.mark.parametrize("cores", [1, 8])
    def test_ring_bounds_the_bytes_in_flight(self, cores, d, monkeypatch):
        # the ring's slots are anonymous mappings, which tracemalloc does not
        # see: their bytes are bounded here, by the constants alone
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        slots = []
        make = data._Block.__init__

        def counted(block, rows, d):
            make(block, rows, d)
            slots.append(len(block.mapping))

        monkeypatch.setattr(data._Block, "__init__", counted)
        synth_dataset("logistic_separable", 65_536, d, seed=5, margin=0.01)
        assert 1 <= len(slots) <= data.BLOCKS_IN_FLIGHT
        assert sum(slots) <= 2 * data.BLOCKS_IN_FLIGHT * objective.SPAN_BYTES

    @pytest.mark.parametrize("kind", ["logistic_separable", "planted_saddle"])
    def test_worker_error_surfaces_and_no_thread_outlives_the_call(self, kind, monkeypatch):
        class DrawFailed(RuntimeError):
            pass

        draw = SeededRng.standard_normal_into
        calls = []
        lock = threading.Lock()

        def failing_third(rng, out):
            with lock:
                calls.append(None)
                third = len(calls) == 3
            if third:
                raise DrawFailed("third block")
            return draw(rng, out)

        monkeypatch.setattr(SeededRng, "standard_normal_into", failing_third)
        threads = threading.active_count()
        with pytest.raises(DrawFailed, match="third block"):
            synth_dataset(kind, 20_000, 54, seed=4)
        assert threading.active_count() == threads

    def test_planted_saddle_has_negative_curvature_at_origin(self):
        ds = synth_dataset("planted_saddle", 100, 2, seed=1)
        model = builtin_quartic_saddle(ds.feature_norm_bound, 2)
        lam_min = np.linalg.eigvalsh(erm_hessian(model, ds, np.zeros(2)))[0]
        assert lam_min < 0.0

    @pytest.mark.parametrize("d,n", [(1, 1000), (2, 200_000), (3, 200_000), (54, 20_000),
                                     (600, 5_000)])
    def test_logistic_separable_margin_and_norms(self, d, n):
        # v's w* component is removed twice: once, at d = 2, rounding left
        # up to 1e-10 of w* in v where its two normals nearly cancel, and
        # rows above Dataset's 1e-12 slack on R = 1
        ds = synth_dataset("logistic_separable", n, d, seed=2, margin=0.2)
        proj = ds.features @ (np.ones(d) / math.sqrt(d))
        assert np.all(np.abs(proj) >= 0.2 - 1e-12)
        assert np.max(np.abs(np.linalg.norm(ds.features, axis=1) - 1.0)) <= 1e-15
        assert np.array_equal(ds.labels, np.sign(proj))

    @pytest.mark.parametrize("d,margin,n", [(2, 0.15, 20_000), (54, 0.15, 20_000),
                                            (600, 0.01, 5_000)])
    def test_logistic_separable_distribution(self, d, margin, n):
        check_separable_distribution(synth_dataset("logistic_separable", n, d, seed=12,
                                                   margin=margin), margin)

    def test_margin_of_a_tiny_cap_builds_at_once(self):
        # margin 0.5 at d = 600 keeps 2.5e-39 of the sphere: a rejection
        # sampler would never end, and the upper tail of t^2's CDF would
        # round that mass to 0
        start = time.perf_counter()
        ds = synth_dataset("logistic_separable", 20_000, 600, seed=0, margin=0.5)
        assert time.perf_counter() - start < 1.0
        check_separable_distribution(ds, 0.5)

    def test_separable_instance_is_solvable_without_noise(self):
        ds = synth_dataset("logistic_separable", 2000, 4, seed=3)
        model = builtin_nonconvex_logistic(1e-3, 1.0, 4)
        out = run_short_step(model, ds, np.zeros(4),
                             AlgorithmConstants(eps_g=0.06, eps_h=0.245),
                             ShortStepBudget(0.5), SeededRng(0), noise_mode="zero")
        assert out.status == "converged_2s"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_dataset("mystery", 10, 2, seed=0)


def small_config(**overrides):
    base = dict(
        synth="logistic_separable", synth_n=2000, synth_d=4, synth_seed=7,
        loss="nonconvex_logistic", lambda_reg=1e-3,
        variants=("opt",), epsilons=(1.0,), delta=1e-5,
        constants=AlgorithmConstants(eps_g=0.06, eps_h=0.245),
        seeds=(0, 1, 2, 3, 4), zero_noise=True)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_aggregates_five_seeds(self):
        report = run_experiment(small_config())
        assert len(report.rows) == 5
        cell = report.cells[0]
        assert not cell.failed
        losses = [r.final_loss for r in report.rows]
        assert cell.loss_mean == pytest.approx(np.mean(losses))
        assert cell.loss_std == pytest.approx(np.std(losses, ddof=1))

    def test_single_seed_zero_std(self):
        report = run_experiment(small_config(seeds=(0,)))
        assert report.cells[0].loss_std == 0.0

    def test_failed_seed_marks_cell(self):
        # microscopic budget: noise swamps the checks, runs cannot converge
        report = run_experiment(small_config(zero_noise=False, epsilons=(1e-3,),
                                             seeds=(0, 1)))
        assert report.cells[0].failed
        assert any(r.status != "converged_2s" for r in report.rows)

    def test_zero_noise_opt_equals_opt_b_at_full_batch(self):
        report = run_experiment(small_config(variants=("opt", "opt_b"),
                                             batch_size=2000, seeds=(0, 1)))
        by_variant = {}
        for row in report.rows:
            by_variant.setdefault(row.variant, []).append(row.final_loss)
        assert by_variant["opt"] == by_variant["opt_b"]

    @pytest.mark.parametrize("accounting", ["rdp", "approx_dp"])
    def test_rho_level_hands_its_epsilon_to_minibatch_cells(self, accounting, monkeypatch):
        # a rho level is reported under rho, but a mini-batch budget is an
        # (epsilon, delta) target: rho = 0.05 is epsilon = 1.567 at delta = 1e-5
        asked = []

        def no_plan(target, *args, **kwargs):
            asked.append(target.epsilon)
            raise InfeasiblePlanError("recorded")

        def no_run(name, model, dataset, w0, constants, budget, *args, **kwargs):
            if isinstance(budget, SubsampledDpBudget):
                asked.append(budget.epsilon)
                raise InfeasiblePlanError("recorded")
            return run_variant(name, model, dataset, w0, constants, budget, *args, **kwargs)

        monkeypatch.setattr(runs, "tune_noise_plan", no_plan)
        monkeypatch.setattr(experiment, "run_variant", no_run)
        report = run_experiment(small_config(
            variants=("opt_b",), rhos=(0.05,), batch_size=20, seeds=(0,),
            minibatch_accounting=accounting))
        expected = zcdp_to_approx_dp(ZCdp(0.05), 1e-5).epsilon
        assert expected == pytest.approx(1.567, abs=1e-3)
        assert asked == [expected]
        assert report.epsilons == (0.05,)
        assert [(r.epsilon, r.status) for r in report.rows] == [(0.05, "infeasible_plan")]

    def test_two_phase_variants_run(self):
        report = run_experiment(small_config(variants=("2opt", "2opt_ls"), seeds=(0,)))
        assert all(r.status == "converged_2s" for r in report.rows)

    def test_pipeline_deterministic_up_to_runtime(self):
        cfg = small_config(seeds=(0, 1))
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        for a, b in zip(first.rows, second.rows):
            assert (a.variant, a.epsilon, a.seed, a.status) == \
                   (b.variant, b.epsilon, b.seed, b.status)
            assert a.final_loss == b.final_loss
            assert a.ledger_spent == b.ledger_spent
            assert (a.iters, a.grad_steps, a.curv_steps, a.hess_evals) == \
                   (b.iters, b.grad_steps, b.curv_steps, b.hess_evals)

    def test_batch_larger_than_dataset_rejected_before_any_run(self, monkeypatch):
        # the opt cells come first in the sweep; none of them may run
        started = []
        monkeypatch.setattr(experiment, "run_variant", lambda *a, **k: started.append(a))
        with pytest.raises(ConfigError, match="batch_size 2001 exceeds the 2000 rows"):
            run_experiment(small_config(variants=("opt", "opt_b"), batch_size=2001))
        assert started == []

    def test_dense_path_above_the_cap_rejected_before_any_cell(self, monkeypatch):
        started = []
        monkeypatch.setattr(experiment, "run_variant", lambda *a, **k: started.append(a))
        with pytest.raises(ConfigError, match="--lanczos"):
            run_experiment(small_config(synth="planted_saddle", synth_n=4,
                                        synth_d=objective.DENSE_HESSIAN_CAP + 1))
        assert started == []

    def test_approx_dp_cells_spend_c_f_on_the_initial_loss(self):
        config = small_config(variants=("opt_b",), batch_size=20,
                              minibatch_accounting="approx_dp",
                              constants=AlgorithmConstants(eps_g=0.06, eps_h=0.245, c_f=0.2))
        budget = experiment._budget(config, VARIANTS["opt_b"], 1.0, 0.05, 2000)
        assert budget == SubsampledDpBudget(1.0, 1e-5, 0.2)
        assert (budget.eps_f, budget.delta_f) == (0.2 * 1.0, 0.2 * 1e-5)

    @pytest.mark.parametrize("bad", [{"loss": "hinge"}, {"delta": 0.0}, {"delta": 1.0},
                                     {"delta": -1e-5}, {"delta": float("nan")}])
    def test_bad_loss_or_delta_rejected_before_the_dataset_is_built(self, bad, monkeypatch):
        built = []
        monkeypatch.setattr(experiment, "synth_dataset", lambda *a, **k: built.append(a))
        with pytest.raises(ConfigError, match="loss" if "loss" in bad else "delta"):
            run_experiment(small_config(**bad))
        assert built == []

    @pytest.mark.parametrize("bad", [
        {"epsilons": (1.0, -0.5)}, {"epsilons": (math.inf,)}, {"epsilons": (math.nan,)},
        {"rhos": (-0.1,)}, {"rhos": (0.2, math.inf)},
        {"lambda_reg": -1e-3}, {"weight_box": 0.0}, {"weight_box": -1.0},
        # finite too, or the sweep stops at its first run for want of a bound B
        {"lambda_reg": math.inf}, {"weight_box": math.inf},
        # a repeated level or seed would report one run as several
        {"epsilons": (1.0, 1.0)}, {"rhos": (0.5, 0.5)}])
    def test_bad_level_or_loss_setting_rejected_before_the_dataset_is_built(
            self, bad, monkeypatch):
        built = []
        monkeypatch.setattr(experiment, "synth_dataset", lambda *a, **k: built.append(a))
        with pytest.raises(ConfigError, match=next(iter(bad))):
            run_experiment(small_config(**bad))
        assert built == []

    @pytest.mark.parametrize("bad", [{"budget_split": 0.0}, {"budget_split": 1.0},
                                     {"budget_split": math.nan}, {"seeds": (0, -1)},
                                     {"rng_stream": -1}, {"seeds": (0, 0)}])
    def test_bad_split_seed_or_stream_rejected_before_the_dataset_is_built(
            self, bad, monkeypatch):
        built = []
        monkeypatch.setattr(experiment, "synth_dataset", lambda *a, **k: built.append(a))
        with pytest.raises(ConfigError, match=next(iter(bad))):
            run_experiment(small_config(**bad))
        assert built == []

    @pytest.mark.parametrize("bad", [{"preprocessing": "covtype"},
                                     {"dataset_format": "parquet"}])
    def test_unknown_preset_or_format_rejected_before_the_file_is_read(
            self, bad, tmp_path, monkeypatch):
        path = tmp_path / "toy.csv"
        path.write_text("0.5,0.1,1\n0.1,0.2,-1\n")
        parsed, parse = [], data._parse_csv
        monkeypatch.setattr(data, "_parse_csv", lambda *a: parsed.append(a) or parse(*a))
        with pytest.raises(ConfigError, match=next(iter(bad))):
            run_experiment(small_config(synth=None, dataset_path=str(path), **bad))
        assert parsed == []

    def test_approx_dp_cell_past_advanced_composition_is_na(self):
        # at eps = 2, eps - eps_f = 1.8 >= 1 is outside advanced composition:
        # that cell records "NA" and the sweep goes on
        config = small_config(variants=("opt", "opt_b"), epsilons=(0.6, 2.0), batch_size=50,
                              minibatch_accounting="approx_dp", seeds=(0, 1))
        report = run_experiment(config)
        cells = {(r.variant, r.epsilon) for r in report.rows}
        assert cells == {(v, eps) for v in ("opt", "opt_b") for eps in (0.6, 2.0)}
        assert [r.status for r in report.rows if r.variant == "opt_b" and r.epsilon == 2.0] \
            == ["infeasible_plan"] * 2
        opt_b_row = render_markdown(report).splitlines()[3]
        assert opt_b_row.startswith("| opt_b |") and opt_b_row.endswith("| NA | NA |")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(variants=("opt_x",))
        with pytest.raises(ConfigError):
            small_config(seeds=())
        with pytest.raises(ConfigError):
            small_config(variants=("opt_b",))  # batch variants need batch_size
        with pytest.raises(ConfigError, match="at least 1"):
            small_config(variants=("opt_b",), batch_size=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(constants=AlgorithmConstants(eps_g=0.1, eps_h=0.1))


class TestReports:
    def test_csv_round_trip(self, tmp_path):
        report = run_experiment(small_config(seeds=(0, 1)))
        path = emit_report(report, "csv", tmp_path / "out.csv")
        assert read_report_csv(path) == report.rows

    def test_markdown_one_row_per_variant(self):
        report = run_experiment(small_config(variants=("opt", "2opt"), seeds=(0,)))
        md = render_markdown(report)
        lines = [ln for ln in md.splitlines() if ln.startswith("|")]
        assert len(lines) == 2 + 2  # header, separator, two variant rows
        assert any(ln.startswith("| opt ") for ln in lines)
        assert any(ln.startswith("| 2opt ") for ln in lines)

    def test_failure_marker_in_markdown(self):
        report = run_experiment(small_config(zero_noise=False, epsilons=(1e-3,),
                                             seeds=(0,)))
        assert "×" in render_markdown(report)

    def test_empty_report_rejected(self, tmp_path):
        report = run_experiment(small_config(seeds=(0,)))
        empty = type(report)((), (), (), ())
        with pytest.raises(ValueError):
            emit_report(empty, "csv", tmp_path / "never.csv")

    def test_deterministic_bytes(self, tmp_path):
        report = run_experiment(small_config(seeds=(0,)))
        p1 = emit_report(report, "csv", tmp_path / "a.csv")
        p2 = emit_report(report, "csv", tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    ARGS = ["--dataset", "synth:logistic_separable", "--synth-n", "2000",
            "--synth-d", "4", "--preset", "covertype_loose", "--variant", "opt",
            "--epsilon", "1.0", "--seeds", "0,1", "--zero-noise"]

    def test_sweep_completes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = cli_main(self.ARGS + ["--out", str(out), "--format", "csv"])
        assert rc == 0
        assert out.exists()
        assert len(read_report_csv(out)) == 2
        assert "| opt " in capsys.readouterr().out

    def test_config_file_with_overrides(self, tmp_path):
        cfg = {"synth": "logistic_separable", "synth_n": 2000, "synth_d": 4,
               "variants": ["opt"], "epsilons": [1.0], "seeds": [0],
               "zero_noise": True, "constants": {"eps_g": 0.06, "eps_h": 0.245}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main(["--config", str(cfg_path), "--seeds", "0,1"])
        assert rc == 0

    def test_loss_choices_are_the_loss_table(self, monkeypatch):
        monkeypatch.setitem(experiment.LOSSES, "mirror",
                            experiment.LOSSES["nonconvex_logistic"])
        rc = cli_main(self.ARGS + ["--loss", "mirror", "--seeds", "0"])
        assert rc == 0
        with pytest.raises(SystemExit):
            cli_main(self.ARGS + ["--loss", "hinge"])

    def test_missing_tolerances_is_config_error(self):
        rc = cli_main(["--dataset", "synth:logistic_separable", "--variant", "opt",
                       "--epsilon", "1.0", "--seeds", "0"])
        assert rc == 2

    def test_negative_epsilon_exits_2_before_the_dataset_is_built(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(experiment, "synth_dataset", lambda *a, **k: built.append(a))
        args = [a if a != "1.0" else "-1.0" for a in self.ARGS]  # --epsilon -1.0
        assert cli_main(args) == 2
        assert "epsilons" in capsys.readouterr().err
        assert built == []

    def test_negative_seed_exits_2_before_the_dataset_is_built(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(experiment, "synth_dataset", lambda *a, **k: built.append(a))
        args = [a if a != "0,1" else "0,-1" for a in self.ARGS]  # --seeds 0,-1
        assert cli_main(args) == 2
        assert "seeds (0, -1)" in capsys.readouterr().err
        assert built == []

    def test_unknown_preset_in_the_config_file_exits_2_before_the_file_is_read(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "toy.csv"
        path.write_text("0.5,0.1,1\n0.1,0.2,-1\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preprocessing": "covtype"}))
        parsed, parse = [], data._parse_csv
        monkeypatch.setattr(data, "_parse_csv", lambda *a: parsed.append(a) or parse(*a))
        rc = cli_main(["--config", str(cfg_path), "--dataset", str(path), "--preset",
                       "covertype_loose", "--variant", "opt", "--epsilon", "1.0",
                       "--seeds", "0"])
        assert rc == 2
        assert "unknown preprocessing 'covtype'" in capsys.readouterr().err
        assert parsed == []

    def test_unknown_config_key_is_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mystery_key": 1}))
        rc = cli_main(["--config", str(cfg_path), "--preset", "covertype_loose"])
        assert rc == 2

    @pytest.mark.parametrize("cfg", [
        {"constants": {"eps_g": 0.06, "eps_h": 0.245, "bogus": 1},
         "synth": "logistic_separable"},
        {"seeds": 5, "synth": "logistic_separable"},
        [1, 2],
        {"synth": "logistic_separable", "synth_n": "abc"},
        {"synth": "logistic_separable", "zero_noise": "no"},  # a truthy string: no noise
        {"dataset_path": 0},
        # a string where a list belongs, not a tuple of its characters
        {"synth": "logistic_separable", "variants": "opt"},
        {"synth": "logistic_separable", "epsilons": "1.0"},
        {"synth": "logistic_separable", "seeds": "12"},
        {"synth": "logistic_separable", "rhos": "0.5"},
    ], ids=["unknown_constant", "scalar_seeds", "not_an_object", "string_synth_n",
            "string_zero_noise", "integer_dataset_path", "string_variants",
            "string_epsilons", "string_seeds", "string_rhos"])
    def test_malformed_config_file_exits_2(self, cfg, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main(["--config", str(cfg_path), "--preset", "covertype_loose"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for key in ("variants", "epsilons", "seeds", "rhos"):
            if isinstance(cfg, dict) and isinstance(cfg.get(key), str):
                assert err.startswith(f"error: {key} must be a list")

    @pytest.mark.parametrize("key,value", [
        ("seeds", [True]), ("synth_n", True), ("batch_size", False), ("epsilons", ["1.0"]),
        ("delta", "1e-5"), ("lambda_reg", "0.1"), ("budget_split", "0.5"), ("loss", []),
        ("variants", [["opt"]]), ("weight_box", 1e400), ("seeds", [0, 0]),
        ("constants", {"c_f": True}), ("constants", {"c_f": "0.1"})])
    def test_wrong_type_or_value_names_its_key(self, key, value, tmp_path, monkeypatch,
                                               capsys):
        built = []
        monkeypatch.setattr(experiment, "synth_dataset", lambda *a, **k: built.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": "logistic_separable", key: value}))
        rc = cli_main(["--config", str(cfg_path), "--preset", "covertype_loose"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert built == []

    def test_missing_dataset_file_is_error(self):
        rc = cli_main(["--dataset", "/nonexistent.csv", "--preset", "covertype_loose",
                       "--variant", "opt", "--epsilon", "1.0", "--seeds", "0"])
        assert rc == 2

    def test_label_column_outside_the_row_is_error(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        data.write_text("0.5,0.1,1\n0.1,0.2,-1\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"label_column": 3}))
        rc = cli_main(["--config", str(cfg_path), "--dataset", str(data), "--preset",
                       "covertype_loose", "--variant", "opt", "--epsilon", "1.0",
                       "--seeds", "0"])
        assert rc == 2
        assert "label column 3 is outside rows of 3 fields" in capsys.readouterr().err

    def test_synth_build_error_is_error(self, capsys):
        args = [{"4": "1", "synth:logistic_separable": "synth:planted_saddle"}.get(a, a)
                for a in self.ARGS]  # --synth-d 1
        assert cli_main(args) == 2
        assert "planted_saddle needs d >= 2" in capsys.readouterr().err

    def test_presets_match_published_settings(self):
        assert TOLERANCE_PRESETS["covertype_loose"] == (0.060, 0.245)
        assert TOLERANCE_PRESETS["covertype_tight"] == (0.030, 0.173)
        assert TOLERANCE_PRESETS["ijcnn_loose"] == (0.040, 0.200)
        assert TOLERANCE_PRESETS["ijcnn_tight"] == (0.020, 0.141)
