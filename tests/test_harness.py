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

from dpopt.harness import (ExperimentConfig, TOLERANCE_PRESETS, emit_report,
                           load_dataset, preprocess, read_report_csv,
                           render_markdown, run_experiment, synth_dataset)
from dpopt.harness.cli import main as cli_main
from dpopt.accountant import InfeasiblePlanError, ZCdp, zcdp_to_approx_dp
from dpopt.harness import experiment
from dpopt.harness.experiment import ConfigError
from dpopt import objective
from dpopt.harness import data
from dpopt.mechanisms import SeededRng
from dpopt.objective import builtin_nonconvex_logistic, builtin_quartic_saddle, erm_hessian
from dpopt.optimizer import (AlgorithmConstants, ShortStepBudget, SubsampledDpBudget,
                             run_short_step, run_variant, runs)


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


class TestPreprocessing:
    def test_covertype_preset_idempotent(self, tmp_path):
        rng = SeededRng(0)
        X = rng.standard_normal((50, 12)) * 3.0 + 1.0
        rows = [",".join(repr(float(v)) for v in row) + f",{1 + i % 2}"
                for i, row in enumerate(X)]
        path = tmp_path / "cover.csv"
        path.write_text("\n".join(rows) + "\n")
        once = load_dataset(path, "csv", preprocessing="covertype")
        twice = preprocess(once, "covertype")
        assert np.allclose(once.features, twice.features, atol=1e-12)
        assert np.array_equal(once.labels, twice.labels)

    def test_ijcnn_preset_normalizes_all_columns(self, tmp_path):
        path = tmp_path / "ij.csv"
        rows = [f"{i},{i * 2},{1 if i % 2 else -1}" for i in range(1, 21)]
        path.write_text("\n".join(rows) + "\n")
        ds = load_dataset(path, "csv", preprocessing="ijcnn")
        assert np.allclose(ds.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(ds.features.std(axis=0), 1.0, atol=1e-12)


def one_batch_synth(kind, n, d, seed, margin):
    """Reference: synth_dataset as it was before it built X span by span,
    drawing whole batches of rows at once."""
    rng = SeededRng(seed)
    if kind == "planted_saddle":
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        Z = rng.standard_normal((n, d))
        Z[:, 0] = 0.0
        Z /= np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1e-300)
        X = 0.5 * Z
        X[:, 0] += 2.0 * signs
        return X, np.ones(n)
    w_star = np.ones(d) / math.sqrt(d)
    X = np.empty((n, d))
    filled = 0
    while filled < n:
        batch = rng.standard_normal((max(n - filled, 64), d))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        take = batch[np.abs(batch @ w_star) >= margin][: n - filled]
        X[filled:filled + take.shape[0]] = take
        filled += take.shape[0]
    return X, np.sign(X @ w_star)


class TestSynthetic:
    @pytest.mark.parametrize("d,margin", [(3, 0.15), (54, 0.15), (600, 0.01)])
    @pytest.mark.parametrize("kind", ["logistic_separable", "planted_saddle"])
    def test_spanwise_build_matches_one_batch(self, kind, d, margin):
        # the rows are the first n accepted rows of the row-major normal
        # stream, whatever size the blocks drawn from it have
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

    def test_keep_probability_matches_scipy_betainc(self):
        # P(|<x, w*>| >= margin) on the unit sphere of R^d, without scipy.special
        from scipy.special import betainc
        for d in (1, 2, 3, 5, 10, 39, 41, 54, 100, 256, 600, 1000):
            for margin in (0.001, 0.01, 0.05, 0.15, 0.3, 0.5, 0.9):
                a, x = (d - 1) / 2, 1.0 - margin ** 2
                assert math.isclose(data._regularized_beta(a, 0.5, x),
                                    float(betainc(a, 0.5, x)), rel_tol=1e-12), (d, margin)

    @pytest.mark.parametrize("d,margin,prob", [(600, 0.15, "0.00022"), (600, 0.5, "2.5e-39")])
    def test_hopeless_margin_rejected_before_any_draw(self, d, margin, prob, monkeypatch):
        def no_draw(rng, out):
            raise AssertionError("drew normals for a hopeless margin")

        monkeypatch.setattr(SeededRng, "standard_normal_into", no_draw)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"probability {prob}"):
            synth_dataset("logistic_separable", 20_000, d, seed=0, margin=margin)
        assert time.perf_counter() - start < 1.0

    def test_planted_saddle_has_negative_curvature_at_origin(self):
        ds = synth_dataset("planted_saddle", 100, 2, seed=1)
        model = builtin_quartic_saddle(ds.feature_norm_bound, 2)
        lam_min = np.linalg.eigvalsh(erm_hessian(model, ds, np.zeros(2)))[0]
        assert lam_min < 0.0

    def test_logistic_separable_margin_and_norms(self):
        ds = synth_dataset("logistic_separable", 500, 6, seed=2, margin=0.2)
        w_star = np.ones(6) / math.sqrt(6)
        assert np.all(np.abs(ds.features @ w_star) >= 0.2 - 1e-12)
        assert np.allclose(np.linalg.norm(ds.features, axis=1), 1.0, atol=1e-12)
        assert np.array_equal(ds.labels, np.sign(ds.features @ w_star))

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
            assert a.rho_spent == b.rho_spent
            assert (a.iters, a.grad_steps, a.curv_steps, a.hess_evals) == \
                   (b.iters, b.grad_steps, b.curv_steps, b.hess_evals)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(variants=("opt_x",))
        with pytest.raises(ConfigError):
            small_config(seeds=())
        with pytest.raises(ConfigError):
            small_config(variants=("opt_b",))  # batch variants need batch_size
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

    def test_missing_tolerances_is_config_error(self):
        rc = cli_main(["--dataset", "synth:logistic_separable", "--variant", "opt",
                       "--epsilon", "1.0", "--seeds", "0"])
        assert rc == 2

    def test_unknown_config_key_is_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mystery_key": 1}))
        rc = cli_main(["--config", str(cfg_path), "--preset", "covertype_loose"])
        assert rc == 2

    def test_missing_dataset_file_is_error(self):
        rc = cli_main(["--dataset", "/nonexistent.csv", "--preset", "covertype_loose",
                       "--variant", "opt", "--epsilon", "1.0", "--seeds", "0"])
        assert rc == 2

    def test_hopeless_synth_margin_is_error(self, capsys):
        args = [a if a != "4" else "600" for a in self.ARGS]  # --synth-d 600, margin 0.15
        assert cli_main(args) == 2
        assert "probability 0.00022" in capsys.readouterr().err

    def test_presets_match_published_settings(self):
        assert TOLERANCE_PRESETS["covertype_loose"] == (0.060, 0.245)
        assert TOLERANCE_PRESETS["covertype_tight"] == (0.030, 0.173)
        assert TOLERANCE_PRESETS["ijcnn_loose"] == (0.040, 0.200)
        assert TOLERANCE_PRESETS["ijcnn_tight"] == (0.020, 0.141)
