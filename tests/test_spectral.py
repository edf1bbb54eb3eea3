"""Spectral tests: dense eigenpairs, randomized Lanczos, curvature decisions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpopt.mechanisms import SeededRng, wigner_matrix
from dpopt.spectral import (EigenResult, decide_curvature, lanczos_iteration_cap,
                            lanczos_min_eig, min_eigenpair_dense, orient)


def random_symmetric(d, seed, scale=1.0):
    rng = SeededRng(seed)
    A = scale * rng.standard_normal((d, d))
    return 0.5 * (A + A.T)


class TestDense:
    def test_diagonal(self):
        res = min_eigenpair_dense(np.diag([1.0, -2.0, 3.0]))
        assert res.lambda_min == pytest.approx(-2.0)
        assert np.allclose(np.abs(res.direction), [0.0, 1.0, 0.0], atol=1e-12)

    def test_identity(self):
        res = min_eigenpair_dense(np.eye(4))
        assert res.lambda_min == pytest.approx(1.0)
        assert np.linalg.norm(res.direction) == pytest.approx(1.0)

    def test_residual_on_random_matrices(self):
        for seed in range(10):
            H = random_symmetric(20, seed)
            res = min_eigenpair_dense(H)
            resid = np.linalg.norm(H @ res.direction - res.lambda_min * res.direction)
            assert resid <= 1e-9 * np.linalg.norm(H, 2)

    def test_rejects_nonsymmetric(self):
        H = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            min_eigenpair_dense(H)


class TestLanczosCap:
    def test_worked_value(self):
        # d = 54, delta = 0.1, M/eps = 100
        cap = lanczos_iteration_cap(54, 100.0, 1.0, 0.1)
        assert cap == min(54, 1 + math.ceil(0.5 * math.log(2.75 * 54 / 0.01) * 10.0))
        assert cap == 50

    def test_capped_by_dimension(self):
        assert lanczos_iteration_cap(5, 1e6, 1e-6, 0.01) == 5


class TestLanczos:
    def test_agrees_with_dense_under_wigner_perturbation(self):
        d = 54
        rng = SeededRng(21)
        hits = 0
        for i in range(60):
            H = random_symmetric(d, 1000 + i, scale=0.3) + wigner_matrix(d, 0.05, rng)
            dense = min_eigenpair_dense(H)
            nb = float(np.linalg.norm(H, 2))
            res = lanczos_min_eig(lambda v: H @ v, d, nb, 0.05, 0.05, rng)
            if abs(res.lambda_min - dense.lambda_min) <= 0.025:
                hits += 1
            assert res.matvec_count <= lanczos_iteration_cap(d, nb, 0.05, 0.05)
        assert hits >= 57  # 95% target with fixed seeds

    def test_fast_convergence_on_separated_diagonal(self):
        d = 60
        diag = np.linspace(1.0, 10.0, d)
        diag[0] = -5.0  # well-separated smallest eigenvalue
        H = np.diag(diag)
        res = lanczos_min_eig(lambda v: H @ v, d, 10.0, 0.01, 0.05, SeededRng(3))
        cap = lanczos_iteration_cap(d, 10.0, 0.01, 0.05)
        assert res.lambda_min == pytest.approx(-5.0, abs=1e-8)
        assert res.matvec_count <= cap // 2

    def test_direction_is_unit_and_consistent(self):
        H = random_symmetric(20, 77)
        nb = float(np.linalg.norm(H, 2))
        res = lanczos_min_eig(lambda v: H @ v, 20, nb, 0.01, 0.05, SeededRng(9))
        assert lanczos_iteration_cap(20, nb, 0.01, 0.05) == 20  # d within the cap
        assert res.matvec_count <= 20
        assert res.lambda_min == pytest.approx(min_eigenpair_dense(H).lambda_min, abs=1e-9)
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, rel=1e-9)
        resid = np.linalg.norm(H @ res.direction - res.lambda_min * res.direction)
        assert resid <= 1e-6 * max(1.0, nb)

    def test_invariant_subspace_ends_the_sweep_exactly(self):
        # rank-1 operator: span{q0, e_1} is invariant after two products
        d = 8
        u = np.zeros(d)
        u[0] = 1.0
        H = -2.0 * np.outer(u, u)
        res = lanczos_min_eig(lambda v: H @ v, d, 2.0, 0.1, 0.05, SeededRng(5))
        assert res.matvec_count == 2
        assert res.lambda_min == pytest.approx(-2.0, abs=1e-12)
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, rel=1e-12)


class TestDecideCurvature:
    def test_lanczos_threshold_half(self):
        res = EigenResult(-0.2, np.array([1.0]), "lanczos")
        assert decide_curvature(res, 0.3) is True  # -0.2 <= -0.15

    def test_lanczos_above_threshold_declares_psd(self):
        res = EigenResult(-0.1, np.array([1.0]), "lanczos")
        assert decide_curvature(res, 0.3) is False

    def test_dense_strict_threshold(self):
        assert decide_curvature(EigenResult(-0.31, np.array([1.0]), "dense"), 0.3) is True
        assert decide_curvature(EigenResult(-0.3, np.array([1.0]), "dense"), 0.3) is False


class TestOrient:
    def test_flips_against_positive_inner_product(self):
        p = np.array([1.0, 0.0])
        assert np.array_equal(orient(p, np.array([1.0, 0.0])), -p)

    def test_keeps_negative_inner_product(self):
        p = np.array([1.0, 0.0])
        assert np.array_equal(orient(p, np.array([-1.0, 0.0])), p)

    def test_tie_keeps_input_sign(self):
        p = np.array([1.0, 0.0])
        assert np.array_equal(orient(p, np.array([0.0, 5.0])), p)

    @given(arrays(np.float64, 4, elements=st.floats(-10, 10)),
           arrays(np.float64, 4, elements=st.floats(-10, 10)))
    def test_output_satisfies_both_conditions(self, p, g):
        nrm = np.linalg.norm(p)
        if nrm < 1e-6:
            return
        p = p / nrm
        out = orient(p, g)
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-9)
        assert float(out @ g) <= 1e-12
