"""Noise generation tests: determinism and fixed-seed statistical gates."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from dpopt import mechanisms
from dpopt.mechanisms import (SeededRng, WignerOperator, gaussian, gaussian_vector,
                              laplace, unit_vector, wigner_matrix)


class TestDeterminism:
    def test_same_seed_same_stream_identical(self):
        a = gaussian_vector(64, 1.0, SeededRng(42, 3))
        b = gaussian_vector(64, 1.0, SeededRng(42, 3))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = gaussian_vector(64, 1.0, SeededRng(42, 0))
        b = gaussian_vector(64, 1.0, SeededRng(42, 1))
        assert not np.array_equal(a, b)

    def test_stream_independence_no_draw_order_coupling(self):
        # draws from stream 1 are unaffected by how much stream 0 consumed
        r0, r1 = SeededRng(7, 0), SeededRng(7, 1)
        r0.standard_normal(1000)
        fresh = gaussian_vector(16, 1.0, SeededRng(7, 1))
        assert np.array_equal(gaussian_vector(16, 1.0, r1), fresh)

    def test_children_deterministic_and_distinct(self):
        parent = SeededRng(5)
        c0, c1 = parent.child(), parent.child()
        again = SeededRng(5)
        d0, d1 = again.child(), again.child()
        assert np.array_equal(c0.standard_normal(8), d0.standard_normal(8))
        assert np.array_equal(c1.standard_normal(8), d1.standard_normal(8))
        assert not np.array_equal(c0.fresh().standard_normal(8),
                                  c1.fresh().standard_normal(8))

    def test_fresh_replays_from_start(self):
        rng = SeededRng(9)
        first = rng.standard_normal(10)
        assert np.array_equal(rng.fresh().standard_normal(10), first)

    def test_laplace_sequence_reproducible(self):
        xs = [laplace(2.0, SeededRng(1)) for _ in range(3)]
        assert xs[0] == xs[1] == xs[2]


class TestGaussianVector:
    def test_zero_scale_is_zero_vector(self):
        assert np.all(gaussian_vector(10, 0.0, SeededRng(0)) == 0.0)

    def test_moments_at_large_d(self):
        x = gaussian_vector(10 ** 5, 1.0, SeededRng(123))
        assert abs(float(np.mean(x))) <= 0.02
        assert 0.99 <= float(np.std(x)) <= 1.01

    def test_norm_concentration_loose_tail(self):
        # 99th percentile of ||x|| over 1000 draws vs sqrt(2d) sigma log(100)
        d, sigma = 50, 0.7
        rng = SeededRng(77)
        norms = np.array([np.linalg.norm(gaussian_vector(d, sigma, rng))
                          for _ in range(1000)])
        bound = math.sqrt(2 * d) * sigma * math.log(100.0)
        assert np.percentile(norms, 99) <= bound

    def test_scalar_helper(self):
        assert gaussian(0.0, SeededRng(0)) == 0.0

    @pytest.mark.parametrize("draw", [
        lambda rng: gaussian(0.0, rng), lambda rng: gaussian_vector(5, 0.0, rng),
        lambda rng: wigner_matrix(5, 0.0, rng), lambda rng: laplace(0.0, rng),
        lambda rng: WignerOperator(5, 0.0, rng)])
    def test_zero_scale_draws_nothing(self, draw):
        # noise_doubles.zero_noise sets every scale of a run to 0: the stream must not move
        rng = SeededRng(9)
        state = rng.generator.bit_generator.state
        draw(rng)
        assert rng.generator.bit_generator.state == state

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gaussian_vector(0, 1.0, SeededRng(0))
        with pytest.raises(ValueError):
            gaussian_vector(3, -1.0, SeededRng(0))


class TestLaplace:
    def test_median_near_zero(self):
        rng = SeededRng(2024)
        xs = np.array([laplace(3.0, rng) for _ in range(10 ** 5)])
        assert abs(float(np.median(xs))) <= 0.02 * 3.0

    def test_mean_absolute_value_matches_scale(self):
        rng = SeededRng(31)
        b = 1.7
        xs = np.array([laplace(b, rng) for _ in range(10 ** 5)])
        assert abs(float(np.mean(np.abs(xs))) - b) <= 0.03 * b

    def test_tail_quantile(self):
        # P(|x| > b ln 20) = 1/20
        rng = SeededRng(8)
        b = 2.5
        xs = np.array([laplace(b, rng) for _ in range(10 ** 5)])
        frac = float(np.mean(np.abs(xs) > b * math.log(20.0)))
        assert abs(frac - 0.05) <= 0.01

    def test_zero_scale(self):
        assert laplace(0.0, SeededRng(0)) == 0.0


class TestWigner:
    def test_zero_scale(self):
        assert np.all(wigner_matrix(5, 0.0, SeededRng(0)) == 0.0)

    def test_exact_symmetry(self):
        E = wigner_matrix(40, 1.3, SeededRng(6))
        assert np.array_equal(E, E.T)

    def test_row_major_upper_triangle_order(self):
        # normative draw order: the flat normal sequence fills row by row
        d = 7
        E = wigner_matrix(d, 2.0, SeededRng(11))
        flat = 2.0 * SeededRng(11).standard_normal(d * (d + 1) // 2)
        expected = np.zeros((d, d))
        pos = 0
        for i in range(d):
            for j in range(i, d):
                expected[i, j] = expected[j, i] = flat[pos]
                pos += 1
        assert np.array_equal(E, expected)

    def test_spectral_norm_tail(self):
        d = 54
        rng = SeededRng(99)
        norms = np.array([np.linalg.norm(wigner_matrix(d, 1.0, rng), 2)
                          for _ in range(200)])
        assert np.percentile(norms, 95) <= 3.0 * math.sqrt(d)

    def test_spectrum_symmetric_about_zero(self):
        d = 30
        rng = SeededRng(13)
        sums = []
        for _ in range(300)[:300]:
            vals = np.linalg.eigvalsh(wigner_matrix(d, 1.0, rng))
            sums.append(vals[0] + vals[-1])
        sums = np.array(sums)
        stderr = float(np.std(sums, ddof=1)) / math.sqrt(len(sums))
        assert abs(float(np.mean(sums))) <= 3.0 * stderr


def triu_scatter_wigner(d, scale, rng):
    """The Wigner draw as index arrays scatter it: the flat row-major
    triangle into the upper triangle, then its mirror."""
    n_upper = d * (d + 1) // 2
    flat = scale * rng.standard_normal(n_upper) if scale > 0 else np.zeros(n_upper)
    out = np.zeros((d, d))
    iu = np.triu_indices(d)
    out[iu] = flat
    out.T[iu] = flat
    return out


class TestRowBuiltWigner:
    @pytest.mark.parametrize("scale", [0.0, 0.37])
    @pytest.mark.parametrize("d", [1, 2, 7, 520, 600])
    def test_matches_triu_scatter(self, d, scale):
        E = wigner_matrix(d, scale, SeededRng(61, 2))
        assert np.array_equal(E, triu_scatter_wigner(d, scale, SeededRng(61, 2)))
        # an operator's stored draw is the same matrix
        src = SeededRng(62).child()
        stored = WignerOperator(d, scale, src)
        reference = triu_scatter_wigner(d, scale, src.fresh())
        assert np.array_equal(stored.dense, reference)
        v = SeededRng(63).standard_normal(d)
        assert np.array_equal(stored.matvec(v), reference @ v)


class _StubGenerator:
    """Hands out fixed uniforms in order, as Generator.random would."""

    def __init__(self, uniforms):
        self._u = np.asarray(uniforms, dtype=float)
        self._pos = 0

    def random(self, size=None):
        k = 1 if size is None else int(np.prod(size))
        u = self._u[self._pos:self._pos + k].copy()
        self._pos += k
        return float(u[0]) if size is None else u.reshape(size)


class TestStandardNormalInPlace:
    UNIFORMS = [0.0, 2.0 ** -60, 2.0 ** -53, 1e-300, 0.5, 0.3, 1.0 - 2.0 ** -53, 0.999]

    def _rng(self, uniforms):
        rng = SeededRng(0)
        rng.generator = _StubGenerator(uniforms)
        return rng

    @pytest.mark.parametrize("size", [None, 1, 8, (2, 4)])
    def test_matches_out_of_place_form(self, size):
        count = 1 if size is None else int(np.prod(size))
        expected = ndtri(np.maximum(self.UNIFORMS[:count], mechanisms._U_FLOOR))
        got = self._rng(self.UNIFORMS).standard_normal(size)
        assert np.shape(got) == (() if size is None else np.empty(size).shape)
        assert np.array_equal(np.ravel(got), expected)
        assert np.all(np.isfinite(got))  # a uniform of exactly 0 is floored, not -inf

    def test_real_stream_matches_out_of_place_form(self):
        u = SeededRng(64, 1).generator.random(10_000)
        expected = ndtri(np.maximum(u, mechanisms._U_FLOOR))
        assert np.array_equal(SeededRng(64, 1).standard_normal(10_000), expected)


class TestStreamOffsets:
    @pytest.mark.parametrize("k", [0, 1, 63, 1000])
    def test_advanced_replays_the_stream_from_draw_k(self, k):
        rng = SeededRng(11, 2).child()
        rng.standard_normal(5)  # advanced() starts from the initial state
        whole = rng.fresh().standard_normal(k + 40)
        assert np.array_equal(rng.advanced(k).standard_normal(40), whole[k:])

    def test_into_matches_standard_normal(self):
        out = np.empty((7, 3))
        got = SeededRng(8).standard_normal_into(out)
        assert got is out
        assert np.array_equal(out, SeededRng(8).standard_normal((7, 3)))


class TestWignerOperator:
    def test_dense_matches_free_function(self):
        src = SeededRng(3).child()
        op = WignerOperator(9, 1.5, src)
        assert np.array_equal(op.dense, wigner_matrix(9, 1.5, src.fresh()))

    def test_draw_stored_once(self):
        d = 40
        op = WignerOperator(d, 0.8, SeededRng(2).child())
        v = SeededRng(4).standard_normal(d)
        assert op.dense is op.dense  # drawn once, then kept
        assert np.array_equal(op.matvec(v), op.dense @ v)


class TestUnitVector:
    def test_unit_norm(self):
        v = unit_vector(20, SeededRng(0))
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
