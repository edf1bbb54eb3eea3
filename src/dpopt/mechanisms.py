"""Seeded noise generation for private optimization runs.

Every draw goes through an explicit inverse-CDF transform on the uniform
stream of a PCG64 generator, so a (seed, stream) pair pins down the whole
noise sequence bit-for-bit on a given numpy/scipy build:

  * Gaussians apply the normal quantile function ``ndtri`` to uniforms,
  * Laplace draws invert the double-exponential CDF,
  * symmetric (Wigner) matrices fill the diagonal and upper triangle with
    i.i.d. Gaussians in row-major order and mirror the result.

A Wigner draw takes all d (d + 1) / 2 normals in one call and copies row
i's d - i of them into row i and its mirror, column i.  The quantile
transform works in place on the uniforms' array.  At scale 0 every
helper returns zeros and draws nothing: a run's zero-noise test mode is
all of its scales set to 0.

Each uniform, and so each normal, is one 64-bit PCG64 draw, so
SeededRng.advanced(k) can replay a stream from its (k + 1)-th normal; the
synthetic datasets draw blocks of one stream on several threads that way,
into caller-owned buffers (standard_normal_into).

None of this is cryptographically secure noise, and no floating-point side
channels are mitigated; both are documented limitations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

# Tail constant A for symmetric sub-Gaussian random matrices,
# P(||E|| > A sqrt(d) * scale) <= small.  The constant is not pinned down by
# theory; 2.0 is an empirical calibration used by the sample-size advisor.
DEFAULT_WIGNER_TAIL_CONSTANT = 2.0

# smallest uniform fed to the quantile transforms; gen.random() can return
# exactly 0.0, which would map to -inf
_U_FLOOR = 2.0 ** -53


def _normal_quantile(u: np.ndarray) -> np.ndarray:
    """Floor the uniforms u and apply ndtri, in place: no temporaries the
    size of the draw."""
    np.maximum(u, _U_FLOOR, out=u)
    return ndtri(u, out=u)


class SeededRng:
    """A reproducible uniform stream addressed by (seed, stream).

    Distinct stream ids (and child spawn paths) give statistically
    independent generators via numpy's SeedSequence.  A SeededRng is owned
    by one logical run; there is no locking, but fresh and advanced only
    read the seed and path, so threads may share them.
    """

    def __init__(self, seed: int, stream: int = 0, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream = int(stream)
        self._path = tuple(int(p) for p in _path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,) + self._path)
        self.generator = np.random.Generator(np.random.PCG64(ss))
        self._children = 0

    def child(self) -> "SeededRng":
        """Derive an independent sub-stream (deterministic per call order)."""
        path = self._path + (self._children,)
        self._children += 1
        return SeededRng(self.seed, self.stream, _path=path)

    def fresh(self) -> "SeededRng":
        """A new generator replaying this stream from its initial state."""
        return SeededRng(self.seed, self.stream, _path=self._path)

    def advanced(self, k: int) -> "SeededRng":
        """A new generator replaying this stream from its initial state
        advanced by k draws: its first uniform (or normal) is the stream's
        (k + 1)-th.  PCG64 jumps there in O(log k) steps."""
        rng = self.fresh()
        rng.generator.bit_generator.advance(k)
        return rng

    def uniform(self, size=None):
        return self.generator.random(size)

    def standard_normal(self, size=None):
        u = self.generator.random(size)
        if size is None:
            return ndtri(np.maximum(u, _U_FLOOR))
        return _normal_quantile(u)

    def standard_normal_into(self, out: np.ndarray) -> np.ndarray:
        """Fill the C-contiguous float array out with the next out.size
        normals, the values standard_normal(out.shape) would return."""
        return _normal_quantile(self.generator.random(out=out))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SeededRng(seed={self.seed}, stream={self.stream}, path={self._path})"


def gaussian(scale: float, rng: SeededRng) -> float:
    """One N(0, scale^2) draw; scale 0 gives 0.0 and draws nothing."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if scale == 0.0:
        return 0.0
    return float(scale) * float(rng.standard_normal())


def gaussian_vector(d: int, scale: float, rng: SeededRng) -> np.ndarray:
    """d i.i.d. N(0, scale^2) entries; scale 0 gives the zero vector."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if scale == 0.0:
        return np.zeros(d)
    return scale * rng.standard_normal(d)


def wigner_matrix(d: int, scale: float, rng: SeededRng) -> np.ndarray:
    """Symmetric d x d matrix, upper triangle (incl. diagonal) i.i.d. N(0, scale^2).

    Entries are drawn in row-major upper-triangle order; the lower triangle
    is an exact mirror, so the output is symmetric to the last bit.  Scale
    0 gives the zero matrix and draws nothing.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if scale == 0.0:
        return np.zeros((d, d))
    flat = rng.standard_normal(d * (d + 1) // 2)
    flat *= scale
    out = np.empty((d, d))
    lo = 0
    for i in range(d):  # row i's d - i entries, then their mirror in column i
        hi = lo + d - i
        out[i, i:] = flat[lo:hi]
        out[i:, i] = flat[lo:hi]
        lo = hi
    return out


def laplace(scale: float, rng: SeededRng) -> float:
    """One Laplace(scale) draw via inverse CDF on a single uniform.

    scale 0 is allowed and returns 0.0 (useful for zero-sensitivity queries).
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if scale == 0.0:
        return 0.0
    u = float(rng.uniform())
    c = u - 0.5
    mag = min(2.0 * abs(c), 1.0 - _U_FLOOR)
    return -float(scale) * math.copysign(math.log1p(-mag), c)


def unit_vector(d: int, rng: SeededRng) -> np.ndarray:
    """Uniform random point on the unit sphere in R^d."""
    while True:
        v = rng.standard_normal(d)
        nrm = np.linalg.norm(v)
        if nrm > 0:
            return v / nrm


class WignerOperator:
    """One Wigner draw, taken from its dedicated child stream at
    construction and stored: 8 d^2 bytes, no more than X's 8 n d while
    n >= d."""

    def __init__(self, d: int, scale: float, source: SeededRng):
        self.dense = wigner_matrix(d, scale, source)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.dense @ v
