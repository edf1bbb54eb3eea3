"""Dataset ingestion, preprocessing presets, and synthetic instances.

CSV files carry one sample per row with a configurable label column
(default: last); a header row is detected and skipped, and so are blank
lines.  np.loadtxt parses the numbers; a malformed file is scanned again
line by line, so that its error names the path and line of the first bad
row.  libsvm files use the standard sparse ``label idx:val`` lines with
1-based indices, densified on load.

Preprocessing presets:

  * "covertype": z-score the first 10 (numerical) columns, keep rows whose
    label is 1, 2, or an already-recoded -1, and recode 2 -> -1.  On the
    full benchmark file this retains 495141 of 581012 rows at d = 54.  The
    preset is idempotent: a second application is a no-op (up to floating
    point in the z-scores).
  * "ijcnn": z-score every column; labels must already be binary in {-1, +1}.
  * "none": labels must already be in {-1, +1}.

Synthetic instances (deterministic per seed):

  * planted_saddle: rows x_i = a s_i e_1 + b z_i with alternating signs s_i
    and unit perturbations z_i orthogonal to e_1, all rows of norm
    sqrt(a^2 + b^2).  Paired with the double-well margin loss, the full risk
    has zero gradient at the origin and Hessian -(1/n) X^T X there, i.e. a
    strict saddle with lambda_min <= -a^2 (1 - o(1)).
  * logistic_separable: unit-norm rows labeled by a fixed unit vector with a
    minimum margin, so logistic-family losses are driven to small gradients.

Set-up holds one copy of X.  Every loader takes the feature-norm bound R
with objective.max_row_norm, span by span.  The CSV loader drops the label
column inside np.loadtxt's own array, so X is a view of its first n * d
values (the last n stay allocated behind it).

Both synthetic kinds read one row-major stream of normals: planted_saddle
takes its first n rows, with signs from the global row index, and
logistic_separable keeps the first n rows that pass the margin test,
labelled by the sign of the projection the test took.  A margin that keeps
a row with probability below MIN_KEEP_PROB is refused.  Block k of the
stream starts k * rows * d draws in, where PCG64 jumps straight to, so one
worker thread per core (synth_workers) fills blocks -- normals, row norms,
margin test -- into a ring of BLOCKS_IN_FLIGHT buffers, while the calling
thread copies the kept rows into X in block order.  The rows do not depend
on the block size, the worker count or the scheduling, the ring bounds the
memory above X, and no thread outlives the call.
"""

from __future__ import annotations

import math
import mmap
import warnings
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ..mechanisms import SeededRng
from ..objective import (SPAN_ROW_ALIGN, Dataset, max_row_norm, row_spans, span_rows,
                         usable_cores)

_COVERTYPE_NUMERIC_COLS = 10

# Blocks of the normal stream synth_dataset draws ahead of the rows it has
# copied into X.  Their ring of buffers bounds set-up's memory above X at
# about this many objective.SPAN_BYTES, whatever the core count.
BLOCKS_IN_FLIGHT = 4

# logistic_separable refuses a margin that keeps a row with a smaller
# probability: the build would draw n / p rows, or never end.
MIN_KEEP_PROB = 1e-3

# rows squared at a time when a block takes its row norms
_NORM_CHUNK_BYTES = 1 << 17


def _zscore(X: np.ndarray, cols: slice) -> np.ndarray:
    X = X.copy()
    block = X[:, cols]
    mean = block.mean(axis=0)
    std = block.std(axis=0)
    std[std == 0.0] = 1.0
    X[:, cols] = (block - mean) / std
    return X


def _apply_preset(X: np.ndarray, y: np.ndarray, preprocessing: str):
    if preprocessing == "none":
        return X, y
    if preprocessing == "covertype":
        keep = np.isin(y, (1.0, 2.0, -1.0))
        X, y = X[keep], y[keep].copy()
        y[y == 2.0] = -1.0
        if X.shape[0] == 0:
            raise ValueError("covertype preset removed every row")
        return _zscore(X, slice(0, min(_COVERTYPE_NUMERIC_COLS, X.shape[1]))), y
    if preprocessing == "ijcnn":
        return _zscore(X, slice(0, X.shape[1])), y
    raise ValueError(f"unknown preprocessing preset {preprocessing!r}")


def _csv_row(line: str) -> list[float]:
    return [float(t) for t in line.split(",")]


def _csv_error(path: Path, header: bool) -> ValueError | None:
    """The path:lineno error of the first malformed row, found line by line."""
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or (header and lineno == 1):
                continue
            try:
                row = _csv_row(line)
            except ValueError as err:
                return ValueError(f"{path}:{lineno}: {err}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                return ValueError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
    return None


def _parse_csv(path: Path, label_column: int) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        first = fh.readline()
        try:
            _csv_row(first)
            header = False
        except ValueError:
            header = bool(first.strip())  # a first line that is not numbers
        if not header:
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt((line for line in fh if line.strip()), delimiter=",",
                                  comments=None, ndmin=2)
        except ValueError as err:
            raise _csv_error(path, header) or ValueError(f"{path}: {err}") from None
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    y = data[:, label_column].copy()
    # drop the label column inside loadtxt's buffer: span by span, row i's
    # features move to offset i * d, which is never past where they were, so
    # no copy the size of X is made
    n, d = data.shape[0], data.shape[1] - 1
    flat = data.reshape(-1)
    for lo, hi in row_spans(n, d + 1):
        flat[lo * d:hi * d] = np.delete(data[lo:hi], label_column % (d + 1), axis=1).ravel()
    return flat[:n * d].reshape(n, d), y


def _parse_libsvm(path: Path, n_features: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    labels: list[float] = []
    entries: list[list[tuple[int, float]]] = []
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                labels.append(float(tokens[0]))
                row = []
                for tok in tokens[1:]:
                    idx_s, val_s = tok.split(":")
                    idx = int(idx_s)
                    if idx < 1:
                        raise ValueError(f"index {idx} is not 1-based")
                    row.append((idx - 1, float(val_s)))
                    max_idx = max(max_idx, idx)
                entries.append(row)
            except (ValueError, IndexError) as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    if not labels:
        raise ValueError(f"{path}: no data rows")
    d = n_features if n_features is not None else max_idx
    X = np.zeros((len(labels), d))
    for i, row in enumerate(entries):
        for j, v in row:
            X[i, j] = v
    return X, np.asarray(labels)


def load_dataset(path, fmt: str = "csv", preprocessing: str = "none",
                 label_column: int = -1, n_features: int | None = None) -> Dataset:
    """Load and preprocess a dataset file into an in-memory Dataset."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if fmt == "csv":
        X, y = _parse_csv(path, label_column)
    elif fmt == "libsvm":
        X, y = _parse_libsvm(path, n_features)
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")
    X, y = _apply_preset(X, y, preprocessing)
    bad = ~np.isin(y, (-1.0, 1.0))
    if np.any(bad):
        first = int(np.argmax(bad))
        raise ValueError(
            f"{path}: label {y[first]} at data row {first} is not in {{-1, +1}} "
            f"after preprocessing {preprocessing!r}")
    return Dataset(X, y, max_row_norm(X))


def preprocess(dataset: Dataset, preprocessing: str) -> Dataset:
    """Apply a preset to an already loaded dataset (used for idempotence checks)."""
    X, y = _apply_preset(dataset.features, dataset.labels, preprocessing)
    return Dataset(X, y, max_row_norm(X))


def synth_workers(blocks: int = BLOCKS_IN_FLIGHT) -> int:
    """Threads synth_dataset draws `blocks` blocks in flight on: one per
    usable core, at most one per block."""
    return min(usable_cores(), blocks)


class _Block:
    """One slot of the ring: a block of rows of the normal stream, their
    labels and which of them are kept, with the scratch to fill them, so
    that workers make no temporaries that their malloc arenas would keep.
    The slot is an anonymous mapping of its own, whose pages go back to the
    system when the call ends; a ring from malloc stayed in the heap, 0.4
    to 0.9 MB more RSS after three covertype-scale set-ups."""

    def __init__(self, rows: int, d: int):
        chunk = max(1, min(rows, _NORM_CHUNK_BYTES // (8 * d)))
        floats = rows * d + chunk * d + 2 * rows
        self.mapping = mmap.mmap(-1, 8 * floats + rows)
        f = np.frombuffer(self.mapping, dtype=float, count=floats)
        self.rows = f[:rows * d].reshape(rows, d)
        self.squares = f[rows * d:(rows + chunk) * d].reshape(chunk, d)
        self.labels, self.norms = f[(rows + chunk) * d:].reshape(2, rows)
        self.keep = np.frombuffer(self.mapping, dtype=bool, offset=8 * floats)

    def normalize(self, floor: float | None = None) -> None:
        """Scale every row to unit norm.  The norms are np.linalg.norm's,
        sqrt(add.reduce(x * x, axis=1)), taken a chunk of rows at a time."""
        step = self.squares.shape[0]
        for lo in range(0, self.rows.shape[0], step):
            chunk = self.rows[lo:lo + step]
            sq = self.squares[:chunk.shape[0]]
            np.multiply(chunk, chunk, out=sq)
            np.add.reduce(sq, axis=1, out=self.norms[lo:lo + step])
        np.sqrt(self.norms, out=self.norms)
        if floor is not None:
            np.maximum(self.norms, floor, out=self.norms)
        np.divide(self.rows, self.norms[:, None], out=self.rows)


def _regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function, for a >= 0,
    b > 0 and 0 < x < 1 (I_x(0, b) = 1, its limit).  The continued fraction
    of Numerical Recipes' betacf, by the modified Lentz method, is taken on
    the side of the distribution's mean where it converges fast.  Plain
    math, so a build maps none of scipy.special's code pages."""
    if a == 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _regularized_beta(b, a, 1.0 - x)
    tiny = 1e-300  # keeps the Lentz quotients off zero

    def step(aa: float, c: float, dd: float) -> tuple[float, float]:
        """Lentz's C and D after the fraction's next coefficient aa."""
        dd = 1.0 + aa * dd
        c = 1.0 + aa / c
        return (c if abs(c) > tiny else tiny), 1.0 / (dd if abs(dd) > tiny else tiny)

    first = 1.0 - (a + b) * x / (a + 1.0)
    c, dd = 1.0, 1.0 / (first if abs(first) > tiny else tiny)
    h = dd
    for m in range(1, 10_000):
        c, dd = step(m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)), c, dd)
        h *= dd * c
        c, dd = step(-(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)), c, dd)
        h *= dd * c
        if abs(dd * c - 1.0) < 1e-16:
            break
    return math.exp(a * math.log(x) + b * math.log1p(-x) + _log_inv_beta(a, b)) * h / a


def _log_inv_beta(a: float, b: float) -> float:
    """log(Gamma(a + b) / (Gamma(a) Gamma(b))).  When the larger argument is
    20 or more, the Stirling series of its two log-gammas is differenced
    term by term: each is about z log z, and their rounding alone, taken
    from math.lgamma, moved I_x by 1e-12 at d = 600."""
    small, big = sorted((a, b))
    if big < 20.0:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def tail(z: float) -> float:  # log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2
        r = 1.0 / (z * z)
        return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z

    return ((big - 0.5) * math.log1p(small / big) + small * math.log(big + small) - small
            + tail(big + small) - tail(big) - math.lgamma(small))


def _kept_rows(n: int, d: int, seed: int, keep_prob: float,
               fill) -> tuple[np.ndarray, np.ndarray]:
    """X and y from the first n kept rows of seed's row-major normal stream.

    Block k holds the stream's rows [k * rows, (k + 1) * rows), k * rows * d
    draws in.  fill(rng, block, lo) draws it from rng, already advanced
    there, and marks its kept rows and their labels; lo is its first row.
    """
    rows = min(span_rows(d), max(SPAN_ROW_ALIGN, math.ceil(n / keep_prob)))
    expected = math.ceil(n / (rows * keep_prob))
    ring = [_Block(rows, d) for _ in range(min(BLOCKS_IN_FLIGHT, expected))]
    source = SeededRng(seed)

    def draw(k: int) -> tuple[_Block, Future]:
        # the generator is made on this thread: 400 of them made on a worker
        # grew its malloc arena by 0.5 MB
        block = ring[k % len(ring)]
        return block, pool.submit(fill, source.advanced(k * rows * d), block, k * rows)

    X, y = np.empty((n, d)), np.empty(n)
    pool = ThreadPoolExecutor(synth_workers(len(ring)))
    try:
        pending = deque(draw(k) for k in range(len(ring)))
        k, filled = len(ring), 0
        while filled < n:
            block, done = pending.popleft()
            done.result()
            kept = np.flatnonzero(block.keep)[:n - filled]
            block.rows.take(kept, axis=0, out=X[filled:filled + kept.size], mode="clip")
            block.labels.take(kept, out=y[filled:filled + kept.size], mode="clip")
            filled += kept.size
            if filled < n:
                pending.append(draw(k))  # into the slot just emptied
                k += 1
    finally:
        pool.shutdown(cancel_futures=True)  # and wait for the running blocks
    return X, y


def synth_dataset(kind: str, n: int, d: int, seed: int, *,
                  saddle_signal: float = 2.0, saddle_noise: float = 0.5,
                  margin: float = 0.15) -> Dataset:
    """Deterministic synthetic instances; see the module docstring."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if kind == "planted_saddle":
        if d < 2:
            raise ValueError("planted_saddle needs d >= 2")

        def saddle_rows(rng, block, lo):
            Z = rng.standard_normal_into(block.rows)
            signs = block.labels  # scratch until the labels are written
            Z[:, 0] = 0.0
            block.normalize(floor=1e-300)
            np.multiply(saddle_noise, Z, out=Z)
            signs[lo % 2::2] = 1.0  # +1 on even global rows, -1 on odd ones
            signs[1 - lo % 2::2] = -1.0
            np.multiply(saddle_signal, signs, out=signs)
            Z[:, 0] += signs
            block.labels.fill(1.0)
            block.keep.fill(True)

        X, y = _kept_rows(n, d, seed, 1.0, saddle_rows)
        return Dataset(X, y, math.sqrt(saddle_signal ** 2 + saddle_noise ** 2))
    if kind == "logistic_separable":
        if not (0.0 < margin < 1.0):
            raise ValueError("margin must lie in (0, 1)")
        # P(|<x, w*>| >= margin) for x uniform on the unit sphere of R^d
        keep_prob = _regularized_beta((d - 1) / 2, 0.5, 1.0 - margin ** 2)
        if keep_prob < MIN_KEEP_PROB:
            raise ValueError(
                f"margin {margin} at d = {d} keeps a row with probability {keep_prob:.2g}, "
                f"below {MIN_KEEP_PROB:g}: the build would draw about n / {keep_prob:.2g} rows")
        w_star = np.ones(d) / math.sqrt(d)

        def separable_rows(rng, block, lo):
            rng.standard_normal_into(block.rows)
            block.normalize()
            proj = np.matmul(block.rows, w_star, out=block.labels)
            np.greater_equal(np.abs(proj, out=block.norms), margin, out=block.keep)
            # a kept row has |proj| >= margin > 0, so its sign is its label
            np.sign(proj, out=block.labels)

        X, y = _kept_rows(n, d, seed, keep_prob, separable_rows)
        return Dataset(X, y, 1.0)
    raise ValueError(f"unknown synthetic kind {kind!r}")
