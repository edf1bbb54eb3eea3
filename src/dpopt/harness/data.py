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
  * logistic_separable: rows x uniform on the unit sphere conditioned on
    |t| >= margin, t = <x, w*> with w* = ones(d) / sqrt(d), labelled sign(t),
    so logistic-family losses are driven to small gradients.  Each row is
    drawn exactly, with no rejection: 1 - t^2 ~ Beta((d - 1) / 2, 1/2), so
    its quantile (betaincinv) of a uniform on [0, P(|t| >= margin)) is
    1 - t^2 conditioned; x = t w* + sqrt(1 - t^2) v, with v, independent of
    t, d normals whose w* component is removed, normalized.

Set-up holds one copy of X.  Every loader takes the feature-norm bound R
with objective.max_row_norm, span by span.  The CSV loader drops the label
column inside np.loadtxt's own array, so X is a view of its first n * d
values (the last n stay allocated behind it).

Row i of either kind reads draws [i d, (i + 1) d) of the seed's stream 0
as normals; planted_saddle's sign comes from i, and logistic_separable's
label and t from draw i of stream 1.  A block of rows starts that far into
each stream, where PCG64 jumps straight to, so one worker thread per core
(synth_workers) writes blocks straight into X and y, each with the scratch
of one slot of a ring of BLOCKS_IN_FLIGHT.  The rows do not depend on the
block size, the worker count or the scheduling, the ring bounds the memory
above X, and no thread outlives the call.
"""

from __future__ import annotations

import math
import mmap
import warnings
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
from scipy.special import betainc, betaincinv

from ..mechanisms import SeededRng
from ..objective import Dataset, max_row_norm, row_spans, span_rows, usable_cores

_COVERTYPE_NUMERIC_COLS = 10

# the names each file-loading option of an experiment config accepts
LOADER_CHOICES = {"dataset_format": ("csv", "libsvm"),
                  "preprocessing": ("none", "covertype", "ijcnn")}

# Blocks of rows synth_dataset draws at once.  Their ring of scratch (a
# slot: a chunk of _NORM_CHUNK_BYTES and three vectors of a block's rows)
# bounds set-up's memory above X, whatever the core count.
BLOCKS_IN_FLIGHT = 4

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


def check_loader_choice(key: str, value: str, error: type = ValueError) -> None:
    """Refuse a value of a loader option that LOADER_CHOICES does not name."""
    if value not in LOADER_CHOICES[key]:
        raise error(f"unknown {key} {value!r}; choose from {LOADER_CHOICES[key]}")


def _apply_preset(X: np.ndarray, y: np.ndarray, preprocessing: str):
    if preprocessing == "covertype":
        keep = np.isin(y, (1.0, 2.0, -1.0))
        X, y = X[keep], y[keep].copy()
        y[y == 2.0] = -1.0
        if X.shape[0] == 0:
            raise ValueError("covertype preset removed every row")
        return _zscore(X, slice(0, min(_COVERTYPE_NUMERIC_COLS, X.shape[1]))), y
    if preprocessing == "ijcnn":
        return _zscore(X, slice(0, X.shape[1])), y
    return X, y


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
        start, row = fh.tell(), fh.readline()
        while row and not row.strip():
            row = fh.readline()
        # every row has the first data row's width, or loadtxt refuses the file
        width = len(row.split(","))
        if row and not -width <= label_column < width:
            raise ValueError(f"{path}: label column {label_column} is outside rows of "
                             f"{width} fields")
        fh.seek(start)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt((line for line in fh if line.strip()), delimiter=",",
                                  comments=None, ndmin=2)
        except ValueError as err:
            raise _csv_error(path, header) or ValueError(f"{path}: {err}") from None
    n, d = data.shape[0], data.shape[1] - 1
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    y = data[:, label_column].copy()
    # drop the label column inside loadtxt's buffer: span by span, row i's
    # features move to offset i * d, which is never past where they were, so
    # no copy the size of X is made
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
                    if n_features is not None and idx > n_features:
                        raise ValueError(f"index {idx} is above n_features = {n_features}")
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
                 label_column: int | None = None, n_features: int | None = None) -> Dataset:
    """Load and preprocess a dataset file into an in-memory Dataset.  A
    CSV's labels are its last column unless label_column names another."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    check_loader_choice("dataset_format", fmt)
    check_loader_choice("preprocessing", preprocessing)
    if fmt == "csv" and n_features is not None:
        raise ValueError(f"n_features = {n_features} applies to libsvm files only: a CSV "
                         "file's width is its column count")
    if fmt == "libsvm" and label_column is not None:
        raise ValueError(f"label_column = {label_column} applies to CSV files only: a libsvm "
                         "line's label is its first token")
    X, y = (_parse_csv(path, -1 if label_column is None else label_column) if fmt == "csv"
            else _parse_libsvm(path, n_features))
    X, y = _apply_preset(X, y, preprocessing)
    bad = ~np.isin(y, (-1.0, 1.0))
    if np.any(bad):
        first = int(np.argmax(bad))
        raise ValueError(
            f"{path}: label {y[first]} at data row {first} is not in {{-1, +1}} "
            f"after preprocessing {preprocessing!r}")
    return Dataset(X, y, max_row_norm(X))


def synth_workers(blocks: int = BLOCKS_IN_FLIGHT) -> int:
    """Threads synth_dataset draws `blocks` blocks in flight on: one per
    usable core, at most one per block."""
    return min(usable_cores(), blocks)


class _Block:
    """Scratch for one block in flight, a chunk of squared rows and three
    per-row vectors, so that workers make no temporaries that their malloc
    arenas would keep; the rows go straight into X.  The slot is an
    anonymous mapping, whose pages go back to the system when the call
    ends; a ring from malloc stayed in the heap, 0.4 to 0.9 MB more RSS
    after three covertype-scale set-ups."""

    def __init__(self, rows: int, d: int):
        chunk = max(1, min(rows, _NORM_CHUNK_BYTES // (8 * d)))
        floats = chunk * d + 3 * rows
        self.mapping = mmap.mmap(-1, 8 * floats)
        f = np.frombuffer(self.mapping, dtype=float, count=floats)
        self.squares = f[:chunk * d].reshape(chunk, d)
        self.norms, self.scale, self.shift = f[chunk * d:].reshape(3, rows)

    def row_norms(self, rows: np.ndarray, floor: float) -> np.ndarray:
        """Each row's norm, floored, into self.norms: np.linalg.norm's,
        sqrt(add.reduce(x * x, axis=1)), taken a chunk of rows at a time."""
        step = self.squares.shape[0]
        norms = self.norms[:rows.shape[0]]
        for lo in range(0, rows.shape[0], step):
            chunk = rows[lo:lo + step]
            sq = self.squares[:chunk.shape[0]]
            np.multiply(chunk, chunk, out=sq)
            np.add.reduce(sq, axis=1, out=norms[lo:lo + step])
        np.sqrt(norms, out=norms)
        return np.maximum(norms, floor, out=norms)


def _drawn_rows(n: int, d: int, seed: int, fill) -> tuple[np.ndarray, np.ndarray]:
    """X and y, block by block: fill(normals, uniforms, X[lo:hi], y[lo:hi],
    block, lo) writes rows [lo, hi) from seed's streams 0 and 1, advanced to
    their draws lo * d and lo, with block, a slot's scratch."""
    rows = min(span_rows(d), n)
    blocks = math.ceil(n / rows)
    ring = [_Block(rows, d) for _ in range(min(BLOCKS_IN_FLIGHT, blocks))]
    normals, uniforms = SeededRng(seed), SeededRng(seed, 1)
    X, y = np.empty((n, d)), np.empty(n)

    def draw(k: int) -> Future:
        # the generators are made on this thread: 400 of them made on a
        # worker grew its malloc arena by 0.5 MB
        lo, hi = k * rows, min(n, (k + 1) * rows)
        return pool.submit(fill, normals.advanced(lo * d), uniforms.advanced(lo),
                           X[lo:hi], y[lo:hi], ring[k % len(ring)], lo)

    pool = ThreadPoolExecutor(synth_workers(len(ring)))
    try:
        pending = deque(draw(k) for k in range(len(ring)))
        for k in range(len(ring), blocks):
            pending.popleft().result()
            pending.append(draw(k))  # into the slot just emptied
        for done in pending:
            done.result()
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

        def saddle_rows(normals, uniforms, Z, labels, block, lo):
            normals.standard_normal_into(Z)
            Z[:, 0] = 0.0
            np.divide(Z, block.row_norms(Z, 1e-300)[:, None], out=Z)
            np.multiply(saddle_noise, Z, out=Z)
            # labels holds a s_i until it is written: s_i = +1 on even
            # global rows, -1 on odd ones
            labels[lo % 2::2], labels[1 - lo % 2::2] = saddle_signal, -saddle_signal
            Z[:, 0] += labels
            labels.fill(1.0)

        X, y = _drawn_rows(n, d, seed, saddle_rows)
        return Dataset(X, y, math.sqrt(saddle_signal ** 2 + saddle_noise ** 2))
    if kind == "logistic_separable":
        if not (0.0 < margin < 1.0):
            raise ValueError("margin must lie in (0, 1)")
        a = (d - 1) / 2
        # 1 - t^2 ~ Beta((d - 1) / 2, 1/2); |t| >= margin is its lower tail
        # of mass tail, which stays representable where the upper one rounds
        # to 0 (margin 0.5 at d = 600 keeps 2.5e-39 of the sphere)
        tail = float(betainc(a, 0.5, 1.0 - margin ** 2))

        def separable_rows(normals, uniforms, V, labels, block, lo):
            s, shift = block.scale[:len(V)], block.shift[:len(V)]
            # one uniform per row: its half is the label, its place in the
            # half the quantile of 1 - t^2 within the tail
            np.modf(np.multiply(uniforms.generator.random(out=shift), 2.0, out=shift),
                    shift, labels)
            np.subtract(np.multiply(labels, 2.0, out=labels), 1.0, out=labels)
            if d > 1:
                betaincinv(a, 0.5, np.multiply(shift, tail, out=s), out=s)
                np.minimum(s, 1.0 - margin ** 2, out=s)
            else:
                s.fill(0.0)  # t^2 = 1: the sphere of R^1 is {-1, +1}
            np.sqrt(np.subtract(1.0, s, out=shift), out=shift)
            np.multiply(shift, labels, out=shift)
            np.multiply(shift, 1.0 / math.sqrt(d), out=shift)  # t w*_j
            np.sqrt(s, out=s)
            # v: normals with their mean, the w* component, removed twice, so
            # that rounding leaves no part of it even where they cancel (d = 2)
            normals.standard_normal_into(V)
            for _ in range(2):
                np.subtract(V, np.mean(V, axis=1, out=block.norms[:len(V)])[:, None], out=V)
            np.divide(s, block.row_norms(V, 1e-300), out=s)
            np.multiply(V, s[:, None], out=V)
            np.add(V, shift[:, None], out=V)

        X, y = _drawn_rows(n, d, seed, separable_rows)
        return Dataset(X, y, 1.0)
    raise ValueError(f"unknown synthetic kind {kind!r}")
