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

Set-up holds one copy of X.  The synthetic builders fill X in place, one
block of at most objective.span_rows(d) rows at a time (about
objective.SPAN_BYTES of normals), and every loader takes the feature-norm
bound R with objective.max_row_norm, span by span.  planted_saddle draws
its rows from one row-major normal stream, with signs from the global row
index; logistic_separable keeps the first n accepted rows of that stream.
Either way the rows do not depend on the block size.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from ..mechanisms import SeededRng
from ..objective import Dataset, max_row_norm, row_spans, span_rows

_COVERTYPE_NUMERIC_COLS = 10


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
    y = data[:, label_column]
    X = np.delete(data, label_column % data.shape[1], axis=1)
    return X, y


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


def synth_dataset(kind: str, n: int, d: int, seed: int, *,
                  saddle_signal: float = 2.0, saddle_noise: float = 0.5,
                  margin: float = 0.15) -> Dataset:
    """Deterministic synthetic instances; see the module docstring."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = SeededRng(seed)
    if kind == "planted_saddle":
        if d < 2:
            raise ValueError("planted_saddle needs d >= 2")
        X = np.empty((n, d))
        for lo, hi in row_spans(n, d):
            Z = rng.standard_normal((hi - lo, d))
            Z[:, 0] = 0.0
            Z /= np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1e-300)
            np.multiply(saddle_noise, Z, out=X[lo:hi])
            X[lo:hi, 0] += saddle_signal * np.where(np.arange(lo, hi) % 2 == 0, 1.0, -1.0)
        R = math.sqrt(saddle_signal ** 2 + saddle_noise ** 2)
        return Dataset(X, np.ones(n), R)
    if kind == "logistic_separable":
        if not (0.0 < margin < 1.0):
            raise ValueError("margin must lie in (0, 1)")
        w_star = np.ones(d) / math.sqrt(d)
        X = np.empty((n, d))
        filled = 0
        while filled < n:
            batch = rng.standard_normal((min(span_rows(d), max(n - filled, 64)), d))
            batch /= np.linalg.norm(batch, axis=1, keepdims=True)
            ok = np.abs(batch @ w_star) >= margin
            take = batch[ok][: n - filled]
            X[filled:filled + take.shape[0]] = take
            filled += take.shape[0]
        y = np.sign(X @ w_star)
        return Dataset(X, y, 1.0)
    raise ValueError(f"unknown synthetic kind {kind!r}")
