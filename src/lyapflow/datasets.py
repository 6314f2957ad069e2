"""Dataset loading, normalisation and synthetic generators."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Dataset",
    "CsvSchema",
    "load_csv",
    "normalize",
    "gen_blobs",
    "gen_linreg",
]


@dataclass
class Dataset:
    """Immutable-by-convention sample table: inputs (N, n), targets (N, m)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise DataError("inputs and targets must be 2-d arrays")
        if len(self.inputs) != len(self.targets):
            raise DataError(
                f"{len(self.inputs)} input rows vs {len(self.targets)} target rows"
            )
        if len(self.inputs) == 0:
            raise DataError("dataset is empty")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise DataError("dataset contains non-finite values")

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_targets(self) -> int:
        return self.targets.shape[1]

    def sample(self, i: int):
        return self.inputs[i].copy(), self.targets[i].copy()


@dataclass(frozen=True)
class CsvSchema:
    """Which header names are features and which are targets."""

    features: tuple
    targets: tuple

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.features or not self.targets:
            raise DataError("schema needs at least one feature and one target column")
        overlap = set(self.features) & set(self.targets)
        if overlap:
            raise DataError(f"columns listed as both feature and target: {sorted(overlap)}")


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Read a headered CSV into a Dataset.

    Every schema column must appear in the header; any row with a missing or
    non-numeric cell in a schema column is reported by its 1-based data row
    number (header excluded), and the whole load fails.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty (header row required)") from None
        header = [h.strip() for h in header]
        cols = {}
        missing = [c for c in schema.features + schema.targets if c not in header]
        if missing:
            raise DataError(f"{path}: header lacks columns {missing}; found {header}")
        for c in schema.features + schema.targets:
            cols[c] = header.index(c)

        xs, ys, bad = [], [], []
        for rownum, row in enumerate(reader, start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            try:
                fx = [_cell(row, cols[c]) for c in schema.features]
                fy = [_cell(row, cols[c]) for c in schema.targets]
            except ValueError:
                # keep scanning so the error names every bad row at once
                bad.append(rownum)
                continue
            xs.append(fx)
            ys.append(fy)
        if bad:
            raise DataError(f"{path}: non-numeric or missing cells in data rows {bad}")
        if not xs:
            raise DataError(f"{path}: no data rows")
    return Dataset(np.array(xs), np.array(ys))


def _cell(row, idx) -> float:
    if idx >= len(row) or row[idx].strip() == "":
        raise ValueError("missing cell")
    val = float(row[idx])
    if not math.isfinite(val):
        raise ValueError("non-finite cell")
    return val


def normalize(dataset: Dataset) -> Dataset:
    """Min-max scale each feature column onto [0, 1].

    Constant columns cannot be scaled; they are set to all zeros.
    """
    lo = dataset.inputs.min(axis=0)
    hi = dataset.inputs.max(axis=0)
    span = hi - lo
    out = np.zeros_like(dataset.inputs)
    for j in range(dataset.n_features):
        if span[j] != 0.0:
            out[:, j] = (dataset.inputs[:, j] - lo[j]) / span[j]
    return Dataset(out, dataset.targets.copy())


def gen_blobs(seed: int, per_class: int = 50, separation: float = 5.0) -> Dataset:
    """Two 4-d Gaussian clusters with binary targets.

    Cluster means sit at +/- separation/2 along the unit diagonal, so the
    means are `separation` apart and a bias-free hyperplane through the
    origin can separate them.  separation=0 stacks both classes on the same
    mean (the hard case).  Unit isotropic noise.
    """
    rng = np.random.default_rng(seed)
    dim = 4
    u = np.ones(dim) / np.sqrt(dim)
    mean1 = (separation / 2.0) * u
    x0 = rng.normal(loc=-mean1, scale=1.0, size=(per_class, dim))
    x1 = rng.normal(loc=mean1, scale=1.0, size=(per_class, dim))
    xs = np.vstack([x0, x1])
    ys = np.vstack([np.zeros((per_class, 1)), np.ones((per_class, 1))])
    return Dataset(xs, ys)


def gen_linreg(seed: int, count: int = 40, noise_sd: float = 0.0,
               coeffs=(1.0, 2.0, -1.0, 0.5)) -> Dataset:
    """Linear targets y = coeffs . x (+ Gaussian noise), x uniform on [0,1]^n."""
    rng = np.random.default_rng(seed)
    coeffs = np.asarray(coeffs, dtype=float)
    xs = rng.uniform(0.0, 1.0, size=(count, coeffs.size))
    ys = xs @ coeffs
    if noise_sd > 0:
        ys = ys + rng.normal(0.0, noise_sd, size=ys.shape)
    return Dataset(xs, ys[:, None])
