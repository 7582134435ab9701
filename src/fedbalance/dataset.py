"""Data ingestion, synthetic generation, non-IID partitioning, and stratified folds."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import _unique
from .seeding import derive_rng

#: Default desk-scale benchmark: six classes, two of them minority at 20:1.
DEFAULT_CLASS_COUNTS = (200, 200, 200, 200, 10, 10)
DEFAULT_FEATURE_DIM = 24


@dataclass
class Dataset:
    """Feature matrix plus integer class labels.

    ``features`` has one row per sample; ``labels`` holds class indices in
    ``0..num_classes-1``.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels disagree on sample count")
        if self.num_classes < 2:
            raise ValueError("fewer than 2 classes")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label outside 0..num_classes-1")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature values")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-class Gaussian blobs: counts, centers (C x dim), and one
    standard deviation for every class."""

    class_counts: tuple[int, ...]
    centers: np.ndarray
    scale: float
    dim: int

    def __post_init__(self):
        if len(self.class_counts) < 2 or min(self.class_counts) < 1:
            raise ValueError("class_counts must be two or more counts >= 1, "
                             f"got {list(self.class_counts)}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if self.centers.shape != (len(self.class_counts), self.dim):
            raise ValueError("class_counts and centers disagree on shape")


def make_synthetic_spec(
    class_counts: Sequence[int] = DEFAULT_CLASS_COUNTS,
    dim: int = DEFAULT_FEATURE_DIM,
    scale: float = 1.0,
    seed: int = 0,
) -> SyntheticSpec:
    """Build a SyntheticSpec with seeded random class centers in [-2, 2]^dim."""
    rng = derive_rng(seed, "centers")
    # a negative dim draws no centers and reaches SyntheticSpec's own check
    centers = rng.uniform(-2.0, 2.0, size=(len(class_counts), max(dim, 0)))
    return SyntheticSpec(
        class_counts=tuple(int(c) for c in class_counts),
        centers=centers,
        scale=float(scale),
        dim=int(dim),
    )


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Draw a dataset from per-class Gaussians; deterministic given seed.

    Rows are emitted class by class in class order, so the label vector is
    ``[0]*counts[0] + [1]*counts[1] + ...``.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for c, count in enumerate(spec.class_counts):
        rows = spec.centers[c] + spec.scale * rng.standard_normal((count, spec.dim))
        blocks.append(rows)
        labels.extend([c] * count)
    return Dataset(
        features=np.vstack(blocks),
        labels=np.asarray(labels, dtype=np.int64),
        num_classes=len(spec.class_counts),
    )


def load_csv(path, label_column="label") -> Dataset:
    """Load a one-header-row numeric CSV; label column by name or index.

    Labels (possibly strings) are mapped to contiguous class indices in
    order of first appearance; feature columns keep their file order and
    parse as Python's ``float`` does.  A label column missing from the
    header or named twice in it, a file with no other column, and a label
    column with fewer than 2 classes are errors that name the file and
    the column.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if isinstance(label_column, int):
            label_idx = label_column
            if not 0 <= label_idx < len(header):
                raise ValueError(f"{path}: label column index {label_idx} out of range")
        else:
            try:
                label_idx = header.index(label_column)
            except ValueError:
                raise ValueError(f"{path}: label column {label_column!r} not in header") from None
            copies = header.count(label_column)
            if copies > 1:
                raise ValueError(f"{path}: label column {label_column!r} appears "
                                 f"{copies} times in the header")
        if len(header) == 1:
            raise ValueError(f"{path}: no feature columns besides the label column "
                             f"{header[label_idx]!r}")

        cells = []  # every feature cell, row after row: one np.array call parses them all
        raw_labels = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: ragged row ({len(row)} cells, expected {len(header)})")
            raw_labels.append(row.pop(label_idx))
            cells += row

    if not raw_labels:
        raise ValueError(f"{path}: no data rows")
    width = len(header) - 1
    try:
        features = np.array(cells, dtype=np.float64)
    except ValueError:
        features = None
    if features is None or not np.isfinite(features).all():
        for i, cell in enumerate(cells):  # name the first bad cell
            lineno = 2 + i // width
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
            if not np.isfinite(v):
                raise ValueError(f"{path}:{lineno}: non-finite cell {cell!r}")
    label_map: dict[str, int] = {}
    labels = []
    for raw in raw_labels:
        if raw not in label_map:
            label_map[raw] = len(label_map)
        labels.append(label_map[raw])
    if len(label_map) < 2:
        raise ValueError(f"{path}: label column {header[label_idx]!r} holds fewer than "
                         f"2 classes (only {raw_labels[0]!r})")
    return Dataset(
        features=features.reshape(len(raw_labels), width),
        labels=np.asarray(labels, dtype=np.int64),
        num_classes=len(label_map),
    )


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV (feature columns f0..fD-1 plus ``label``,
    the class index)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(ds.num_features)] + ["label"])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [str(lab)])


def partition_noniid(
    ds: Dataset, n_clients: int, concentration: float = 0.5, seed: int = 0
) -> list[np.ndarray]:
    """Label-skew partition via a seeded per-class Dirichlet draw; returns
    client i's sorted row indices at position i.

    For each class, client proportions come from Dirichlet(concentration);
    the class's (shuffled) indices are split at the cumulative-proportion
    boundaries.  The draw is resampled up to 100 times until every client
    holds at least 2 samples spanning at least 2 classes.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    rng = np.random.default_rng(seed)
    class_indices = [np.flatnonzero(ds.labels == c) for c in range(ds.num_classes)]

    for _ in range(100):
        proportions = rng.dirichlet([concentration] * n_clients, size=ds.num_classes)
        per_client: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for c, idx in enumerate(class_indices):
            shuffled = rng.permutation(idx)
            bounds = (np.cumsum(proportions[c]) * len(idx)).astype(int)
            for client_id, part in enumerate(np.split(shuffled, bounds[:-1])):
                per_client[client_id].append(part)
        shards = [np.sort(np.concatenate(parts)) for parts in per_client]
        ok = all(
            len(s) >= 2 and len(_unique(ds.labels[s])) >= 2 for s in shards
        )
        if ok:
            return shards
    raise ValueError(
        f"cannot give each of {n_clients} clients >=2 samples and >=2 classes in 100 draws "
        f"(concentration={concentration})"
    )


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Stratified fold assignment: per-class seeded shuffle, round-robin deal.
    Returns each row's fold, an int64 array as long as ``labels``.

    The deal pointer carries over from one class to the next, which keeps
    total fold sizes within 1 of each other as well as per-class counts.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > len(labels):
        raise ValueError(f"k={k} exceeds sample count {len(labels)}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels), dtype=np.int64)
    pointer = 0
    for c in _unique(labels):
        perm = rng.permutation(np.flatnonzero(labels == c))
        assignment[perm] = (pointer + np.arange(len(perm))) % k
        pointer += len(perm)
    return assignment
