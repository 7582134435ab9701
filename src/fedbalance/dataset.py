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
        if not 0 < self.scale < np.inf:  # NaN fails too
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
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
    ``[0]*counts[0] + [1]*counts[1] + ...``.  A scale so large that a
    feature overflows is a ValueError that names ``scale``.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    with np.errstate(over="ignore"):
        for c, count in enumerate(spec.class_counts):
            rows = spec.centers[c] + spec.scale * rng.standard_normal((count, spec.dim))
            blocks.append(rows)
            labels.extend([c] * count)
    features = np.vstack(blocks)
    if not np.all(np.isfinite(features)):
        raise ValueError(f"scale {spec.scale!r} is too large: features overflow to infinity")
    return Dataset(
        features=features,
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
    the column.  Every other malformed file fails with a ValueError that
    names the file and, where it is known, the line.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")
    try:
        parsed = _parse_plain(path, label_column)
    except UnicodeDecodeError:
        parsed = None
    if parsed is None:  # a quoted field, a CR or something malformed somewhere
        try:
            parsed = _parse_quoted(path, label_column)
        except UnicodeDecodeError:
            raise ValueError(_not_utf8(path)) from None
    header, label_idx, raw_labels, features = parsed
    label_map: dict[str, int] = {}
    labels = []
    for raw in raw_labels:
        if raw not in label_map:
            label_map[raw] = len(label_map)
        labels.append(label_map[raw])
    if len(label_map) < 2:
        raise ValueError(f"{path}: label column {header[label_idx]!r} holds fewer than "
                         f"2 classes (only {raw_labels[0]!r})")
    return Dataset(features=features, labels=np.asarray(labels, dtype=np.int64),
                   num_classes=len(label_map))


def _label_index(path, header: list[str], label_column) -> int:
    """The label column's position in ``header``; raises for a header the
    label column does not fit."""
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
    return label_idx


def _parse_quoted(path, label_column):
    """(header, label index, raw labels, features) of any CSV, through
    ``csv.reader``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            label_idx = _label_index(path, header, label_column)
            cells = []  # every feature cell, row after row: one np.array call parses them all
            raw_labels = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ValueError(f"{path}:{lineno}: ragged row ({len(row)} cells, "
                                     f"expected {len(header)})")
                raw_labels.append(row.pop(label_idx))
                cells += row
        except csv.Error as exc:  # a cell over csv.field_size_limit(), say
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
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
    return header, label_idx, raw_labels, features.reshape(-1, width)


# The plain parse reads about this many bytes of whole lines at a time.
_CHUNK_BYTES = 256 << 10


def _parse_plain(path, label_column):
    """``_parse_quoted`` of a well-formed file that holds no '"' and no
    '\\r', where each line is a row and each ',' ends a cell, without
    ``csv.reader``.  None for any other file, and for a file with a line
    of the wrong cell count, a line longer than ``csv.field_size_limit()``
    or a feature cell ``np.loadtxt`` rejects or reads as non-finite:
    ``_parse_quoted`` then reads it and reports what is wrong.

    ``np.loadtxt`` parses a chunk's feature cells with the parser Python's
    ``float`` calls, on the same text, so the two give the same bits
    whenever both succeed.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first or b'"' in first or b"\r" in first or len(first) > limit:
            return None
        line = first.decode("utf-8").removesuffix("\n")
        header = line.split(",") if line else []
        label_idx = _label_index(path, header, label_column)
        ncols = len(header)
        feature_cols = [j for j in range(ncols) if j != label_idx]
        after = ncols - 1 - label_idx  # cells after the label's; it is split off the nearer end
        blocks, raw_labels = [], []
        while chunk := fh.read(_CHUNK_BYTES):
            chunk += fh.readline()
            if b'"' in chunk or b"\r" in chunk:
                return None
            lines = chunk.decode("utf-8").split("\n")
            if not lines[-1]:  # the chunk's final newline
                lines.pop()
            counts = list(map(str.count, lines, [","] * len(lines)))
            if counts.count(ncols - 1) != len(lines) or max(map(len, lines)) > limit:
                return None
            if label_idx <= after:
                raw_labels += [line.split(",", label_idx + 1)[label_idx] for line in lines]
            else:
                raw_labels += [line.rsplit(",", after + 1)[-after - 1] for line in lines]
            try:
                block = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                                   usecols=feature_cols, ndmin=2)
            except ValueError:
                return None
            if not np.isfinite(block).all():
                return None
            blocks.append(block)
    if not raw_labels:
        return None
    return header, label_idx, raw_labels, np.concatenate(blocks) if len(blocks) > 1 else blocks[0]


def _not_utf8(path) -> str:
    """The error message for a file that is not valid UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        return f"{path}:{lineno}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
    return f"{path}: not valid UTF-8"


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV (feature columns f0..fD-1 plus ``label``,
    the class index)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
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
    if not 0 < concentration < np.inf:
        raise ValueError(f"concentration must be finite and > 0, got {concentration}")
    if 2 * n_clients > len(ds):  # before the draw, whose size grows with n_clients
        raise ValueError(f"cannot give each of {n_clients} clients >=2 samples from "
                         f"{len(ds)} rows")
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
