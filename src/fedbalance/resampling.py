"""Seeded, deterministic class-balancing samplers.

Six techniques share a common contract: given (features, labels) and a
:class:`SamplerSpec`, return a :class:`ResampledSet` whose non-majority
classes are padded up to the majority count (pure oversamplers) and then
optionally cleaned (hybrid methods).  All randomness flows through the
caller's generator; distances are Euclidean with ties broken by lower
row index, so every output is reproducible bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

SAMPLER_NAMES = (
    "smote",
    "borderline_smote",
    "random_over",
    "svm_smote",
    "smote_enn",
    "smote_tomek",
)


@dataclass(frozen=True)
class SvmParams:
    learning_rate: float = 0.01
    epochs: int = 200
    regularization: float = 1e-3

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.regularization < 0:
            raise ValueError(f"regularization must be >= 0, got {self.regularization}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class SamplerSpec:
    """Which technique to apply plus its hyperparameters."""

    kind: str
    k_neighbors: int = 5
    m_neighbors: int = 10
    enn_k: int = 3
    svm: SvmParams = field(default_factory=SvmParams)

    def __post_init__(self):
        if self.kind not in SAMPLER_NAMES:
            raise ValueError(f"unknown sampler {self.kind!r}; valid: {', '.join(SAMPLER_NAMES)}")
        for name in ("k_neighbors", "m_neighbors", "enn_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class ResampledSet:
    """Resampling output: surviving originals first, synthetics after.

    ``is_synthetic`` flags generated rows; ``source_indices`` maps each
    original row back to its position in the input (-1 for synthetics).
    """

    features: np.ndarray
    labels: np.ndarray
    is_synthetic: np.ndarray
    source_indices: np.ndarray
    source_counts: np.ndarray
    result_counts: np.ndarray


def _squared_dists(points: np.ndarray, query_row: int) -> np.ndarray:
    diff = points - points[query_row]
    return np.einsum("ij,ij->i", diff, diff)


def knn_indices(points: np.ndarray, query_row: int, k: int, exclude_self: bool = True) -> np.ndarray:
    """Indices of the k nearest rows to ``points[query_row]``.

    Ascending by Euclidean distance, ties broken by lower row index.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    candidates = n - 1 if exclude_self else n
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > candidates:
        raise ValueError(f"k={k} exceeds {candidates} candidates")
    d2 = _squared_dists(points, query_row)
    order = np.argsort(d2, kind="stable")
    if exclude_self:
        order = order[order != query_row]
    return order[:k]


def _neighbor_table(rows: np.ndarray, seed_positions: np.ndarray, k: int) -> dict[int, np.ndarray]:
    k_eff = min(k, len(rows) - 1)
    return {int(s): knn_indices(rows, int(s), k_eff, exclude_self=True) for s in np.unique(seed_positions)}


def _synthesize(rows: np.ndarray, seed_positions: np.ndarray, k: int, n_new: int, rng) -> np.ndarray:
    """SMOTE interpolation: p drawn from the seed pool, q from p's k nearest
    same-class neighbors, result p + lam * (q - p) with lam uniform in [0, 1]."""
    neighbors = _neighbor_table(rows, seed_positions, k)
    k_eff = min(k, len(rows) - 1)
    out = np.empty((n_new, rows.shape[1]), dtype=rows.dtype)
    for t in range(n_new):
        p = int(seed_positions[rng.integers(len(seed_positions))])
        q = int(neighbors[p][rng.integers(k_eff)])
        lam = rng.random()
        out[t] = rows[p] + (rows[q] - rows[p]) * rows.dtype.type(lam)
    return out


def smote(minority: np.ndarray, k: int, n_new: int, rng) -> np.ndarray:
    """n_new synthetic rows interpolated within one minority class.

    k is clamped to rows-1 when larger; fewer than 2 rows is an error
    (the balance drivers fall back to random replication in that case).
    """
    minority = np.asarray(minority)
    if len(minority) < 2:
        raise ValueError("smote needs at least 2 minority rows")
    return _synthesize(minority, np.arange(len(minority)), k, n_new, rng)


def fit_linear_svm(features: np.ndarray, binary_labels: np.ndarray, params: SvmParams) -> tuple[np.ndarray, float]:
    """Linear decision function by cyclic subgradient descent on hinge loss.

    Labels must be in {-1, +1} with both present.  Samples are visited in
    fixed order each epoch, so the result is a pure function of the inputs.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(binary_labels, dtype=np.float64)
    present = set(np.unique(y))
    if present != {-1.0, 1.0}:
        raise ValueError("binary_labels must contain both -1 and +1")
    w = np.zeros(X.shape[1])
    b = 0.0
    lr, reg = params.learning_rate, params.regularization
    # Everything that does not depend on w is computed once: the row views,
    # the hinge steps lr * y_i * x_i and lr * y_i, and the shrink factor.
    # The updates are the plain per-row loop's operations in its order, so
    # (w, b) is bit for bit what that loop gives.
    shrink = 1.0 - lr * reg
    rows = list(X)
    signs = y.tolist()
    b_steps = [lr * yi for yi in signs]
    w_steps = [lr * yi * xi for yi, xi in zip(signs, X)]
    multiply, add = np.multiply, np.add
    for _ in range(params.epochs):
        for xi, yi, w_step, b_step in zip(rows, signs, w_steps, b_steps):
            margin = yi * (xi.dot(w) + b)
            multiply(w, shrink, out=w)
            if margin < 1.0:
                add(w, w_step, out=w)
                b += b_step
    return w, float(b)


def enn_filter(features: np.ndarray, labels: np.ndarray, enn_k: int) -> np.ndarray:
    """Edited-nearest-neighbours keep mask over all classes.

    Row i survives iff the strict-majority class among its enn_k nearest
    other rows equals labels[i]; a tie for the majority keeps the row.
    """
    X = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(X)
    if n <= enn_k:
        raise ValueError(f"need more than enn_k={enn_k} rows, got {n}")
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        neigh = knn_indices(X, i, enn_k, exclude_self=True)
        counts = np.bincount(labels[neigh])
        top = counts.max()
        if np.count_nonzero(counts == top) > 1:
            continue  # no strict majority
        keep[i] = int(np.argmax(counts)) == labels[i]
    return keep


def tomek_links(features: np.ndarray, labels: np.ndarray) -> list[tuple[int, int]]:
    """Unordered pairs (i, j), i < j, of mutual nearest neighbours with
    differing labels.  Nearest-neighbour ties resolve to the lower index."""
    X = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(X)
    if n < 2:
        raise ValueError("need at least 2 rows")
    nn = np.empty(n, dtype=np.int64)
    for i in range(n):
        nn[i] = knn_indices(X, i, 1, exclude_self=True)[0]
    links = []
    for i in range(n):
        j = nn[i]
        if i < j and nn[j] == i and labels[i] != labels[j]:
            links.append((i, int(j)))
    return links


def _class_counts(labels: np.ndarray) -> np.ndarray:
    return np.bincount(labels, minlength=int(labels.max()) + 1)


def _replicate(rows: np.ndarray, n_new: int, rng) -> np.ndarray:
    picks = rng.integers(0, len(rows), size=n_new)
    return rows[picks]


def _balance(features: np.ndarray, labels: np.ndarray, rng, seed_selector) -> ResampledSet:
    """Pad every non-majority class up to the majority count.

    ``seed_selector(class_rows, class_label, global_positions)`` returns the
    positions (into class_rows) eligible as interpolation seeds.  Classes
    are padded by random replication instead when the selector is None or
    the class has a single row.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    counts = _class_counts(labels)
    present = np.flatnonzero(counts)
    if len(present) < 2:
        raise ValueError("need at least 2 classes")
    majority = int(counts.max())

    synth_blocks, synth_labels = [], []
    for c in present:
        n_new = majority - int(counts[c])
        if n_new == 0:
            continue
        positions = np.flatnonzero(labels == c)
        class_rows = features[positions]
        if seed_selector is None or len(class_rows) < 2:
            synth_blocks.append(_replicate(class_rows, n_new, rng))
        else:
            seeds = seed_selector(class_rows, int(c), positions)
            synth_blocks.append(_synthesize(class_rows, seeds, seed_selector.k, n_new, rng))
        synth_labels.append(np.full(n_new, c, dtype=np.int64))

    if synth_blocks:
        out_features = np.concatenate([features] + synth_blocks)
        out_labels = np.concatenate([labels] + synth_labels)
    else:
        out_features = features.copy()
        out_labels = labels.copy()
    n_orig, n_total = len(features), len(out_features)
    is_synthetic = np.zeros(n_total, dtype=bool)
    is_synthetic[n_orig:] = True
    source_indices = np.concatenate([np.arange(n_orig), np.full(n_total - n_orig, -1)])
    return ResampledSet(
        features=out_features,
        labels=out_labels,
        is_synthetic=is_synthetic,
        source_indices=source_indices,
        source_counts=counts,
        result_counts=_class_counts(out_labels),
    )


class _PlainSeeds:
    def __init__(self, k):
        self.k = k

    def __call__(self, class_rows, class_label, positions):
        return np.arange(len(class_rows))


class _DangerSeeds:
    """Borderline-SMOTE-1 seed selection: DANGER rows only.

    A minority row is DANGER when, among its m nearest rows in the full
    set, the other-class count lies in [m/2, m).  All other-class
    neighbours means noise, not danger; no DANGER rows at all means fall
    back to plain SMOTE for that class.
    """

    def __init__(self, features, labels, k, m):
        self.features = np.asarray(features)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.k = k
        self.m = m

    def __call__(self, class_rows, class_label, positions):
        m_eff = min(self.m, len(self.features) - 1)
        danger = []
        for pos_in_class, i in enumerate(positions):
            neigh = knn_indices(self.features, int(i), m_eff, exclude_self=True)
            n_other = int(np.sum(self.labels[neigh] != class_label))
            if m_eff / 2.0 <= n_other < m_eff:
                danger.append(pos_in_class)
        if not danger:
            return np.arange(len(class_rows))
        return np.asarray(danger, dtype=np.int64)


class _MarginSeeds:
    """SVM-SMOTE seed selection: minority rows inside the margin |f(x)| <= 1
    of a one-vs-rest linear SVM; if none, the m rows closest to the boundary."""

    def __init__(self, features, labels, k, m, svm_params):
        self.features = np.asarray(features)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.k = k
        self.m = m
        self.svm_params = svm_params

    def __call__(self, class_rows, class_label, positions):
        y = np.where(self.labels == class_label, 1.0, -1.0)
        w, b = fit_linear_svm(self.features, y, self.svm_params)
        f = np.asarray(class_rows, dtype=np.float64) @ w + b
        in_margin = np.flatnonzero(np.abs(f) <= 1.0)
        if len(in_margin):
            return in_margin
        m_eff = min(self.m, len(class_rows))
        return np.argsort(np.abs(f), kind="stable")[:m_eff]


def random_oversample(features: np.ndarray, labels: np.ndarray, rng) -> ResampledSet:
    """Pad every non-majority class to the majority count by replicating
    its own rows uniformly with replacement."""
    return _balance(features, labels, rng, None)


def borderline_smote(features: np.ndarray, labels: np.ndarray, spec: SamplerSpec, rng) -> ResampledSet:
    return _balance(features, labels, rng, _DangerSeeds(features, labels, spec.k_neighbors, spec.m_neighbors))


def svm_smote(features: np.ndarray, labels: np.ndarray, spec: SamplerSpec, rng) -> ResampledSet:
    return _balance(features, labels, rng, _MarginSeeds(features, labels, spec.k_neighbors, spec.m_neighbors, spec.svm))


def _apply_keep_mask(base: ResampledSet, keep: np.ndarray, source_counts: np.ndarray) -> ResampledSet:
    """Filter a balanced set by a keep mask, restoring any class the
    cleaning step would wipe out entirely."""
    for c in np.flatnonzero(_class_counts(base.labels)):
        class_mask = base.labels == c
        if not np.any(keep & class_mask):
            keep = keep | class_mask
            warnings.warn(
                f"cleaning removed every row of class {c}; restoring its pre-cleaning rows",
                stacklevel=3,
            )
    return ResampledSet(
        features=base.features[keep],
        labels=base.labels[keep],
        is_synthetic=base.is_synthetic[keep],
        source_indices=base.source_indices[keep],
        source_counts=source_counts,
        result_counts=_class_counts(base.labels[keep]),
    )


def resample(features: np.ndarray, labels: np.ndarray, spec: SamplerSpec, rng) -> ResampledSet:
    """Dispatch to the technique named by ``spec.kind``.

    Hybrid methods run SMOTE balancing first, then clean the union:
    smote_enn applies the ENN keep mask to all classes; smote_tomek drops
    the majority-class member of every Tomek link (majority judged on the
    input counts).  A cleaning step is never allowed to erase a class.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    counts = _class_counts(labels)
    if len(np.flatnonzero(counts)) < 2:
        raise ValueError("need at least 2 classes")

    if spec.kind == "random_over":
        return random_oversample(features, labels, rng)
    if spec.kind == "borderline_smote":
        return borderline_smote(features, labels, spec, rng)
    if spec.kind == "svm_smote":
        return svm_smote(features, labels, spec, rng)

    base = _balance(features, labels, rng, _PlainSeeds(spec.k_neighbors))
    if spec.kind == "smote":
        return base
    if spec.kind == "smote_enn":
        keep = enn_filter(base.features, base.labels, spec.enn_k)
        return _apply_keep_mask(base, keep, counts)
    if spec.kind == "smote_tomek":
        majority_class = int(np.argmax(counts))
        keep = np.ones(len(base.labels), dtype=bool)
        for i, j in tomek_links(base.features, base.labels):
            if base.labels[i] == majority_class:
                keep[i] = False
            if base.labels[j] == majority_class:
                keep[j] = False
        return _apply_keep_mask(base, keep, counts)
    raise AssertionError(f"unhandled sampler kind {spec.kind!r}")
