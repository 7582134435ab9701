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

from .metrics import _unique

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
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not self.regularization >= 0:
            raise ValueError(f"regularization must be >= 0, got {self.regularization}")
        if self.learning_rate * self.regularization >= 1:
            # the per-step shrink 1 - lr * reg must stay positive
            raise ValueError(f"regularization must be < 1 / learning_rate = {1 / self.learning_rate:g}, "
                             f"got {self.regularization}")
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


# float64 values in each (query block, n) temporary of knn_table: 256 KiB
_BLOCK_VALUES = 1 << 15


def _squared_dists(points: np.ndarray, query_row: int) -> np.ndarray:
    """The defining distance: sums of squared differences to one row."""
    diff = points - points[query_row]
    return np.einsum("ij,ij->i", diff, diff)


def _pair_dists(points: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distance from ``points[rows[t]]`` to ``points[cols[t]]`` for
    every t, each with the bits of ``_squared_dists(points, rows[t])[cols[t]]``."""
    out = np.empty(len(rows))
    step = max(1, _BLOCK_VALUES // points.shape[1])
    for lo in range(0, len(rows), step):
        diff = points[cols[lo:lo + step]] - points[rows[lo:lo + step]]
        out[lo:lo + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def knn_table(points: np.ndarray, k: int, queries: np.ndarray | None = None) -> np.ndarray:
    """The k nearest other rows of ``points`` to each query row, as a
    ``(len(queries), k)`` int64 array; ``queries`` defaults to every row.
    A query row is never its own neighbour.

    Rows are ordered by (squared distance as ``_squared_dists`` sums it, row
    index).  Only those exact sums decide the order.  One matrix product per
    block of queries prunes the rows that cannot reach the k nearest:

        approx = |q|^2 + |x|^2 - 2 q.x,  E = c (eps (|q|^2 + |x|^2) + eta),  c = 8 (d + 2)

    with eps = 2^-52 and eta the smallest subnormal.  Let u = eps / 2 and
    s = |q|^2 + |x|^2.  The exact sum lies within 2 (d + 1) u s of the true
    distance, which is at most 2 s; the two norms together within d u s; the
    doubled product, in any summation order, within d u s; the add and the
    subtract within 3 u s.  So |approx - exact sum| < (4 d + 5) u s < c eps s / 3,
    and the rest of the margin covers the rounding of E and of approx +- E;
    c eta covers products that underflow.  A row whose approx - E exceeds the
    k-th smallest approx + E is therefore not among the k nearest, and only
    the other rows, the candidates, get their exact sum.  A non-finite approx
    or E keeps its row a candidate.  The answer thus never depends on the
    data's scale or a common offset; a loose bound only costs time.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n, d = points.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n - 1:
        raise ValueError(f"k={k} exceeds {n - 1} candidates")
    queries = np.arange(n) if queries is None else np.asarray(queries, dtype=np.int64).reshape(-1)
    outside = np.flatnonzero((queries < 0) | (queries >= n))
    if len(outside):
        raise ValueError(f"query row {queries[outside[0]]} is out of range for {n} rows")

    sq = np.einsum("ij,ij->i", points, points)
    c = 8.0 * (d + 2)
    eps, eta = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
    out = np.empty((len(queries), k), dtype=np.int64)
    step = max(1, _BLOCK_VALUES // n)
    for lo in range(0, len(queries), step):
        q = queries[lo:lo + step]
        block = np.arange(len(q))
        bound = sq[q, None] + sq  # |q|^2 + |x|^2, in place from here on
        approx = points[q] @ points.T
        approx *= -2.0
        approx += bound
        bound *= c * eps
        bound += c * eta
        upper = approx + bound
        upper[block, q] = np.inf
        upper.partition(k - 1, axis=1)
        approx -= bound  # the lower bound
        near = ~(approx > upper[:, k - 1:k])  # NaN compares False: stays a candidate
        near[block, q] = False
        flat = np.flatnonzero(near)
        rows, cols = np.divmod(flat, n)
        d2 = _pair_dists(points, q[rows], cols)
        order = np.lexsort((cols, d2, rows))
        starts = np.searchsorted(rows, block)
        out[lo:lo + len(q)] = cols[order][starts[:, None] + np.arange(k)]
    return out


def knn_indices(points: np.ndarray, query_row: int, k: int) -> np.ndarray:
    """Indices of the k nearest other rows to ``points[query_row]``, in
    ``knn_table``'s (distance, index) order."""
    return knn_table(points, k, [query_row])[0]


def _neighbor_table(rows: np.ndarray, seed_positions: np.ndarray, k: int) -> dict[int, np.ndarray]:
    k_eff = min(k, len(rows) - 1)
    seeds = _unique(seed_positions)
    return dict(zip(seeds.tolist(), knn_table(rows, k_eff, seeds)))


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


def fit_linear_svm(features: np.ndarray, binary_labels: np.ndarray, params: SvmParams):
    """Linear decision functions by full-batch subgradient descent on hinge loss.

    ``binary_labels`` is ``(n,)`` or ``(n, C)`` in {-1, +1}; each column is
    one problem and must hold both signs.  Every epoch is one step taken at
    the epoch's starting weights: with F = X W + b and G = Y * (Y F < 1),
    W <- (1 - lr reg)**n W + lr X^T G and b <- b + lr sum(G).  That is one
    cyclic pass over the rows with every margin read before the pass.
    Returns ``(w, float b)`` for 1-D labels and ``(W (d, C), b (C,))`` for
    2-D labels.
    """
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(binary_labels, dtype=np.float64)
    single = Y.ndim == 1
    if single:
        Y = Y[:, None]
    if Y.ndim != 2 or len(Y) != len(X):
        raise ValueError(f"binary_labels must be ({len(X)},) or ({len(X)}, C), got {Y.shape}")
    for j, column in enumerate(Y.T):
        if set(_unique(column)) != {-1.0, 1.0}:
            raise ValueError(f"binary_labels column {j} must contain both -1 and +1")
    lr = params.learning_rate
    shrink = (1.0 - lr * params.regularization) ** len(X)
    W = np.zeros((X.shape[1], Y.shape[1]))
    b = np.zeros(Y.shape[1])
    for _ in range(params.epochs):
        G = Y * (Y * (X @ W + b) < 1.0)
        W = shrink * W + lr * (X.T @ G)
        b = b + lr * G.sum(axis=0)
    if single:
        return W[:, 0], float(b[0])
    return W, b


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
    votes = labels[knn_table(X, enn_k)]
    counts = (votes[:, :, None] == np.arange(labels.max() + 1)).sum(axis=1)
    tied = np.count_nonzero(counts == counts.max(axis=1, keepdims=True), axis=1) > 1
    return tied | (np.argmax(counts, axis=1) == labels)  # a tie has no strict majority


def tomek_links(features: np.ndarray, labels: np.ndarray) -> list[tuple[int, int]]:
    """Unordered pairs (i, j), i < j, of mutual nearest neighbours with
    differing labels.  Nearest-neighbour ties resolve to the lower index."""
    X = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(X)
    if n < 2:
        raise ValueError("need at least 2 rows")
    nn = knn_table(X, 1)[:, 0]
    rows = np.arange(n)
    linked = (rows < nn) & (nn[nn] == rows) & (labels != labels[nn])
    return [(int(i), int(nn[i])) for i in np.flatnonzero(linked)]


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
        self.features = np.asarray(features, dtype=np.float64)  # once, not once per class
        self.labels = np.asarray(labels, dtype=np.int64)
        self.k = k
        self.m = m

    def __call__(self, class_rows, class_label, positions):
        m_eff = min(self.m, len(self.features) - 1)
        neigh = knn_table(self.features, m_eff, positions)
        n_other = np.count_nonzero(self.labels[neigh] != class_label, axis=1)
        danger = np.flatnonzero((m_eff / 2.0 <= n_other) & (n_other < m_eff))
        if not len(danger):
            return np.arange(len(class_rows))
        return danger


class _MarginSeeds:
    """SVM-SMOTE seed selection: minority rows inside the margin |f(x)| <= 1
    of a one-vs-rest linear SVM; if none, the m rows closest to the boundary.

    The first call fits, in one ``fit_linear_svm`` call, the SVM of every
    class that ``_balance`` seeds: present, with at least 2 rows, and below
    the majority count.  Each call then reads its own class's column.
    """

    def __init__(self, features, labels, k, m, svm_params):
        self.features = np.asarray(features)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.k = k
        self.m = m
        self.svm_params = svm_params
        self.columns = None

    def _fit(self):
        counts = _class_counts(self.labels)
        classes = np.flatnonzero((counts >= 2) & (counts < counts.max()))
        Y = np.where(self.labels[:, None] == classes, 1.0, -1.0)
        self.W, self.b = fit_linear_svm(self.features, Y, self.svm_params)
        self.columns = {int(c): j for j, c in enumerate(classes)}

    def __call__(self, class_rows, class_label, positions):
        if self.columns is None:
            self._fit()
        j = self.columns[class_label]
        f = np.asarray(class_rows, dtype=np.float64) @ self.W[:, j] + self.b[j]
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
    if not np.isfinite(features).all():
        row = np.argmin(np.isfinite(features.reshape(len(features), -1)).all(axis=1))
        raise ValueError(f"features row {row} is not finite")
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
