"""Seeded, deterministic class-balancing samplers.

Six techniques run through one pipeline, :func:`resample`, which takes
(features, labels) and a :class:`SamplerSpec` and returns a
:class:`ResampledSet`:

1. *Seed rule.*  ``spec.kind`` picks the rows of a class that may seed a
   SMOTE interpolation: none for ``random_over``, which replicates rows;
   every row for ``smote``, ``smote_enn`` and ``smote_tomek``; DANGER rows
   for ``borderline_smote``; margin rows of a linear SVM for ``svm_smote``.
2. *Pad.*  Every non-majority class is brought up to the majority count;
   a class with a single row is replicated whatever the rule.
3. *Clean.*  ``smote_enn`` and ``smote_tomek`` then keep rows by a mask; a
   class the mask would erase is restored.

All randomness flows through the caller's generator; distances are
Euclidean with ties broken by lower row index, so every output is
reproducible bit for bit.
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


def _synthesize(rows: np.ndarray, seed_positions: np.ndarray, k: int, n_new: int, rng) -> np.ndarray:
    """SMOTE interpolation within one class of at least 2 rows: p drawn from
    the seed pool, q from p's k nearest same-class neighbors (k clamped to
    rows - 1), result p + lam * (q - p) with lam uniform in [0, 1].  The
    generator draws every p, then every q, then every lam, as three blocks."""
    k_eff = min(k, len(rows) - 1)
    seeds = _unique(seed_positions)
    p = seed_positions[rng.integers(len(seed_positions), size=n_new)]
    q = knn_table(rows, k_eff, seeds)[np.searchsorted(seeds, p), rng.integers(k_eff, size=n_new)]
    lam = rng.random(n_new).astype(rows.dtype)
    return rows[p] + (rows[q] - rows[p]) * lam[:, None]


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


# A seed rule maps (class label, the class's row positions in the whole set)
# to the positions, within the class, eligible as interpolation seeds.


def _every_row(c: int, positions: np.ndarray) -> np.ndarray:
    return np.arange(len(positions))


def _danger_rule(features: np.ndarray, labels: np.ndarray, m: int):
    """Borderline-SMOTE-1 seeds: DANGER rows only.

    A row is DANGER when, among its m nearest rows in the full set, the
    other-class count lies in [m/2, m).  All other-class neighbours means
    noise, not danger; a class with no DANGER rows falls back to plain
    SMOTE, every row a seed.
    """
    points = np.asarray(features, dtype=np.float64)  # once, not once per class
    m_eff = min(m, len(points) - 1)

    def seeds(c, positions):
        n_other = np.count_nonzero(labels[knn_table(points, m_eff, positions)] != c, axis=1)
        danger = np.flatnonzero((m_eff / 2.0 <= n_other) & (n_other < m_eff))
        return danger if len(danger) else _every_row(c, positions)
    return seeds


def _margin_rule(features: np.ndarray, labels: np.ndarray, counts: np.ndarray,
                 m: int, params: SvmParams):
    """SVM-SMOTE seeds: rows inside the margin |f(x)| <= 1 of the class's
    one-vs-rest linear SVM; if none, the m rows closest to the boundary.
    One ``fit_linear_svm`` call fits the SVM of every class that ``_balance``
    interpolates (below the majority, 2 rows or more); with none, no rule."""
    seeded = np.flatnonzero((counts >= 2) & (counts < counts.max()))
    if not len(seeded):
        return None
    W, b = fit_linear_svm(features, np.where(labels[:, None] == seeded, 1.0, -1.0), params)
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise ValueError("SVM-SMOTE's linear SVM diverged to non-finite weights; lower its "
                         f"learning rate (svm_learning_rate={params.learning_rate:g})")
    columns = {int(c): j for j, c in enumerate(seeded)}

    def seeds(c, positions):
        j = columns[c]
        f = np.abs(np.asarray(features[positions], dtype=np.float64) @ W[:, j] + b[j])
        in_margin = np.flatnonzero(f <= 1.0)
        if len(in_margin):
            return in_margin
        return np.argsort(f, kind="stable")[:min(m, len(positions))]
    return seeds


def _balance(features: np.ndarray, labels: np.ndarray, counts: np.ndarray, rng,
             seeds, k: int) -> ResampledSet:
    """Pad every non-majority class up to the majority count, by SMOTE from
    the positions ``seeds(c, positions)`` picks, or by replicating the
    class's own rows uniformly with replacement when ``seeds`` is None or
    the class has a single row.  ``counts`` is ``_class_counts(labels)``."""
    majority = int(counts.max())
    synth_blocks, synth_labels = [], []
    for c in np.flatnonzero(counts):
        n_new = majority - int(counts[c])
        if n_new == 0:
            continue
        positions = np.flatnonzero(labels == c)
        class_rows = features[positions]
        if seeds is None or len(class_rows) < 2:
            synth_blocks.append(class_rows[rng.integers(0, len(class_rows), size=n_new)])
        else:
            synth_blocks.append(_synthesize(class_rows, seeds(int(c), positions), k, n_new, rng))
        synth_labels.append(np.full(n_new, c, dtype=np.int64))

    out_features = np.concatenate([features] + synth_blocks)
    out_labels = np.concatenate([labels] + synth_labels)
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


def _apply_keep_mask(base: ResampledSet, keep: np.ndarray) -> ResampledSet:
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
        source_counts=base.source_counts,
        result_counts=_class_counts(base.labels[keep]),
    )


def resample(features: np.ndarray, labels: np.ndarray, spec: SamplerSpec, rng) -> ResampledSet:
    """Balance (features, labels) by the technique ``spec.kind`` names:
    pick its seed rule, pad every class, then clean for the hybrids.

    smote_enn keeps the rows that ``enn_filter`` keeps, over all classes,
    each row voted on by at most every other row (``enn_k`` is clamped to
    the row count minus one, as ``k_neighbors`` and ``m_neighbors`` are);
    smote_tomek drops the majority-class member of every Tomek link, the
    majority judged on the input counts.  A cleaning step is never allowed
    to erase a class.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    if not np.isfinite(features).all():
        row = np.argmin(np.isfinite(features.reshape(len(features), -1)).all(axis=1))
        raise ValueError(f"features row {row} is not finite")
    counts = _class_counts(labels)
    if np.count_nonzero(counts) < 2:
        raise ValueError("need at least 2 classes")

    if spec.kind == "random_over":
        seeds = None
    elif spec.kind == "borderline_smote":
        seeds = _danger_rule(features, labels, spec.m_neighbors)
    elif spec.kind == "svm_smote":
        seeds = _margin_rule(features, labels, counts, spec.m_neighbors, spec.svm)
    else:
        seeds = _every_row
    base = _balance(features, labels, counts, rng, seeds, spec.k_neighbors)

    if spec.kind == "smote_enn":
        keep = enn_filter(base.features, base.labels, min(spec.enn_k, len(base.labels) - 1))
    elif spec.kind == "smote_tomek":
        linked = np.array(tomek_links(base.features, base.labels), dtype=np.int64).reshape(-1)
        keep = np.ones(len(base.labels), dtype=bool)
        keep[linked[base.labels[linked] == np.argmax(counts)]] = False
    else:
        return base
    return _apply_keep_mask(base, keep)
