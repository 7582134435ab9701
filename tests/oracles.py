"""Brute-force reference implementations used to cross-check the fast paths.

Everything here favours obviousness over speed: explicit sorts with
(distance, index) keys, per-row loops, O(n^2) pair counting.  The point is
that these are *different algorithms* for the same definitions, so agreement
with the package is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np


def _d2(points, i):
    diff = points - points[i]
    return (diff * diff).sum(axis=1)


def brute_knn(points, query_row: int, k: int, exclude_self: bool = True) -> list[int]:
    """k nearest rows by explicit lexicographic (distance, index) sort."""
    points = np.asarray(points, dtype=np.float64)
    d2 = _d2(points, query_row)
    order = sorted(range(len(points)), key=lambda j: (d2[j], j))
    if exclude_self:
        order = [j for j in order if j != query_row]
    return order[:k]


def brute_enn_keep(features, labels, k: int) -> list[bool]:
    """Row survives iff its own class is the unique most common class among
    its k nearest other rows (a tie keeps the row)."""
    labels = np.asarray(labels)
    keep = []
    for i in range(len(labels)):
        votes: dict[int, int] = {}
        for j in brute_knn(features, i, k):
            votes[int(labels[j])] = votes.get(int(labels[j]), 0) + 1
        top = max(votes.values())
        winners = [c for c, v in votes.items() if v == top]
        keep.append(len(winners) > 1 or winners[0] == int(labels[i]))
    return keep


def brute_tomek(features, labels) -> set[tuple[int, int]]:
    """Cross-class mutual-nearest-neighbour pairs, i < j."""
    labels = np.asarray(labels)
    n = len(labels)
    nn = [brute_knn(features, i, 1)[0] for i in range(n)]
    return {
        (i, nn[i])
        for i in range(n)
        if i < nn[i] and nn[nn[i]] == i and labels[i] != labels[nn[i]]
    }


def brute_danger_positions(features, labels, class_label: int, m: int) -> list[int]:
    """Positions (within the class) of borderline rows: among the m nearest
    rows of the whole set, at least half but not all belong to other classes.
    m is clamped to n-1 candidates."""
    labels = np.asarray(labels)
    m_eff = min(m, len(labels) - 1)
    out = []
    for pos, i in enumerate(np.flatnonzero(labels == class_label)):
        neigh = brute_knn(features, int(i), m_eff)
        n_other = sum(1 for j in neigh if labels[j] != class_label)
        if n_other < m_eff and 2 * n_other >= m_eff:
            out.append(pos)
    return out


def pairwise_auc(scores, is_positive) -> float:
    """Pair-counting AUC: concordant pairs plus half the ties, over all
    positive/negative pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    is_positive = np.asarray(is_positive, dtype=bool)
    pos = scores[is_positive]
    neg = scores[~is_positive]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def segments_hold(class_rows, synthetics, rel: float = 1e-6) -> np.ndarray:
    """For each synthetic row, whether it lies on the segment between *some*
    pair of class rows: d(p,s) + d(s,q) - d(p,q) <= rel * d(p,q)."""
    R = np.asarray(class_rows, dtype=np.float64)
    S = np.asarray(synthetics, dtype=np.float64)
    D_pq = np.sqrt(((R[:, None, :] - R[None, :, :]) ** 2).sum(axis=2))
    out = np.zeros(len(S), dtype=bool)
    for t, s in enumerate(S):
        d_ps = np.sqrt(((R - s) ** 2).sum(axis=1))
        slack = d_ps[:, None] + d_ps[None, :] - D_pq
        out[t] = bool(np.any(slack <= rel * D_pq))
    return out


def on_some_segment(class_rows, synthetic, rel: float = 1e-6) -> bool:
    return bool(segments_hold(class_rows, [synthetic], rel)[0])


def conv1d_ref(x, w, b):
    """Stride-1, same-length 1-D correlation with (k-1)//2 left padding."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    B, C, L = x.shape
    O, _, K = w.shape
    pl = (K - 1) // 2
    y = np.zeros((B, O, L))
    for bi in range(B):
        for o in range(O):
            for t in range(L):
                acc = 0.0
                for c in range(C):
                    for kk in range(K):
                        src = t - pl + kk
                        if 0 <= src < L:
                            acc += x[bi, c, src] * w[o, c, kk]
                y[bi, o, t] = acc + b[o]
    return y


def maxpool_ref(x, p: int):
    """Ceil-mode max pooling: the ragged final window is maxed as-is."""
    x = np.asarray(x, dtype=np.float64)
    B, C, L = x.shape
    T = (L + p - 1) // p
    y = np.zeros((B, C, T))
    for bi in range(B):
        for c in range(C):
            for t in range(T):
                y[bi, c, t] = x[bi, c, t * p:(t + 1) * p].max()
    return y


def upsample_ref(x, p: int, out_len: int):
    """Nearest-neighbour repeat by p, cropped to out_len."""
    x = np.asarray(x, dtype=np.float64)
    B, C, L = x.shape
    y = np.zeros((B, C, out_len))
    for t in range(out_len):
        y[:, :, t] = x[:, :, t // p]
    return y


def linear_svm_ref(features, binary_labels, learning_rate: float, regularization: float,
                   epochs: int):
    """Cyclic hinge-loss subgradient descent written as the plain loop: one
    row at a time, every step recomputed in place."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(binary_labels, dtype=np.float64)
    w = np.zeros(X.shape[1])
    b = 0.0
    lr, reg = learning_rate, regularization
    for _ in range(epochs):
        for i in range(len(X)):
            margin = y[i] * (X[i] @ w + b)
            w *= 1.0 - lr * reg
            if margin < 1.0:
                w += lr * y[i] * X[i]
                b += lr * y[i]
    return w, float(b)


def conv1d_grads_ref(x, w, dy):
    """(dx, dw, db) of ``conv1d_ref`` by the chain rule, accumulated one
    output sample and one tap at a time."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    B, C, L = x.shape
    O, _, K = w.shape
    pl = (K - 1) // 2
    dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros(O)
    for bi in range(B):
        for o in range(O):
            for t in range(L):
                g = float(dy[bi, o, t])
                db[o] += g
                for kk in range(K):
                    src = t - pl + kk
                    if 0 <= src < L:
                        dw[o, :, kk] += g * x[bi, :, src]
                        dx[bi, :, src] += g * w[o, :, kk]
    return dx, dw, db


def maxpool_grad_ref(x, p: int, dy):
    """Gradient of ``maxpool_ref``: each window's gradient goes to the first
    position holding its maximum."""
    x = np.asarray(x, dtype=np.float64)
    B, C, L = x.shape
    dx = np.zeros((B, C, L))
    for bi in range(B):
        for c in range(C):
            for t in range(dy.shape[2]):
                window = list(x[bi, c, t * p:(t + 1) * p])
                dx[bi, c, t * p + window.index(max(window))] = dy[bi, c, t]
    return dx


def upsample_grad_ref(dy, p: int, in_len: int):
    """Gradient of ``upsample_ref``: each input sample collects the
    gradients of its copies."""
    B, C, L = dy.shape
    dx = np.zeros((B, C, in_len))
    for t in range(L):
        dx[:, :, t // p] += dy[:, :, t]
    return dx
