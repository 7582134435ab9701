"""Brute-force references the benchmark checks the program against.

Nothing here calls fedbalance.  Distances are sums of squared differences
in float64, and neighbour order is (distance, row index), as the samplers
promise.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 64  # query rows per distance block; bounds memory at 64 x n x dim
_BLOCK_ELEMENTS = 2_000_000  # float64 values per segment-distance block
_MAX_STRAGGLERS = 50


def neighbor_order(points, rows=None) -> np.ndarray:
    """For each query row, every other row ordered by (distance, index).

    Returns an (len(rows), n - 1) index array; ``rows`` defaults to all.
    """
    x = np.asarray(points, dtype=np.float64)
    n = len(x)
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    out = np.empty((len(rows), n - 1), dtype=np.int64)
    for lo in range(0, len(rows), _BLOCK):
        block = rows[lo:lo + _BLOCK]
        diff = x[None, :, :] - x[block, None, :]
        d2 = np.sum(diff * diff, axis=2)
        order = np.argsort(d2, axis=1, kind="stable")  # stable: ties by index
        out[lo:lo + len(block)] = order[order != block[:, None]].reshape(len(block), n - 1)
    return out


def knn(points, k: int, rows=None) -> np.ndarray:
    return neighbor_order(points, rows)[:, :k]


def enn_keep(points, labels, k: int) -> np.ndarray:
    """Row i survives iff the strict-majority label among its k nearest
    other rows is its own; a tie for the majority keeps it."""
    labels = np.asarray(labels, dtype=np.int64)
    neigh = knn(points, k)
    keep = np.ones(len(labels), dtype=bool)
    for i, row in enumerate(labels[neigh]):
        counts = np.bincount(row)
        top = counts.max()
        if np.count_nonzero(counts == top) == 1:
            keep[i] = int(np.argmax(counts)) == labels[i]
    return keep


def tomek_pairs(points, labels) -> list[tuple[int, int]]:
    """Mutual nearest neighbours (i < j) with different labels."""
    labels = np.asarray(labels, dtype=np.int64)
    nn = knn(points, 1)[:, 0]
    return [(i, int(j)) for i, j in enumerate(nn)
            if i < j and nn[j] == i and labels[i] != labels[j]]


def segment_distance(points, starts, ends) -> np.ndarray:
    """Distance from each point to the nearest of the segments
    starts[m] -> ends[m]; (n,) for n points."""
    p = np.asarray(points, dtype=np.float64)
    a = np.asarray(starts, dtype=np.float64)
    ab = np.asarray(ends, dtype=np.float64) - a
    len2 = np.sum(ab * ab, axis=1)
    safe = np.where(len2 > 0, len2, 1.0)
    best = np.full(len(p), np.inf)
    block = max(1, _BLOCK_ELEMENTS // max(1, a.size))
    for lo in range(0, len(p), block):
        ap = p[lo:lo + block, None, :] - a[None, :, :]
        t = np.clip(np.sum(ap * ab[None], axis=2) / safe, 0.0, 1.0)
        t = np.where(len2 > 0, t, 0.0)
        r = ap - t[:, :, None] * ab[None]
        best[lo:lo + block] = np.sqrt(np.min(np.sum(r * r, axis=2), axis=1))
    return best


def off_segment_rows(synthetic, class_rows, k: int, tol: float) -> np.ndarray:
    """Indices of synthetic rows that lie on no segment between two rows of
    ``class_rows``.

    Segments from each row to its k nearest class neighbours are tried
    first; up to ``_MAX_STRAGGLERS`` rows they miss are tried against every
    pair of class rows.  More misses than that mean the rows were not made
    by neighbour interpolation, and all of them are reported.
    """
    synthetic = np.asarray(synthetic, dtype=np.float64)
    rows = np.asarray(class_rows, dtype=np.float64)
    if len(synthetic) == 0:
        return np.empty(0, dtype=np.int64)
    if len(rows) == 1:
        d = np.sqrt(np.sum((synthetic - rows[0]) ** 2, axis=1))
        return np.flatnonzero(d > tol)
    k_eff = min(k, len(rows) - 1)
    near = knn(rows, k_eff)
    starts = np.repeat(rows, k_eff, axis=0)
    missed = np.flatnonzero(segment_distance(synthetic, starts, rows[near.ravel()]) > tol)
    if 0 < len(missed) <= _MAX_STRAGGLERS:
        i, j = np.triu_indices(len(rows), k=0)
        d = segment_distance(synthetic[missed], rows[i], rows[j])
        missed = missed[d > tol]
    return missed
