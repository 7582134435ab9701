"""Accuracy, macro one-vs-rest AUC, and dispersion statistics."""

from __future__ import annotations

import numpy as np

# The metrics of one evaluation, as metrics.csv and summary.csv name their
# columns, and as EvalSummary and MetricsRecord name their fields
METRIC_COLUMNS = ("test_accuracy", "test_auc", "std_test_accuracy", "std_test_auc", "train_loss")


def _unique(values) -> np.ndarray:
    """The sorted distinct values of ``values``, flattened, as ``np.unique``
    returns them (each NaN is kept).  ``np.unique`` imports ``numpy.ma`` on
    its first call, about 30 ms that a run does not need."""
    ar = np.sort(np.asarray(values), axis=None)
    keep = np.empty(ar.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ar[1:], ar[:-1], out=keep[1:])
    return ar[keep]


def accuracy(predicted: np.ndarray, true: np.ndarray) -> float:
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if len(predicted) != len(true):
        raise ValueError("length mismatch")
    if len(true) == 0:
        raise ValueError("empty input")
    return float(np.mean(predicted == true))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values`` down each column (of a 1-D array, of the
    whole), each group of ties given the mean of the ranks it spans.  The
    means are half-integers, so they are exact."""
    values = np.asarray(values)
    table = values[:, None] if values.ndim == 1 else values
    order = np.argsort(table, axis=0, kind="stable")
    column = np.arange(table.shape[1])
    ordered = table[order, column]
    new_group = np.empty(table.shape, dtype=bool)
    new_group[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
    # the columns back to back, each starting a group at its first row
    new_group = new_group.T.ravel()
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], new_group.size)
    first = starts - starts % len(table)
    ranks = np.empty(table.shape, dtype=np.float64)
    ranks[order, column] = ((starts - first + 1 + ends - first) / 2.0)[
        np.cumsum(new_group) - 1].reshape(table.shape[::-1]).T
    return ranks.reshape(values.shape)


def roc_auc_macro(scores: np.ndarray, labels: np.ndarray) -> float:
    """Macro mean of one-vs-rest AUCs over the classes present in ``labels``.

    ``scores`` is (n_samples, n_classes); column c ranks membership in
    class c.  Classes absent from ``labels`` are skipped; the others are
    ranked in one pass, with tied ranks averaged (Mann-Whitney).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or len(scores) != len(labels):
        raise ValueError("scores must be (n_samples, n_classes) aligned with labels")
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite scores")
    present = _unique(labels)
    if len(present) < 2:
        raise ValueError("fewer than 2 classes present in labels")
    column = np.searchsorted(present, labels)  # each row's own class among the ranked
    ranks = _average_ranks(scores[:, present])[np.arange(len(labels)), column]
    # sums of half-integers, exact in any order
    rank_sums = np.bincount(column, weights=ranks, minlength=len(present))
    n_pos = np.bincount(column, minlength=len(present))
    return float(np.mean((rank_sums - n_pos * (n_pos + 1) / 2.0) / (n_pos * (len(labels) - n_pos))))


def sample_std(values) -> float:
    """Sample standard deviation (n-1 denominator); 0 for a single value."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty input")
    if values.size == 1:
        return 0.0
    return float(np.std(values, ddof=1))


def aggregate_over_folds(records) -> list[dict]:
    """Mean of each of ``METRIC_COLUMNS`` across folds, per (sampler, round).

    ``records`` is a sequence of MetricsRecord-like objects.  Every
    (sampler, round) pair must carry one record per fold; a ragged grid
    is an error.  Sampler order follows first appearance; rounds ascend.
    """
    groups: dict[tuple[str, int], list] = {}
    folds = set()
    sampler_order: list[str] = []
    for r in records:
        key = (r.sampler, r.round)
        groups.setdefault(key, []).append(r)
        folds.add(r.fold)
        if r.sampler not in sampler_order:
            sampler_order.append(r.sampler)
    n_folds = len(folds)
    out = []
    for sampler in sampler_order:
        rounds = sorted(rnd for (s, rnd) in groups if s == sampler)
        for rnd in rounds:
            group = groups[(sampler, rnd)]
            if len(group) != n_folds or len({g.fold for g in group}) != n_folds:
                raise ValueError(
                    f"ragged grid: (sampler={sampler}, round={rnd}) has "
                    f"{len(group)} records for {n_folds} folds"
                )
            out.append({"sampler": sampler, "round": rnd,
                        **{c: float(np.mean([getattr(g, c) for g in group]))
                           for c in METRIC_COLUMNS}})
    return out
