from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedbalance.crossval import MetricsRecord
from fedbalance.federation import EvalSummary
from fedbalance.metrics import (
    METRIC_COLUMNS,
    _average_ranks,
    _unique,
    accuracy,
    aggregate_over_folds,
    roc_auc_macro,
    sample_std,
)
from oracles import average_rank_ref, pairwise_auc


def test_accuracy_basic():
    assert accuracy([1, 2, 3, 3], [1, 2, 0, 3]) == 0.75
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([1], [1, 2])


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
               elements=st.integers(-4, 4)),
    hnp.arrays(np.float64, st.integers(0, 30),
               elements=st.sampled_from([-1.0, 1.0, 0.5, -0.0, 0.0, 2.0]))))
def test_unique_matches_numpy_unique(values):
    got, want = _unique(values), np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_binary_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = rng.integers(6, 40)
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.permutation(n)[: rng.integers(1, n)]] = 1
        if len(np.unique(labels)) < 2:
            continue
        # coarse grid scores force plenty of ties
        scores = rng.integers(0, 5, size=(n, 2)).astype(float)
        got = roc_auc_macro(scores, labels)
        want = 0.5 * (
            pairwise_auc(scores[:, 0], labels == 0) + pairwise_auc(scores[:, 1], labels == 1)
        )
        assert got == pytest.approx(want, abs=1e-12)


def test_multiclass_auc_matches_oracle():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 3, size=60)
    scores = rng.normal(size=(60, 3))
    want = np.mean([pairwise_auc(scores[:, c], labels == c) for c in range(3)])
    assert roc_auc_macro(scores, labels) == pytest.approx(want, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 25), classes=st.integers(2, 5))
def test_macro_auc_of_tied_scores_matches_pair_counting(data, n, classes):
    """Every present class ranked in one pass, absent classes skipped, and
    ties (a few distinct values, -0.0 among them) averaged."""
    labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, classes - 1)))
    scores = data.draw(hnp.arrays(np.float64, (n, classes),
                                  elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])))
    present = sorted(set(labels.tolist()))
    if len(present) < 2:
        with pytest.raises(ValueError, match="fewer than 2 classes"):
            roc_auc_macro(scores, labels)
        return
    want = np.mean([pairwise_auc(scores[:, c], labels == c) for c in present])
    assert roc_auc_macro(scores, labels) == pytest.approx(want, abs=1e-12)


def test_auc_constant_scores_is_half():
    labels = np.array([0, 0, 1, 1, 1])
    scores = np.ones((5, 2))
    assert roc_auc_macro(scores, labels) == pytest.approx(0.5)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 2, size=30)
    labels[:2] = [0, 1]
    scores = rng.normal(size=(30, 2))
    base = roc_auc_macro(scores, labels)
    assert roc_auc_macro(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc_macro(3.0 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)


def test_auc_perfect_and_inverted():
    labels = np.array([0, 0, 1, 1])
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
    assert roc_auc_macro(scores, labels) == 1.0
    assert roc_auc_macro(-scores, labels) == 0.0


def test_auc_skips_absent_classes():
    # labels only use classes 0 and 2 of a 3-column score matrix
    labels = np.array([0, 0, 2, 2])
    scores = np.array([[1.0, 0.0, 0.0], [0.9, 0.5, 0.1], [0.0, 0.2, 1.0], [0.1, 0.7, 0.9]])
    want = 0.5 * (pairwise_auc(scores[:, 0], labels == 0) + pairwise_auc(scores[:, 2], labels == 2))
    assert roc_auc_macro(scores, labels) == pytest.approx(want)


def test_auc_rejects_degenerate_input():
    with pytest.raises(ValueError):
        roc_auc_macro(np.ones((3, 2)), np.array([1, 1, 1]))
    with pytest.raises(ValueError):
        roc_auc_macro(np.array([[np.nan, 0.0]]), np.array([0]))


def test_sample_std_closed_forms():
    assert sample_std([3.0]) == 0.0
    assert sample_std([0.0, 2.0]) == pytest.approx(np.sqrt(2.0))
    vals = [1.0, 2.0, 3.0, 4.0]
    assert sample_std(vals) == pytest.approx(np.std(vals, ddof=1))
    with pytest.raises(ValueError):
        sample_std([])


def test_average_ranks_match_brute_force_oracle():
    rng = np.random.default_rng(8)
    cases = [np.array([]), np.array([0.0, -0.0, 1.0]), np.full(5, 2.5)]
    for trial in range(300):
        n = int(rng.integers(1, 40))
        cases.append(rng.integers(0, 6, size=n).astype(np.float64) if trial % 2
                     else rng.normal(size=n))
    for values in cases:
        got = _average_ranks(values)
        assert got.dtype == np.float64
        assert got.tolist() == average_rank_ref(values.tolist())
    # a table is ranked column by column
    table = rng.integers(0, 4, size=(17, 3)).astype(np.float64)
    got = _average_ranks(table)
    assert [got[:, c].tolist() for c in range(3)] == [average_rank_ref(col) for col in
                                                      table.T.tolist()]


# --- fold aggregation ---


def test_metric_columns_name_the_summary_and_record_fields():
    """An evaluation's summary becomes a record's fields after (fold,
    sampler, round) in order, and each is a metrics.csv column."""
    record = [f.name for f in fields(MetricsRecord)]
    assert record[:3] == ["fold", "sampler", "round"]
    assert [f.name for f in fields(EvalSummary)] == list(METRIC_COLUMNS) == record[3:]


class _Row:
    def __init__(self, fold, sampler, round, **metrics):
        self.fold, self.sampler, self.round = fold, sampler, round
        defaults = dict(test_accuracy=0.0, test_auc=0.0, std_test_accuracy=0.0,
                        std_test_auc=0.0, train_loss=0.0)
        defaults.update(metrics)
        for k, v in defaults.items():
            setattr(self, k, v)


def test_aggregate_means_across_folds():
    rows = [
        _Row(0, "smote", 0, test_accuracy=0.4, train_loss=2.0),
        _Row(1, "smote", 0, test_accuracy=0.6, train_loss=1.0),
        _Row(0, "smote", 5, test_accuracy=0.8, test_auc=0.9),
        _Row(1, "smote", 5, test_accuracy=0.6, test_auc=0.7),
    ]
    out = aggregate_over_folds(rows)
    assert [(r["sampler"], r["round"]) for r in out] == [("smote", 0), ("smote", 5)]
    assert out[0]["test_accuracy"] == pytest.approx(0.5)
    assert out[0]["train_loss"] == pytest.approx(1.5)
    assert out[1]["test_auc"] == pytest.approx(0.8)


def test_aggregate_preserves_first_appearance_order():
    rows = [
        _Row(0, "svm_smote", 0), _Row(1, "svm_smote", 0),
        _Row(0, "smote", 0), _Row(1, "smote", 0),
    ]
    out = aggregate_over_folds(rows)
    assert [r["sampler"] for r in out] == ["svm_smote", "smote"]


def test_aggregate_rejects_ragged_grid():
    rows = [
        _Row(0, "smote", 0), _Row(1, "smote", 0),
        _Row(0, "smote", 5),  # fold 1 missing at round 5
    ]
    with pytest.raises(ValueError, match="ragged"):
        aggregate_over_folds(rows)
