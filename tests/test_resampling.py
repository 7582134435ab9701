import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedbalance.resampling as rs
from fedbalance.cli import _run_settings
from fedbalance.resampling import (
    SamplerSpec,
    SvmParams,
    enn_filter,
    fit_linear_svm,
    knn_indices,
    knn_table,
    resample,
    tomek_links,
)
from oracles import (
    brute_danger_positions,
    brute_enn_keep,
    brute_knn,
    brute_tomek,
    linear_svm_ref,
    segments_hold,
)


def _instance(rng, max_rows=60, max_dim=6, n_classes=3):
    counts = rng.integers(2, max_rows // n_classes, size=n_classes)
    dim = int(rng.integers(2, max_dim + 1))
    X = rng.normal(size=(int(counts.sum()), dim))
    y = np.repeat(np.arange(n_classes), counts)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


# --- nearest neighbours ---


def test_knn_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        X, _ = _instance(rng)
        q = int(rng.integers(len(X)))
        k = int(rng.integers(1, len(X)))
        assert knn_indices(X, q, k).tolist() == brute_knn(X, q, k)


def test_knn_breaks_ties_toward_lower_index():
    X = np.array([[0.0], [1.0], [1.0], [1.0]])
    assert knn_indices(X, 0, 3).tolist() == [1, 2, 3]
    # row 3 ties rows 1 and 2 at distance 0; both precede the far row 0
    assert knn_indices(X, 3, 2).tolist() == [1, 2]


def test_knn_self_handling_and_errors():
    X = np.zeros((3, 2))
    assert knn_indices(X, 1, 2).tolist() == [0, 2]
    with pytest.raises(ValueError):
        knn_indices(X, 0, 3)  # only 2 candidates once self is excluded
    with pytest.raises(ValueError):
        knn_indices(X, 0, 0)


def _parent_knn(points, query_row, k):
    """The one-query rule knn_table must reproduce: a stable argsort of the
    full ``_squared_dists`` row with the query row taken out."""
    points = np.asarray(points, dtype=np.float64)
    order = np.argsort(rs._squared_dists(points, query_row), kind="stable")
    return order[order != query_row][:k].tolist()


@st.composite
def _knn_case(draw, exact):
    """Tie-heavy rows, some duplicated, maybe on a large common offset,
    with k from 1 to every candidate and a subset of query rows.

    With ``exact`` every coordinate is a small integer, so each squared
    distance is exact in any summation order and ``brute_knn`` applies;
    otherwise rows are arbitrary floats."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 5))
    if exact:
        cells = st.integers(-3, 3).map(float)
        offset = draw(st.sampled_from([0.0, 2.0**40, -1e12]))
    else:
        cells = st.floats(-1e3, 1e3, allow_nan=False)
        offset = draw(st.sampled_from([0.0, 1e6, 1e9, -2.5e12]))
    X = np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=n, max_size=n)))
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    for src, dst in copies:
        X[dst] = X[src]
    k = draw(st.integers(1, n - 1))
    queries = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return X + offset, k, queries


@settings(max_examples=200, deadline=None)
@given(case=_knn_case(exact=True))
def test_knn_table_matches_brute_force_on_exact_ties(case):
    X, k, queries = case
    rows = range(len(X)) if queries is None else queries
    table = knn_table(X, k, queries)
    assert table.shape == (len(rows), k) and table.dtype == np.int64
    for got, q in zip(table, rows):
        assert got.tolist() == brute_knn(X, q, k)


@settings(max_examples=200, deadline=None)
@given(case=_knn_case(exact=False))
def test_knn_table_matches_the_one_query_rule(case):
    X, k, queries = case
    rows = range(len(X)) if queries is None else queries
    table = knn_table(X, k, queries)
    for got, q in zip(table, rows):
        assert got.tolist() == _parent_knn(X, q, k)
        assert knn_indices(X, q, k).tolist() == got.tolist()


@pytest.mark.parametrize("block_values", [1, 7, 64])
def test_knn_table_is_the_same_in_any_block_size(monkeypatch, block_values):
    rng = np.random.default_rng(block_values)
    X = np.vstack([rng.normal(size=(25, 5)), np.round(rng.normal(size=(15, 5)))])
    want = knn_table(X, 6)
    monkeypatch.setattr(rs, "_BLOCK_VALUES", block_values)
    assert np.array_equal(knn_table(X, 6), want)
    assert [row.tolist() for row in want] == [_parent_knn(X, q, 6) for q in range(len(X))]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 17, 33])
def test_pair_distances_are_bit_equal_to_the_full_row(dim):
    rng = np.random.default_rng(dim)
    # float32 values widened to float64, as the samplers see latent codes
    X = np.ascontiguousarray(rng.normal(size=(60, dim)).astype(np.float32), dtype=np.float64)
    rows = rng.integers(0, 60, size=500)
    cols = rng.integers(0, 60, size=500)
    got = rs._pair_dists(X, rows, cols)
    want = np.array([rs._squared_dists(X, r)[c] for r, c in zip(rows, cols)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_every_geometry_helper_calls_knn_table_once(monkeypatch):
    calls = []

    def counting_table(points, k, queries=None):
        calls.append(len(points))
        return knn_table(points, k, queries)

    monkeypatch.setattr(rs, "knn_table", counting_table)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(29, 3))
    y = np.array([0] * 18 + [1] * 7 + [2] * 4)
    # the SMOTE resample seeds one class, of 7 rows
    for helper in (lambda: enn_filter(X, y, 3), lambda: tomek_links(X, y),
                   lambda: knn_indices(X, 4, 3),
                   lambda: resample(X[:25], y[:25], SamplerSpec(kind="smote", k_neighbors=3),
                                    np.random.default_rng(0))):
        calls.clear()
        helper()
        assert len(calls) == 1
    calls.clear()
    resample(X, y, SamplerSpec(kind="borderline_smote"), np.random.default_rng(1))
    # per seeded class: DANGER over the whole set, then the class's neighbour table
    assert calls == [29, 7, 29, 4]


# --- plain SMOTE ---


def _with_majority(minority, n_majority, seed=0):
    """``minority`` as class 1 after ``n_majority`` class-0 rows."""
    majority = np.random.default_rng(seed).normal(size=(n_majority, minority.shape[1]))
    return np.vstack([majority, minority]), np.repeat([0, 1], [n_majority, len(minority)])


def test_smote_synthetics_lie_on_minority_segments():
    minority = np.random.default_rng(5).normal(size=(12, 4))
    X, y = _with_majority(minority, 42)
    out = resample(X, y, SamplerSpec(kind="smote", k_neighbors=5), np.random.default_rng(9))
    synth = out.features[out.is_synthetic]
    assert synth.shape == (30, 4)
    assert segments_hold(minority, synth).all()


def test_smote_k_clamped_to_available_neighbors():
    minority = np.array([[0.0, 0.0], [1.0, 1.0]])
    X, y = _with_majority(minority, 7)
    out = resample(X, y, SamplerSpec(kind="smote", k_neighbors=10), np.random.default_rng(0))
    assert out.result_counts.tolist() == [7, 7]
    assert segments_hold(minority, out.features[out.is_synthetic]).all()


def test_smote_is_deterministic_under_seeding():
    X, y = _with_majority(np.random.default_rng(1).normal(size=(8, 3)), 19)
    spec = SamplerSpec(kind="smote", k_neighbors=3)
    a = resample(X, y, spec, np.random.default_rng(42))
    b = resample(X, y, spec, np.random.default_rng(42))
    assert np.array_equal(a.features, b.features)


# --- ENN / Tomek cleaning primitives ---


def test_enn_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        X, y = _instance(rng, max_rows=45)
        assert enn_filter(X, y, enn_k=3).tolist() == brute_enn_keep(X, y, 3)


def test_enn_tie_keeps_the_row():
    # row 0's two nearest neighbours split 1-1 across classes
    X = np.array([[0.0], [1.0], [-1.0], [5.0], [-5.0], [6.0]])
    y = np.array([0, 1, 0, 1, 0, 1])
    keep = enn_filter(X, y, enn_k=2)
    assert keep[0]  # tie: no strict majority against it


def test_enn_requires_enough_rows():
    with pytest.raises(ValueError):
        enn_filter(np.zeros((3, 1)), np.array([0, 1, 0]), enn_k=3)


def test_tomek_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(30):
        X, y = _instance(rng, max_rows=45)
        assert set(tomek_links(X, y)) == brute_tomek(X, y)


def test_tomek_hand_case():
    # two tight pairs; only the middle pair is cross-class and mutual
    X = np.array([[0.0], [0.2], [1.0], [1.1], [2.1], [2.3]])
    y = np.array([0, 0, 0, 1, 1, 1])
    assert tomek_links(X, y) == [(2, 3)]


# --- borderline SMOTE ---


def _borderline_setup():
    """1-D layout with one safe pocket, two danger rows, and one noise row.

    Minority rows at 0.0 and 0.1 sit beside the majority block, so 2 of
    their 3 nearest rows are majority (danger).  The row at 10.0 is fully
    surrounded by majority (noise) and must never seed a synthetic.
    """
    X = np.array([[0.2], [0.3], [0.4], [9.9], [10.1], [10.2],  # class 0
                  [0.0], [0.1], [10.0]])                        # class 1
    y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1])
    return X, y


def test_borderline_danger_oracle_agrees_with_hand_analysis():
    X, y = _borderline_setup()
    assert brute_danger_positions(X, y, class_label=1, m=3) == [0, 1]


def test_borderline_seeds_only_from_danger_rows():
    X, y = _borderline_setup()
    spec = SamplerSpec(kind="borderline_smote", k_neighbors=1, m_neighbors=3)
    out = resample(X, y, spec, np.random.default_rng(0))
    assert out.result_counts.tolist() == [6, 6]
    synth = out.features[out.is_synthetic]
    # with k=1 both danger rows interpolate toward each other, so every
    # synthetic stays inside [0.0, 0.1]; none may come from the noise row
    assert np.all((synth >= 0.0) & (synth <= 0.1))


def test_borderline_without_danger_rows_falls_back_to_plain_smote():
    # two well-separated blobs: every minority row's neighbourhood is pure
    rng = np.random.default_rng(6)
    maj = rng.normal(size=(20, 2))
    mino = rng.normal(size=(6, 2)) + 50.0
    X = np.vstack([maj, mino])
    y = np.array([0] * 20 + [1] * 6)
    spec = SamplerSpec(kind="borderline_smote", k_neighbors=3, m_neighbors=5)
    a = resample(X, y, spec, np.random.default_rng(77))
    b = resample(X, y, SamplerSpec(kind="smote", k_neighbors=3), np.random.default_rng(77))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


# --- SVM SMOTE ---


def test_linear_svm_separates_separable_data():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(20, 2)) + [3, 3], rng.normal(size=(20, 2)) - [3, 3]])
    y = np.array([1.0] * 20 + [-1.0] * 20)
    w, b = fit_linear_svm(X, y, SvmParams())
    assert np.all(np.sign(X @ w + b) == y)


def test_linear_svm_is_deterministic_and_validates_labels():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    y = np.array([1.0, -1.0, 1.0])
    w1, b1 = fit_linear_svm(X, y, SvmParams())
    w2, b2 = fit_linear_svm(X, y, SvmParams())
    assert np.array_equal(w1, w2) and b1 == b2
    with pytest.raises(ValueError):
        fit_linear_svm(X, np.ones(3), SvmParams())


def _svm_instance(seed):
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(20, 120)), int(rng.integers(1, 17))
    # float32 rows like the encoder's latent codes, overlapping classes so
    # that some rows stay inside the margin in every epoch
    X = rng.normal(size=(n, dim)).astype(np.float32)
    params = SvmParams(learning_rate=float(rng.uniform(0.001, 0.1)),
                       epochs=int(rng.integers(1, 40)),
                       regularization=float(rng.uniform(0.0, 0.01)))
    return rng, X, params


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_linear_svm_matches_the_full_batch_oracle(seed):
    rng, X, params = _svm_instance(seed)
    y = np.where(rng.random(len(X)) < 0.3, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    w_ref, b_ref, violators = linear_svm_ref(X, y, params.learning_rate,
                                             params.regularization, params.epochs)
    # the fit after e epochs is the state that epoch e + 1 starts from
    w, b = np.zeros(X.shape[1]), 0.0
    for epoch in range(params.epochs):
        inside = np.flatnonzero(y * (X.astype(np.float64) @ w + b) < 1.0)
        assert inside.tolist() == violators[epoch], f"epoch {epoch}"
        w, b = fit_linear_svm(X, y, replace(params, epochs=epoch + 1))
    assert np.allclose(w, w_ref, rtol=1e-12, atol=1e-14)
    assert b == pytest.approx(b_ref, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_linear_svm_column_is_bit_equal_alone_or_stacked(seed):
    rng, X, params = _svm_instance(seed)
    n_classes = int(rng.integers(2, 6))
    labels = rng.integers(0, n_classes + 1, size=len(X))
    labels[:n_classes + 1] = np.arange(n_classes + 1)
    Y = np.where(labels[:, None] == np.arange(n_classes), 1.0, -1.0)
    W, b = fit_linear_svm(X, Y, params)
    assert W.shape == (X.shape[1], n_classes) and b.shape == (n_classes,)
    for j in range(n_classes):
        w_j, b_j = fit_linear_svm(X, Y[:, j], params)
        assert np.array_equal(w_j, W[:, j]) and b_j == b[j]


def test_linear_svm_validates_every_label_column():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    Y = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="column 1 must contain both -1 and \\+1"):
        fit_linear_svm(X, Y, SvmParams())
    with pytest.raises(ValueError, match="column 0 must contain both"):
        fit_linear_svm(X, np.array([[1.0, -1.0], [2.0, 1.0], [1.0, -1.0]]), SvmParams())
    with pytest.raises(ValueError, match="binary_labels must be \\(3,\\) or \\(3, C\\)"):
        fit_linear_svm(X, np.array([1.0, -1.0]), SvmParams())


def test_svm_smote_fits_once_per_resample(monkeypatch):
    shapes = []

    def counting_fit(features, labels, params):
        shapes.append(np.shape(labels))
        return fit_linear_svm(features, labels, params)

    monkeypatch.setattr(rs, "fit_linear_svm", counting_fit)
    rng = np.random.default_rng(9)
    # class 0 is the majority, 1 and 2 are seeded, 3 has one row and is replicated
    X = rng.normal(size=(30, 3))
    y = np.array([0] * 18 + [1] * 7 + [2] * 4 + [3])
    out = resample(X, y, SamplerSpec(kind="svm_smote"), np.random.default_rng(3))
    assert out.result_counts.tolist() == [18, 18, 18, 18]
    assert shapes == [(30, 2)]


def test_svm_smote_balances_with_segment_property():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(size=(25, 3)), rng.normal(size=(8, 3)) + 2.0])
    y = np.array([0] * 25 + [1] * 8)
    out = resample(X, y, SamplerSpec(kind="svm_smote"), np.random.default_rng(1))
    assert out.result_counts.tolist() == [25, 25]
    assert segments_hold(X[y == 1], out.features[out.is_synthetic]).all()


def test_svm_margin_seed_selection(monkeypatch):
    """Pin each class's decision function and check both margin branches."""
    fitted, seeded = [], []

    def fake_fit(features, labels, params):
        fitted.append(labels.copy())
        # column j is f(x) = (j + 1) * x
        return np.arange(1.0, labels.shape[1] + 1)[None, :], np.zeros(labels.shape[1])

    def recording_synthesize(rows, seed_positions, k, n_new, rng):
        seeded.append(sorted(seed_positions.tolist()))
        return synthesize(rows, seed_positions, k, n_new, rng)

    synthesize = rs._synthesize
    monkeypatch.setattr(rs, "fit_linear_svm", fake_fit)
    monkeypatch.setattr(rs, "_synthesize", recording_synthesize)
    X = np.array([[5.0], [3.0], [-4.0], [7.0],             # class 0, f(x) = x
                  [20.0], [21.0], [22.0], [23.0], [24.0],  # class 1, the majority
                  [0.5], [3.0], [-0.25], [0.75],           # class 2, f(x) = 2x
                  [30.0]])                                 # class 3, a single row
    y = np.repeat([0, 1, 2, 3], [4, 5, 4, 1])
    out = resample(X, y, SamplerSpec(kind="svm_smote", k_neighbors=1, m_neighbors=2),
                   np.random.default_rng(0))
    assert out.result_counts.tolist() == [5, 5, 5, 5]
    # class 0: no row inside, so the m=2 closest to the boundary; class 2:
    # the |2x| <= 1 rows only (its own column: under f(x) = x row 3 joins)
    assert seeded == [[1, 2], [0, 2]]
    # one fit, of the two seeded classes: the majority class 1 and the
    # single-row class 3 are left out
    assert len(fitted) == 1
    assert np.array_equal(fitted[0], np.where(y[:, None] == [0, 2], 1.0, -1.0))


def test_svm_smote_rejects_a_diverged_svm():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(size=(25, 3)), rng.normal(size=(8, 3)) + 2.0])
    y = np.array([0] * 25 + [1] * 8)
    spec = SamplerSpec(kind="svm_smote", svm=SvmParams(learning_rate=1e307, regularization=0.0))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="svm_learning_rate=1e\\+307"):
        resample(X, y, spec, np.random.default_rng(1))


# --- random oversampling ---


def test_random_oversample_replicates_own_class_rows():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(15, 3))
    y = np.array([0] * 10 + [1] * 5)
    out = resample(X, y, SamplerSpec(kind="random_over"), np.random.default_rng(3))
    assert out.result_counts.tolist() == [10, 10]
    minority_rows = {tuple(r) for r in X[y == 1]}
    for row in out.features[out.is_synthetic]:
        assert tuple(row) in minority_rows
    # one uniform pick per synthetic row, drawn in a single call
    picks = np.random.default_rng(3).integers(0, 5, size=5)
    assert np.array_equal(out.features[out.is_synthetic], X[y == 1][picks])


def test_random_oversample_already_balanced_is_identity():
    X = np.arange(12, dtype=float).reshape(6, 2)
    y = np.array([0, 0, 0, 1, 1, 1])
    out = resample(X, y, SamplerSpec(kind="random_over"), np.random.default_rng(0))
    assert not out.is_synthetic.any()
    assert np.array_equal(out.features, X)
    assert out.source_indices.tolist() == list(range(6))


# --- hybrid composition ---


def test_smote_enn_equals_smote_then_enn_filter():
    rng = np.random.default_rng(21)
    X = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(7, 2)) + 1.0])
    y = np.array([0] * 20 + [1] * 7)
    spec = SamplerSpec(kind="smote_enn", k_neighbors=5, enn_k=3)
    hybrid = resample(X, y, spec, np.random.default_rng(99))
    base = resample(X, y, SamplerSpec(kind="smote", k_neighbors=5), np.random.default_rng(99))
    keep = enn_filter(base.features, base.labels, 3)
    assert np.array_equal(hybrid.features, base.features[keep])
    assert np.array_equal(hybrid.labels, base.labels[keep])
    assert np.array_equal(hybrid.is_synthetic, base.is_synthetic[keep])


def test_smote_tomek_equals_smote_then_majority_link_removal():
    rng = np.random.default_rng(22)
    X = np.vstack([rng.normal(size=(18, 2)), rng.normal(size=(6, 2)) + 1.5])
    y = np.array([0] * 18 + [1] * 6)
    hybrid = resample(X, y, SamplerSpec(kind="smote_tomek"), np.random.default_rng(5))
    base = resample(X, y, SamplerSpec(kind="smote"), np.random.default_rng(5))
    keep = np.ones(len(base.labels), dtype=bool)
    for i, j in tomek_links(base.features, base.labels):
        if base.labels[i] == 0:
            keep[i] = False
        if base.labels[j] == 0:
            keep[j] = False
    assert np.array_equal(hybrid.features, base.features[keep])
    assert np.array_equal(hybrid.labels, base.labels[keep])


def test_smote_tomek_removes_only_majority_members():
    # balanced input: no synthetics, one link (rows 2 and 3), majority=class 0
    X = np.array([[0.0], [0.2], [1.0], [1.1], [2.1], [2.3]])
    y = np.array([0, 0, 0, 1, 1, 1])
    out = resample(X, y, SamplerSpec(kind="smote_tomek"), np.random.default_rng(0))
    assert out.features[:, 0].tolist() == [0.0, 0.2, 1.1, 2.1, 2.3]
    assert out.result_counts.tolist() == [2, 3]


def test_smote_tomek_without_links_is_plain_smote():
    rng = np.random.default_rng(30)
    X = np.vstack([rng.normal(size=(10, 2)), rng.normal(size=(4, 2)) + 100.0])
    y = np.array([0] * 10 + [1] * 4)
    hybrid = resample(X, y, SamplerSpec(kind="smote_tomek"), np.random.default_rng(8))
    base = resample(X, y, SamplerSpec(kind="smote"), np.random.default_rng(8))
    assert np.array_equal(hybrid.features, base.features)


def test_cleaning_cannot_erase_a_class():
    # minority duplicates a majority-dominated point, so ENN votes every
    # minority row (and synthetic) out; the class must be restored instead
    X = np.array([[0.5], [0.5], [0.5], [0.5], [0.5], [0.5], [0.5]])
    y = np.array([0, 0, 0, 0, 0, 1, 1])
    with pytest.warns(UserWarning, match="restoring"):
        out = resample(X, y, SamplerSpec(kind="smote_enn", enn_k=3), np.random.default_rng(0))
    assert out.result_counts[1] == 5  # 2 originals + 3 synthetics back in


def test_smote_enn_on_fewer_rows_than_enn_k_votes_with_every_other_row():
    """Two rows of two classes: ENN votes with the one other row, which is
    of the other class, so it removes both, and each class is restored."""
    X = np.array([[0.0, 1.0], [2.0, 0.5]])
    y = np.array([0, 1])
    with pytest.warns(UserWarning) as caught:
        out = resample(X, y, SamplerSpec(kind="smote_enn", enn_k=3), np.random.default_rng(0))
    assert [str(w.message) for w in caught] == [
        f"cleaning removed every row of class {c}; restoring its pre-cleaning rows"
        for c in (0, 1)]
    assert np.array_equal(out.features, X) and np.array_equal(out.labels, y)
    assert not out.is_synthetic.any()


# --- the shared driver ---


def test_single_row_class_falls_back_to_replication():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
    y = np.array([0, 0, 0, 1])
    out = resample(X, y, SamplerSpec(kind="smote"), np.random.default_rng(0))
    assert out.result_counts.tolist() == [3, 3]
    for row in out.features[out.is_synthetic]:
        assert row.tolist() == [9.0, 9.0]


def _lock_instances():
    rng, rng2 = np.random.default_rng(2024), np.random.default_rng(7)
    return {
        # blobs far apart: class 1 has no DANGER rows, so Borderline-SMOTE is
        # plain SMOTE, and no margin rows, so SVM-SMOTE seeds from the m
        # closest; class 2 has a single row and is replicated
        "apart": (np.vstack([rng.normal(size=(20, 3)), rng.normal(size=(7, 3)) + 40.0,
                             [[-40.0, -40.0, -40.0]]]),
                  np.array([0] * 20 + [1] * 7 + [2])),
        # overlapping float32 classes: DANGER rows, margin rows and a Tomek link
        "mixed": (rng.normal(size=(45, 4)).astype(np.float32), np.repeat([0, 1, 2], [24, 13, 8])),
        # one repeated point: ENN votes class 1 out, and the class is restored
        "same": (np.full((9, 2), 0.5), np.array([0] * 6 + [1] * 3)),
        # two minority blobs on different sides of the majority: SVM-SMOTE's
        # margin rows differ by class, so each class must read its own SVM
        "sides": (np.vstack([rng2.normal(size=(20, 2)), rng2.normal(size=(9, 2)) + [3.0, 0.0],
                             rng2.normal(size=(6, 2)) + [0.0, -3.0]]),
                  np.repeat([0, 1, 2], [20, 9, 6])),
    }


# SHA-1 over every ResampledSet field (name, dtype, shape and bytes, in field
# order) of resample(X, y, SamplerSpec(kind, k_neighbors=3, m_neighbors=5),
# default_rng(11)) at one BLAS thread
_LOCKED_DIGESTS = {
    ("apart", "smote"): "0716b44f7992abd261bd3dc9d33c22f514336a2a",
    ("apart", "borderline_smote"): "0716b44f7992abd261bd3dc9d33c22f514336a2a",
    ("apart", "random_over"): "48522686f27173d662b9e2ec9b2690eb2996b08a",
    ("apart", "svm_smote"): "e77f1fe667e0c6d7ee4fcae5fb70394f99bae4f1",
    ("apart", "smote_enn"): "0716b44f7992abd261bd3dc9d33c22f514336a2a",
    ("apart", "smote_tomek"): "0716b44f7992abd261bd3dc9d33c22f514336a2a",
    ("mixed", "smote"): "319e63c93b0e50f211e0abb7687537b00ead2353",
    ("mixed", "borderline_smote"): "809ebf84da24eb5885b213fe122f716a10647c67",
    ("mixed", "random_over"): "a5bb352add0cdc8c0c7b12e1f7b7f814caaf2cd5",
    ("mixed", "svm_smote"): "7cd1c58ef8f7348d1e12f07402271454b79d59a4",
    ("mixed", "smote_enn"): "9483ae616cd741bbceeb3ba8dfc080b85f4defa4",
    ("mixed", "smote_tomek"): "4cf3c4e31b95e139e7cab5e973c8fec28840f9d2",
    ("same", "smote"): "c96a2e12e5226cdd772d60f36c51e22ea67dc81c",
    ("same", "borderline_smote"): "c96a2e12e5226cdd772d60f36c51e22ea67dc81c",
    ("same", "random_over"): "c96a2e12e5226cdd772d60f36c51e22ea67dc81c",
    ("same", "svm_smote"): "c96a2e12e5226cdd772d60f36c51e22ea67dc81c",
    ("same", "smote_enn"): "c96a2e12e5226cdd772d60f36c51e22ea67dc81c",
    ("same", "smote_tomek"): "c96a2e12e5226cdd772d60f36c51e22ea67dc81c",
    ("sides", "smote"): "9ac11c3431d16865c473361f5b9a513a63a5580d",
    ("sides", "borderline_smote"): "162f5f7b65e2256f7e5cc6ed1eb69f43b6e66ebc",
    ("sides", "random_over"): "32ce1d208e9453e82f3d268d237d8482641bc643",
    ("sides", "svm_smote"): "af2aa82509bc614f1c33f19b1b0717e0965583f0",
    ("sides", "smote_enn"): "454a46cd4975c7bc6ff98800d81c7d6ae6d85bff",
    ("sides", "smote_tomek"): "9ac11c3431d16865c473361f5b9a513a63a5580d",
}


def _digest(out) -> str:
    h = hashlib.sha1()
    for name in ("features", "labels", "is_synthetic", "source_indices",
                 "source_counts", "result_counts"):
        a = getattr(out, name)
        h.update(f"{name} {a.dtype} {a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_sampler_outputs_keep_their_bytes():
    """Every fallback, locked to its bytes: a change to any rng draw, seed
    rule or cleaning step shows here and must update the digests."""
    got = {}
    with _run_settings():  # the SVM's products at one BLAS thread
        for name, (X, y) in _lock_instances().items():
            for kind in rs.SAMPLER_NAMES:
                spec = SamplerSpec(kind=kind, k_neighbors=3, m_neighbors=5)
                if (name, kind) == ("same", "smote_enn"):
                    with pytest.warns(UserWarning, match="class 1; restoring"):
                        out = resample(X, y, spec, np.random.default_rng(11))
                else:
                    out = resample(X, y, spec, np.random.default_rng(11))
                got[name, kind] = _digest(out)
    assert got == _LOCKED_DIGESTS
    # the instances reach the fallbacks they are there for
    assert got["apart", "borderline_smote"] == got["apart", "smote"]
    X, y = _lock_instances()["apart"]
    w, b = fit_linear_svm(X, np.where(y == 1, 1.0, -1.0), SvmParams())
    assert np.all(np.abs(X[y == 1] @ w + b) > 1.0)
    X, y = _lock_instances()["mixed"]
    base = resample(X, y, SamplerSpec(kind="smote", k_neighbors=3), np.random.default_rng(11))
    assert tomek_links(base.features, base.labels)


@pytest.mark.parametrize("kind", rs.SAMPLER_NAMES)
def test_every_sampler_is_deterministic(kind):
    rng = np.random.default_rng(63)
    X = np.vstack([rng.normal(size=(14, 3)), rng.normal(size=(5, 3)) + 1.0,
                   rng.normal(size=(3, 3)) - 1.0])
    y = np.array([0] * 14 + [1] * 5 + [2] * 3)
    spec = SamplerSpec(kind=kind)
    a = resample(X, y, spec, np.random.default_rng(17))
    b = resample(X, y, spec, np.random.default_rng(17))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.source_indices, b.source_indices)


@pytest.mark.parametrize("kind", ["smote", "borderline_smote", "random_over", "svm_smote"])
def test_pure_oversamplers_balance_exactly(kind):
    rng = np.random.default_rng(44)
    X = np.vstack([rng.normal(size=(16, 2)), rng.normal(size=(4, 2)) + 1.0,
                   rng.normal(size=(2, 2)) - 2.0])
    y = np.array([0] * 16 + [1] * 4 + [2] * 2)
    spec = SamplerSpec(kind=kind)
    out = resample(X, y, spec, np.random.default_rng(2))
    assert out.result_counts.tolist() == [16, 16, 16]
    assert out.source_counts.tolist() == [16, 4, 2]
    # originals come first, untouched
    assert np.array_equal(out.features[: len(X)], X)
    assert out.source_indices[: len(X)].tolist() == list(range(len(X)))
    assert np.all(out.source_indices[out.is_synthetic] == -1)


def test_resample_rejects_bad_input():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="unknown sampler"):
        SamplerSpec(kind="smoke")
    with pytest.raises(ValueError, match="2 classes"):
        resample(X, np.zeros(4, dtype=int), SamplerSpec(kind="smote"), np.random.default_rng(0))
    X = np.random.default_rng(0).normal(size=(40, 3))
    y = np.arange(40) % 2
    X[3, 1] = np.nan
    X[7, 0] = np.inf
    for kind in rs.SAMPLER_NAMES:
        with pytest.raises(ValueError, match="features row 3 is not finite"):
            resample(X, y, SamplerSpec(kind=kind), np.random.default_rng(0))
    for bad in (40, -1):
        with pytest.raises(ValueError, match=f"query row {bad} is out of range for 40 rows"):
            knn_indices(X, bad, 3)
        with pytest.raises(ValueError, match=f"query row {bad} is out of range for 40 rows"):
            knn_table(X, 3, [0, bad, 2])


def test_sampler_params_validation():
    for kwargs, message in [({"learning_rate": -1.0}, "learning_rate must be finite and > 0, got -1.0"),
                            ({"learning_rate": 0.0}, "learning_rate must be finite and > 0, got 0.0"),
                            ({"regularization": -5.0}, "regularization must be >= 0, got -5.0"),
                            ({"regularization": 100.0},
                             "regularization must be < 1 / learning_rate = 100, got 100.0"),
                            ({"learning_rate": 0.5, "regularization": 3.0},
                             "regularization must be < 1 / learning_rate = 2, got 3.0"),
                            ({"epochs": 0}, "epochs must be >= 1, got 0")]:
        with pytest.raises(ValueError, match=message):
            SvmParams(**kwargs)
    assert SvmParams(regularization=0.0).regularization == 0.0  # no penalty is allowed
    for name in ("k_neighbors", "m_neighbors", "enn_k"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            SamplerSpec(kind="smote", **{name: 0})
