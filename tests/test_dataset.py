from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbalance import dataset
from fedbalance.dataset import (
    Dataset,
    generate_synthetic,
    load_csv,
    make_synthetic_spec,
    partition_noniid,
    save_csv,
    stratified_kfold,
)


# --- Dataset container ---


def test_dataset_validates_labels_and_features():
    X = np.zeros((4, 3))
    with pytest.raises(ValueError, match="label outside"):
        Dataset(X, [0, 1, 2, 5], num_classes=3)
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.zeros(4), [0, 1, 0, 1], num_classes=2)
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[1.0, np.inf]]), [0], num_classes=2)
    with pytest.raises(ValueError, match="sample count"):
        Dataset(X, [0, 1], num_classes=2)


def test_class_counts():
    ds = Dataset(np.zeros((5, 2)), [0, 0, 2, 2, 2], num_classes=3)
    assert ds.class_counts().tolist() == [2, 0, 3]
    assert len(ds) == 5 and ds.num_features == 2


# --- synthetic generator ---


def test_synthetic_counts_are_forced():
    spec = make_synthetic_spec(class_counts=(200, 10), dim=6, seed=1)
    ds = generate_synthetic(spec, seed=5)
    assert ds.class_counts().tolist() == [200, 10]
    assert ds.features.shape == (210, 6)


def test_synthetic_is_deterministic_and_seed_sensitive():
    spec = make_synthetic_spec(class_counts=(30, 30), dim=4, seed=0)
    a = generate_synthetic(spec, seed=9)
    b = generate_synthetic(spec, seed=9)
    c = generate_synthetic(spec, seed=10)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_centers_bounded_and_scale_applied():
    spec = make_synthetic_spec(class_counts=(50, 50), dim=8, scale=0.1, seed=3)
    assert np.all(np.abs(spec.centers) <= 2.0)
    ds = generate_synthetic(spec, seed=3)
    # with scale 0.1 nearly all mass stays within 1 of the class center
    spread = ds.features[:50] - spec.centers[0]
    assert np.abs(spread).max() < 1.0


# --- non-IID partition ---


def _dirichlet_split_reference(ds, n_clients, concentration, seed):
    """Independent re-execution of the documented draw: per-class Dirichlet
    proportions, a seeded shuffle, a cumulative-boundary split, and up to 100
    redraws until every client has >= 2 samples spanning >= 2 classes."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        props = rng.dirichlet([concentration] * n_clients, size=ds.num_classes)
        buckets = [[] for _ in range(n_clients)]
        for c in range(ds.num_classes):
            idx = rng.permutation(np.flatnonzero(ds.labels == c))
            # only the first n-1 boundaries cut; the last client takes the
            # remainder, so rounding in the cumulative sum cannot drop rows
            cuts = (np.cumsum(props[c]) * len(idx)).astype(int)[:-1]
            start = 0
            for client in range(n_clients):
                stop = cuts[client] if client < n_clients - 1 else len(idx)
                buckets[client].extend(idx[start:stop].tolist())
                start = stop
        shards = [sorted(b) for b in buckets]
        if all(len(s) >= 2 and len(set(ds.labels[s])) >= 2 for s in shards):
            return shards
    raise AssertionError("reference draw did not converge")


def test_partition_matches_independent_reference():
    spec = make_synthetic_spec(class_counts=(200, 10), dim=4, seed=0)
    ds = generate_synthetic(spec, seed=2)
    shards = partition_noniid(ds, n_clients=4, concentration=0.5, seed=13)
    ref = _dirichlet_split_reference(ds, 4, 0.5, 13)
    for shard, expected in zip(shards, ref, strict=True):
        assert shard.tolist() == expected


@pytest.mark.parametrize("n_clients", [2, 3, 5])
def test_partition_covers_disjointly_with_two_classes_each(n_clients):
    spec = make_synthetic_spec(class_counts=(60, 40, 30), dim=3, seed=4)
    ds = generate_synthetic(spec, seed=4)
    shards = partition_noniid(ds, n_clients, seed=7)
    all_rows = np.concatenate(shards)
    assert len(all_rows) == len(np.unique(all_rows)) == len(ds)
    for s in shards:
        assert len(s) >= 2
        assert len(np.unique(ds.labels[s])) >= 2


def test_partition_deterministic_and_seed_sensitive():
    spec = make_synthetic_spec(class_counts=(50, 50), dim=3, seed=0)
    ds = generate_synthetic(spec, seed=1)
    a = partition_noniid(ds, 3, seed=5)
    b = partition_noniid(ds, 3, seed=5)
    c = partition_noniid(ds, 3, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_partition_rejects_bad_args():
    ds = Dataset(np.zeros((6, 2)), [0, 0, 0, 1, 1, 1], num_classes=2)
    with pytest.raises(ValueError):
        partition_noniid(ds, 0)
    with pytest.raises(ValueError):
        partition_noniid(ds, 2, concentration=0.0)


# --- stratified folds ---


def test_kfold_two_class_example_balances_every_fold():
    # 8 of class A and 2 of class B into 5 folds: each fold gets exactly 2
    # rows because the round-robin pointer carries across classes.
    labels = np.array([0] * 8 + [1] * 2)
    folds = stratified_kfold(labels, k=5, seed=0)
    sizes = [np.count_nonzero(folds == f) for f in range(5)]
    assert sizes == [2, 2, 2, 2, 2]


def test_kfold_rare_class_lands_in_exactly_one_fold():
    labels = np.array([0] * 90 + [1] * 9 + [2] * 1)
    folds = stratified_kfold(labels, k=5, seed=3)
    rare_folds = {folds[i] for i in np.flatnonzero(labels == 2)}
    assert len(rare_folds) == 1


def test_kfold_per_class_counts_within_one():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 4, size=103)
    folds = stratified_kfold(labels, k=5, seed=2)
    for c in range(4):
        per_fold = [np.sum((labels == c) & (folds == f)) for f in range(5)]
        assert max(per_fold) - min(per_fold) <= 1
    totals = [np.sum(folds == f) for f in range(5)]
    assert max(totals) - min(totals) <= 1


def test_kfold_train_test_partition_and_determinism():
    labels = np.tile([0, 1, 2], 10)
    a = stratified_kfold(labels, 3, seed=9)
    b = stratified_kfold(labels, 3, seed=9)
    assert np.array_equal(a, b)
    assert a.dtype == np.int64 and a.shape == labels.shape
    for f in range(3):
        tr, te = np.flatnonzero(a != f), np.flatnonzero(a == f)
        assert len(np.intersect1d(tr, te)) == 0
        assert len(tr) + len(te) == len(labels)


def _kfold_by_row(labels, k, seed):
    """The row-by-row deal stratified_kfold replaced."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels), dtype=np.int64)
    pointer = 0
    for c in np.unique(labels):
        for i in rng.permutation(np.flatnonzero(labels == c)):
            assignment[i] = pointer % k
            pointer += 1
    return assignment


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.integers(0, 5), min_size=2, max_size=60),
       k=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_kfold_deals_each_class_as_the_row_by_row_deal(labels, k, seed):
    labels = np.array(labels, dtype=np.int64)
    k = min(k, len(labels))
    got = stratified_kfold(labels, k, seed)
    assert got.dtype == np.int64
    assert np.array_equal(got, _kfold_by_row(labels, k, seed))


def test_kfold_rejects_bad_k():
    with pytest.raises(ValueError):
        stratified_kfold(np.array([0, 1]), k=1, seed=0)
    with pytest.raises(ValueError):
        stratified_kfold(np.array([0, 1]), k=3, seed=0)


# --- CSV I/O ---
#
# load_csv reads a well-formed file with no '"' and no '\r' without
# csv.reader, in chunks of whole lines, and every other file through
# csv.reader.  Each CSV test runs on both paths, and on the plain one also
# with chunks so small that each holds a line or two; the tests of
# well-formed files check that the plain parse reads them.

PARSE_PATHS = ("plain", "plain-small-chunks", "csv.reader")


@contextmanager
def parse_path(name):
    with pytest.MonkeyPatch.context() as mp:
        if name == "csv.reader":
            mp.setattr(dataset, "_parse_plain", lambda path, label_column: None)
        elif name == "plain-small-chunks":
            mp.setattr(dataset, "_CHUNK_BYTES", 5)
        yield


def load_plain(path, label_column="label"):
    """load_csv of a file the plain parse must read, on each path."""
    for name in PARSE_PATHS:
        with parse_path(name):
            if name != "csv.reader":
                assert dataset._parse_plain(path, label_column) is not None
            yield load_csv(path, label_column)


def test_csv_round_trip(tmp_path):
    spec = make_synthetic_spec(class_counts=(5, 7), dim=3, seed=0)
    ds = generate_synthetic(spec, seed=0)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    assert b"\r" not in path.read_bytes()
    for back in load_plain(path):
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


def test_csv_label_column_by_index(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,f0\nA,1.5\nB,2.5\nA,3.5\n")
    for ds in load_plain(path, label_column=0):
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.features[:, 0].tolist() == [1.5, 2.5, 3.5]


def test_csv_features_parse_as_python_float(tmp_path):
    cells = ["1.5", " 2 ", "-0.0", "1e-320", repr(0.1), "+.5", "7"]
    # np.loadtxt rejects the two cells float reads that the second file
    # adds, so that file goes to csv.reader
    for extra, plain in (([], True), (["1_000", "\u0663.\u0665"], False)):
        path = tmp_path / f"f{len(extra)}.csv"
        path.write_text("a,label\n" + "".join(f"{c},{i % 2}\n" for i, c in enumerate(cells + extra)),
                        encoding="utf-8")
        assert (dataset._parse_plain(path, "label") is not None) == plain
        want = np.array([float(c) for c in cells + extra]).tobytes()
        for name in PARSE_PATHS:
            with parse_path(name):
                ds = load_csv(path)  # the label column defaults to "label"
            assert ds.features.dtype == np.float64
            assert ds.features[:, 0].tobytes() == want


BIG = "9" * (131072 + 1)  # one character over csv.field_size_limit()


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "empty file"),
        ("\n1.0,0\n", "label column 'label' not in header"),
        ("a,label\n", "no data rows"),
        ("a,label\n1.0\n", "ragged row"),
        ("a,label\n1.0,0,5\n2.0,1\n", r"bad\.csv:2: ragged row \(3 cells, expected 2\)"),
        ("a,label\nfoo,0\n2.0,1\n", "non-numeric"),
        ("a,label\ninf,0\n2.0,1\n", "non-finite"),
        ("a,b,label\n1.0,2.0,0\n3.0,x,1\n", r"bad\.csv:3: non-numeric cell 'x'"),
        ("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n5,1e999,1\n", r"bad\.csv:4: non-finite cell '1e999'"),
        # a ragged row anywhere is reported before a bad cell
        ("a,label\nfoo,0\n2.0,1\n3.0\n", r"bad\.csv:4: ragged row \(1 cells, expected 2\)"),
        ("a,label\n1.0,0\n2.0,0\n", "fewer than 2 classes"),
        (f"a,label\n1.0,0\n{BIG},1\n", r"bad\.csv:3: field larger than field limit \(131072\)"),
        (f"a,label\n1.0,0\n2.0,{BIG}\n3.0\n", r"bad\.csv:3: field larger than field limit"),
        (f"a,{BIG}\n1.0,0\n", r"bad\.csv:1: field larger than field limit"),
    ],
)
def test_csv_rejects_malformed_input(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    for name in PARSE_PATHS:
        with parse_path(name), pytest.raises(ValueError, match=message):
            load_csv(path, label_column="label")


def test_csv_that_is_not_utf8_names_the_file_and_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,label\n1.0,x\n2.0,\xe9\n")
    for name in PARSE_PATHS:
        with parse_path(name), pytest.raises(ValueError, match=(
                r"latin1\.csv:3: not valid UTF-8 \(invalid continuation byte at byte 18\)")):
            load_csv(path)


@pytest.mark.parametrize("variant", ["quoted", "crlf", "no final newline"])
def test_csv_quoting_and_line_ends_do_not_change_the_dataset(tmp_path, variant):
    """A quoted label, CRLF line ends and a missing final newline give the
    dataset of the plain file, feature bytes included."""
    rng = np.random.default_rng(8)
    rows = [[repr(v) for v in rng.normal(size=3).tolist()] + [lab] for lab in "abab"]
    plain = "x,y,z,label\n" + "".join(",".join(r) + "\n" for r in rows)
    other = {"quoted": plain.replace("a\n", '"a"\n'),
             "crlf": plain.replace("\n", "\r\n"),
             "no final newline": plain[:-1]}[variant]
    (tmp_path / "p.csv").write_text(plain, encoding="utf-8")
    (tmp_path / "o.csv").write_bytes(other.encode("utf-8"))
    a, b = load_csv(tmp_path / "p.csv"), load_csv(tmp_path / "o.csv")
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels) and a.num_classes == b.num_classes == 2


def test_csv_blank_line_is_a_ragged_row(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,label\n1.0,0\n\n2.0,1\n", encoding="utf-8")
    for name in PARSE_PATHS:
        with parse_path(name), pytest.raises(
                ValueError, match=r"blank\.csv:3: ragged row \(0 cells, expected 2\)"):
            load_csv(path)


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    for name in PARSE_PATHS:
        with parse_path(name), pytest.raises(ValueError, match="not in header"):
            load_csv(path, label_column="label")
        with parse_path(name), pytest.raises(ValueError, match="out of range"):
            load_csv(path, label_column=5)
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", label_column="label")
