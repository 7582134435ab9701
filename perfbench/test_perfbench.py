"""Fast tests of the benchmark's own references, checks and statistics.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import itertools

import numpy as np
import pytest

import bruteforce
import outputs
import spans
from spread import last_json_line, quartile_spread
from tally import Tally
from workloads import Workload


def naive_order(x, i):
    """Other rows of x sorted by (squared distance, index), one at a time."""
    d = [(float(np.sum((x[j] - x[i]) ** 2)), j) for j in range(len(x)) if j != i]
    return [j for _, j in sorted(d)]


@pytest.fixture
def grid_points():
    # integer points with many exactly equal distances, so ties matter
    rng = np.random.default_rng(3)
    return rng.integers(0, 3, size=(40, 2)).astype(np.float64)


def test_neighbor_order_breaks_ties_by_index(grid_points):
    order = bruteforce.neighbor_order(grid_points)
    for i in range(len(grid_points)):
        assert order[i].tolist() == naive_order(grid_points, i)
    rows = np.array([5, 0, 17])
    assert bruteforce.knn(grid_points, 4, rows=rows).tolist() == \
        [naive_order(grid_points, i)[:4] for i in rows]


def test_enn_keep_on_a_hand_made_set():
    x = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 1, 0, 1, 1, 1])
    # row 2 (label 1) sits among label-0 rows; row 3's neighbours are 2, 1, 0
    # -> labels 1, 0, 0, a 0-majority, so it stays
    assert bruteforce.enn_keep(x, y, 3).tolist() == [True, True, False, True, True, True, True]


def test_tomek_pairs_are_mutual_cross_label_neighbours():
    x = np.array([[0.0], [1.0], [1.5], [5.0], [5.2], [9.0]])
    y = np.array([0, 0, 1, 0, 0, 1])
    # 1 <-> 2 are mutual nearest neighbours with different labels; 3 <-> 4
    # share a label; 5's nearest is 4, whose nearest is 3
    assert bruteforce.tomek_pairs(x, y) == [(1, 2)]


def test_off_segment_rows_accepts_interpolants_and_rejects_others():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((30, 4))
    near = bruteforce.knn(rows, 5)
    lam = rng.random((20, 1))
    p = rng.integers(0, 30, size=20)
    q = near[p, rng.integers(0, 5, size=20)]
    synthetic = rows[p] + lam * (rows[q] - rows[p])
    assert bruteforce.off_segment_rows(synthetic, rows, 5, 1e-9).size == 0
    # an interpolant between two rows that are not neighbours is still on a segment
    far = rows[0] + 0.5 * (rows[near[0, -1]] - rows[0])
    assert bruteforce.off_segment_rows(far[None], rows, 1, 1e-9).size == 0
    off = np.vstack([synthetic[:3], rows.mean(axis=0) + 10.0])
    assert bruteforce.off_segment_rows(off, rows, 5, 1e-9).tolist() == [3]


def test_segment_distance_handles_a_degenerate_segment():
    d = bruteforce.segment_distance(np.array([[3.0, 4.0]]), np.zeros((1, 2)), np.zeros((1, 2)))
    assert d.tolist() == [5.0]


def test_quartile_spread_on_hand_computed_quartiles():
    # 101..110: quartiles at positions 2.75 and 8.25 of 10, so Q1 = 102.75,
    # Q3 = 108.25 and the median is 105.5
    values = [107.0, 101.0, 110.0, 104.0, 102.0, 109.0, 103.0, 106.0, 105.0, 108.0]
    assert quartile_spread(values) == pytest.approx(5.5 / 105.5)
    # four values: positions 1.25 and 3.75, Q1 = 12.5, Q3 = 37.5, median 25
    assert quartile_spread([40.0, 10.0, 30.0, 20.0]) == pytest.approx(1.0)
    assert quartile_spread([5.0] * 10) == 0.0


def test_last_json_line_reads_the_result():
    assert last_json_line("machine: x\n{\"correct\": true}\n\n") == {"correct": True}


def test_layer_self_seconds_subtracts_direct_children():
    spans_ = [
        ["cli.run", 0.0, 10.0, -1, None],
        ["crossval.run_fold", 1.0, 9.0, 0, None],
        ["gcae.train_step", 2.0, 5.0, 1, "ptrain"],
        ["resampling.smote", 5.0, 6.0, 1, "resample"],
        ["gcae.forward", 2.5, 3.0, 2, None],
    ]
    self_s = spans.layer_self_seconds(spans_)
    assert self_s["cli"] == pytest.approx(2.0)
    assert self_s["crossval"] == pytest.approx(4.0)
    assert self_s["gcae"] == pytest.approx(2.5 + 0.5)
    assert self_s["resampling"] == pytest.approx(1.0)
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_and_phases():
    class Mod:
        @staticmethod
        def outer(f):
            return f()

        @staticmethod
        def inner():
            return 7

    t = spans.Tracer("test")
    t.wrap(Mod, "inner", "gcae.inner", tag="ptrain")
    t.wrap(Mod, "outer", "crossval.outer", enters="personal")
    assert Mod.outer(Mod.inner) == 7
    assert [s[0] for s in t.spans] == ["crossval.outer", "gcae.inner"]
    assert t.spans[1][3] == 0 and t.spans[0][3] == -1
    assert t.phase == "personal"
    assert t.phase_seconds()["ptrain"] == pytest.approx(t.spans[1][2] - t.spans[1][1])


def test_balanced_synthetic_count():
    assert spans.balanced_synthetic_count([0, 0, 0, 1, 2, 2]) == 3
    assert spans.balanced_synthetic_count([1, 1, 3]) == 1


def test_fedavg_reference_is_a_weighted_mean():
    class M:
        def __init__(self, v):
            self.params = {"w": np.array([v], dtype=np.float32)}

    ref = spans.fedavg_reference([M(1.0), M(4.0)], [2, 1])
    assert ref["w"].tolist() == [2.0]


def test_majority_share_bound():
    # folds of 410 rows hold 100 rows of each big class
    assert outputs.majority_share_bound((200, 200, 200, 200, 10, 10), 2) == 100 / 410
    assert outputs.majority_share_bound((5, 2), 2) == 3 / 3


def test_tally_counts_failed_calls_and_checks():
    t = Tally()
    secs, result = t.timed("ok", lambda: 3, calls=4)
    assert result == 3 and secs >= 0 and t.attempted == 5 and t.failed == 0
    secs, result = t.timed("boom", lambda: 1 / 0, calls=4)
    assert (secs, result) == (None, None) and t.attempted == 6 and t.failed == 1
    t.check("fine", True)
    t.check("broken", False, "(detail)")
    assert (t.attempted, t.failed, t.checks_failed) == (8, 2, 1)
    assert t.failures[-1] == "check failed: broken (detail)"


TINY = Workload("tiny", (6, 6, 2), num_clients=2, samplers=("smote", "random_over"),
                num_folds=2, global_rounds=1, personalization_rounds=2, eval_gap=2,
                batch_size=4, full_model=True, check_not_below_round0=True)


def write_outputs(path, acc_last=0.9, loss_last=0.5, summary_shift=0.0):
    rows = []
    for fold, sampler, rnd in itertools.product(range(2), TINY.samplers, TINY.schedule()):
        last = rnd == TINY.schedule()[-1]
        rows.append({"fold": fold, "sampler": sampler, "round": rnd,
                     "test_accuracy": acc_last if last else 0.6 + 0.1 * fold,
                     "test_auc": 0.9, "std_test_accuracy": 0.05, "std_test_auc": 0.01,
                     "train_loss": loss_last if last else 1.0})
    cols = outputs.METRIC_COLUMNS
    with open(path / "metrics.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("fold", "sampler", "round") + cols)
        for r in rows:
            w.writerow([r["fold"], r["sampler"], r["round"]] + [f"{r[c]:.6f}" for c in cols])
    with open(path / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("sampler", "round") + cols)
        for s, rnd in itertools.product(TINY.samplers, TINY.schedule()):
            group = [r for r in rows if r["sampler"] == s and r["round"] == rnd]
            w.writerow([s, rnd] + [f"{np.mean([g[c] for g in group]) + summary_shift:.6f}"
                                   for c in cols])
    with open(path / "violin.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("sampler", "fold", "round", "std_test_accuracy"))
        for r in rows:
            w.writerow([r["sampler"], r["fold"], r["round"], f"{r['std_test_accuracy']:.6f}"])


def test_check_outputs_passes_good_files(tmp_path):
    write_outputs(tmp_path)
    t = Tally()
    outputs.check_outputs(t, tmp_path, TINY)
    assert t.failures == [] and t.attempted == 8


@pytest.mark.parametrize("kwargs, broken", [
    ({"acc_last": 0.55}, "last-round accuracy is at least round-0 accuracy"),
    ({"acc_last": 0.3}, "last-round accuracy is at least the majority-class share"),
    ({"loss_last": 1.5}, "train_loss at the last round is below round 0"),
    ({"summary_shift": 3e-6}, "summary.csv is the fold mean of metrics.csv"),
    ({"acc_last": 1.5}, "every value is finite; accuracy and AUC lie in [0, 1]"),
])
def test_check_outputs_catches_broken_files(tmp_path, kwargs, broken):
    write_outputs(tmp_path, **kwargs)
    t = Tally()
    outputs.check_outputs(t, tmp_path, TINY)
    assert any(f.startswith(f"check failed: {broken}") for f in t.failures), t.failures


def test_check_identical_names_differing_files():
    t = Tally()
    first = {"metrics.csv": b"a", "summary.csv": b"b", "violin.csv": b"c"}
    outputs.check_identical(t, "same", first, dict(first))
    outputs.check_identical(t, "same", first, {**first, "summary.csv": b"x"})
    assert t.checks_failed == 1 and "summary.csv" in t.failures[0]
