"""Checks on the files one experiment writes.

Each check is one operation of the run's tally.  Expected values come from
the workload definition and the labels the benchmark generated, or from
properties the method must have; none comes from a stored earlier output.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

from tally import Tally
from workloads import Workload

COMPARED_FILES = ("metrics.csv", "summary.csv", "violin.csv")
METRIC_COLUMNS = ("test_accuracy", "test_auc", "std_test_accuracy", "std_test_auc",
                  "train_loss")
# Values are written with 6 decimals: a fold mean of rounded values and a
# rounded fold mean differ by at most one unit in the last place.
SUMMARY_TOLERANCE = 1e-6 + 1e-9


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def majority_share_bound(class_counts, folds: int) -> float:
    """Upper bound on the majority-class share of one fold's test rows.

    Stratified folds hold within one row of n_c / folds of every class c and
    within one row of n / folds rows in all.
    """
    n = sum(class_counts)
    return max(-(-c // folds) for c in class_counts) / (n // folds)


def check_outputs(t: Tally, out_dir: Path, w: Workload) -> None:
    try:
        metrics = read_rows(out_dir / "metrics.csv")
        summary = read_rows(out_dir / "summary.csv")
        violin = read_rows(out_dir / "violin.csv")
    except (OSError, csv.Error) as exc:
        t.check("output files are readable", False, f"({exc})")
        return

    schedule = w.schedule()
    want = {(f, s, r) for f in range(w.num_folds) for s in w.samplers for r in schedule}
    keys = [(int(m["fold"]), m["sampler"], int(m["round"])) for m in metrics]
    t.check("metrics.csv holds every (fold, sampler, round) once",
            len(keys) == len(set(keys)) and set(keys) == want,
            f"({len(keys)} rows, {len(want)} expected)")
    vkeys = [(int(v["fold"]), v["sampler"], int(v["round"])) for v in violin]
    skeys = [(s["sampler"], int(s["round"])) for s in summary]
    t.check("summary.csv and violin.csv hold every cell once",
            sorted(vkeys) == sorted(want)
            and sorted(skeys) == sorted({(s, r) for s in w.samplers for r in schedule}))

    values = [float(m[c]) for m in metrics for c in METRIC_COLUMNS]
    bounded = [float(m[c]) for m in metrics for c in ("test_accuracy", "test_auc")]
    t.check("every value is finite; accuracy and AUC lie in [0, 1]",
            all(math.isfinite(v) for v in values) and all(0.0 <= v <= 1.0 for v in bounded))

    cell = {k: m for k, m in zip(keys, metrics)}
    if set(cell) != want:
        return  # the remaining checks index the full grid

    same_start = all(
        len({(cell[f, s, 0]["test_accuracy"], cell[f, s, 0]["test_auc"]) for s in w.samplers}) == 1
        for f in range(w.num_folds))
    t.check("round-0 accuracy and AUC agree across samplers within a fold", same_start)

    means = defaultdict(list)
    for (f, s, r), m in cell.items():
        means[s, r].append(m)
    worst = 0.0
    for row in summary:
        group = means.get((row["sampler"], int(row["round"])), [])
        for c in METRIC_COLUMNS:
            mean = sum(float(g[c]) for g in group) / max(1, len(group))
            worst = max(worst, abs(float(row[c]) - mean))
    t.check("summary.csv is the fold mean of metrics.csv", worst <= SUMMARY_TOLERANCE,
            f"(largest difference {worst:.3g})")

    last = schedule[-1]
    floor = majority_share_bound(w.class_counts, w.num_folds)
    low = [(f, s) for f in range(w.num_folds) for s in w.samplers
           if float(cell[f, s, last]["test_accuracy"]) < floor]
    t.check("last-round accuracy is at least the majority-class share", not low,
            f"(below {floor:.4f}: {low})")
    if w.check_not_below_round0:
        fell = [(f, s) for f in range(w.num_folds) for s in w.samplers
                if float(cell[f, s, last]["test_accuracy"])
                < float(cell[f, s, 0]["test_accuracy"])]
        t.check("last-round accuracy is at least round-0 accuracy", not fell, f"({fell})")
    rose = [(f, s) for f in range(w.num_folds) for s in w.samplers
            if float(cell[f, s, last]["train_loss"]) >= float(cell[f, s, 0]["train_loss"])]
    t.check("train_loss at the last round is below round 0", not rose, f"({rose})")


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in COMPARED_FILES
            if (out_dir / name).is_file()}


def check_identical(t: Tally, label: str, first: dict[str, bytes], again: dict[str, bytes]) -> None:
    differ = [n for n in COMPARED_FILES if first.get(n) is None or first.get(n) != again.get(n)]
    t.check(label, not differ, f"({', '.join(differ)} differ)")


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
