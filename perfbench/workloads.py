"""Workload definitions and the benchmark's own dataset generator.

Every dataset is drawn here, from the workload name and the ``--seed``
argument, and handed to the program as a CSV file; the program never sees
the seed that made its data.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The program's master seed stays fixed, so the client partition, and with
# it the number of rows each trial resamples and trains on, is the same for
# every --seed; the seed varies the feature values.
PROGRAM_SEED = 0
ALL_SAMPLERS = ("smote", "borderline_smote", "random_over",
                "svm_smote", "smote_enn", "smote_tomek")
FEATURES = 24


@dataclass(frozen=True)
class Workload:
    name: str
    class_counts: tuple[int, ...]
    num_clients: int
    samplers: tuple[str, ...]
    num_folds: int
    global_rounds: int
    personalization_rounds: int
    eval_gap: int
    batch_size: int
    full_model: bool
    # Personalization must end no lower than it started, per (fold, sampler).
    # Only sweep runs this check: resample_heavy has a single personalization
    # round, too short to be sure of a gain, and head-only fine-tuning on
    # wide_batch can trade a little accuracy for balance.
    check_not_below_round0: bool

    def schedule(self) -> tuple[int, ...]:
        r = self.personalization_rounds
        return (0,) + tuple(i for i in range(1, r + 1) if i % self.eval_gap == 0)

    def trials(self) -> int:
        return self.num_folds * len(self.samplers)

    def config(self, csv_path: str) -> dict:
        """The JSON config the program's CLI reads."""
        return {
            "seed": PROGRAM_SEED,
            "dataset": {"kind": "csv", "path": csv_path, "label_column": "label"},
            "num_clients": self.num_clients,
            "samplers": list(self.samplers),
            "num_folds": self.num_folds,
            "global_rounds": self.global_rounds,
            "personalization_rounds": self.personalization_rounds,
            "eval_gap": self.eval_gap,
            "personalize_full_model": self.full_model,
            "hyper": {"batch_size": self.batch_size},
        }


WORKLOADS = {
    w.name: w for w in (
        # The acceptance-sweep shape: batch-32 personalization of 5 clients
        # under all six samplers dominates.
        Workload("sweep", (200, 200, 200, 200, 10, 10), num_clients=5,
                 samplers=ALL_SAMPLERS, num_folds=2, global_rounds=4,
                 personalization_rounds=4, eval_gap=2, batch_size=32,
                 full_model=True, check_not_below_round0=True),
        # Two clients of about 400 fold-train rows each and one round of
        # each phase: resampling, SVM-SMOTE above all, dominates.
        Workload("resample_heavy", (400, 400, 400, 400, 20, 20), num_clients=2,
                 samplers=ALL_SAMPLERS, num_folds=2, global_rounds=1,
                 personalization_rounds=1, eval_gap=1, batch_size=32,
                 full_model=True, check_not_below_round0=False),
        # Batch 512 on two clients of about 1200 fold-train rows, head-only
        # personalization, random oversampling only: arithmetic-bound GCAE.
        Workload("wide_batch", (1200, 1200, 1200, 1200, 60, 60), num_clients=2,
                 samplers=("random_over",), num_folds=2, global_rounds=10,
                 personalization_rounds=10, eval_gap=5, batch_size=512,
                 full_model=False, check_not_below_round0=False),
    )
}


def data_seed(workload: str, seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, zlib.crc32(workload.encode("utf-8"))])


def gaussian_classes(class_counts, dim: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Unit-variance Gaussian classes around centers drawn from [-2, 2]^dim,
    rows emitted class by class."""
    centers = rng.uniform(-2.0, 2.0, size=(len(class_counts), dim))
    features = np.vstack([centers[c] + rng.standard_normal((n, dim))
                          for c, n in enumerate(class_counts)])
    labels = np.repeat(np.arange(len(class_counts)), class_counts)
    return features, labels


def write_inputs(workload: Workload, seed: int, work_dir: Path) -> Path:
    """Generate the workload's dataset, write it and the run config into
    ``work_dir``; return the config path."""
    rng = np.random.default_rng(data_seed(workload.name, seed))
    features, labels = gaussian_classes(workload.class_counts, FEATURES, rng)
    csv_path = work_dir / "data.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{j}" for j in range(FEATURES)] + ["label"]) + "\n")
        for row, label in zip(features.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(workload.config(str(csv_path)), indent=1),
                           encoding="utf-8")
    return config_path
