"""Stratified K-fold orchestration of the federated train/personalize cycle.

Per fold, ``run_global_phase`` runs partition-respecting global FedAvg
training and checkpoints the global model with a digest of the clients'
rows.  Then ``run_trial`` runs once per sampling technique from that
checkpoint: it derives the rows from the plan, as the global phase did, and
gives every client its own copy of the global model, so a trial's records
depend only on the plan, the fold, the sampler spec and the checkpoint's
bytes.  Metrics are recorded on a fixed round schedule and returned as one
flat list of (fold, sampler, round) records.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

# a fold writes and reads global.fedh only; save_client and load_client
# stay importable here for the benchmark's tracer, which wraps them by name
from .checkpoint import load_client, load_global, save_client, save_global  # noqa: F401
from .dataset import Dataset, partition_noniid, stratified_kfold
from .federation import (
    ClientState,
    EncodedSet,
    ServerState,
    TrainHyper,
    build_personalization_set,
    evaluate_clients,
    run_global_round,
    train_on,
)
from .gcae import ArchSpec, init_model
from .resampling import SamplerSpec
from .seeding import derive_rng, derive_seed


@dataclass(frozen=True)
class MetricsRecord:
    fold: int
    sampler: str
    round: int
    test_accuracy: float
    test_auc: float
    std_test_accuracy: float
    std_test_auc: float
    train_loss: float


def _as_spec(s) -> SamplerSpec:
    return s if isinstance(s, SamplerSpec) else SamplerSpec(kind=s)


@dataclass
class ExperimentPlan:
    """Everything needed to reproduce one experiment."""

    dataset: Dataset
    num_clients: int
    samplers: Sequence[SamplerSpec | str]
    work_dir: str | Path
    num_folds: int = 5
    global_rounds: int = 200
    personalization_rounds: int = 200
    eval_gap: int = 1
    master_seed: int = 0
    concentration: float = 0.5
    arch: ArchSpec | None = None
    hyper: TrainHyper = field(default_factory=TrainHyper)
    personalize_full_model: bool = True

    def __post_init__(self):
        self.samplers = tuple(_as_spec(s) for s in self.samplers)
        self.work_dir = Path(self.work_dir)
        for name, low in (("num_clients", 2), ("num_folds", 2), ("global_rounds", 1),
                          ("personalization_rounds", 1), ("eval_gap", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for rounds in ("personalization_rounds", "global_rounds"):  # else round 0 only is scored
            if self.eval_gap > getattr(self, rounds):
                raise ValueError(f"eval_gap must be <= {rounds} ({getattr(self, rounds)}), "
                                 f"got {self.eval_gap}")
        if self.num_folds > len(self.dataset):
            raise ValueError(f"num_folds must be <= the dataset's {len(self.dataset)} rows, "
                             f"got {self.num_folds}")
        if not 0 < self.concentration < math.inf:  # NaN fails too
            raise ValueError(f"concentration must be finite and > 0, got {self.concentration}")
        names = [s.kind for s in self.samplers]
        if not names:
            raise ValueError("samplers must name at least one sampler")
        if len(set(names)) != len(names):
            raise ValueError(f"samplers contains duplicates: {names}")
        width = self.dataset.num_features
        if self.arch is None:
            self.arch = ArchSpec(input_len=width, num_classes=self.dataset.num_classes)
        if self.arch.input_len != width:
            raise ValueError(f"arch input width {self.arch.input_len} does not match "
                             f"the dataset's {width} features")

    def eval_schedule(self) -> tuple[int, ...]:
        """Personalization rounds at which metrics are recorded: the round-0
        baseline plus every ``eval_gap``-th round."""
        r = self.personalization_rounds
        return (0,) + tuple(i for i in range(1, r + 1) if i % self.eval_gap == 0)

    def fold_dir(self, fold: int) -> Path:
        return Path(self.work_dir) / f"fold_{fold}"


def partition_clients(plan: ExperimentPlan):
    """The experiment's client partition, each client's sorted row indices
    at its id's position; it does not depend on the fold."""
    return partition_noniid(plan.dataset, plan.num_clients,
                            concentration=plan.concentration,
                            seed=derive_seed(plan.master_seed, "partition"))


def _fold_assignment(plan: ExperimentPlan):
    """Each row's test fold."""
    return stratified_kfold(plan.dataset.labels, plan.num_folds,
                            seed=derive_seed(plan.master_seed, "folds"))


def _split_clients(shards, folds, fold: int):
    """Per-client (train, test) row indices for one fold."""
    test_mask = folds == fold
    return [(rows[~test_mask[rows]], rows[test_mask[rows]]) for rows in shards]


def _global_eval(server: ServerState, features, labels) -> None:
    """Score the aggregated model on every client's test split and append its
    accuracy and AUC to the server's running histories."""
    model = server.global_model
    summary = evaluate_clients([EncodedSet(model, features[c.test_indices], labels[c.test_indices])
                                for c in server.clients])
    server.rs_test_acc.append(summary.test_accuracy)
    server.rs_test_auc.append(summary.test_auc)


def _afresh(sets: list[EncodedSet]) -> list[EncodedSet]:
    """The same rows, to be encoded anew by their models' current weights."""
    return [EncodedSet(s.model, s.features, s.labels) for s in sets]


# A model that diverges fails the package's own finiteness checks, in the
# step's loss, the FedAvg mean, the SVM-SMOTE fit or the scores, and the
# error names the round or the sampler; numpy's overflow warnings on the way
# there add nothing.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
def run_global_phase(plan: ExperimentPlan, fold: int, shards=None) -> Path:
    """Train and evaluate one fold's global model, and write it with the
    digest of the clients' rows to the fold directory's ``global.fedh``,
    whose path is returned.  ``shards`` is the client partition, as
    ``partition_clients`` returns it; it is computed here when not given."""
    if not 0 <= fold < plan.num_folds:
        raise ValueError(f"fold {fold} outside 0..{plan.num_folds - 1}")
    features, labels = plan.dataset.features, plan.dataset.labels
    shards = partition_clients(plan) if shards is None else shards
    splits = _split_clients(shards, _fold_assignment(plan), fold)

    seed0 = plan.master_seed
    init_rng = derive_rng(seed0, "init", fold)
    global_model = init_model(plan.arch, init_rng)
    # nothing here reads a client's model: each round trains its own copy of the global one
    clients = [
        ClientState(client_id=i, model=global_model, train_indices=tr, test_indices=te)
        for i, (tr, te) in enumerate(splits)
    ]
    server = ServerState(global_model=global_model, clients=clients)

    for rnd in range(plan.global_rounds + 1):  # round 0 scores the initial model
        try:
            if rnd > 0:
                run_global_round(server, features, labels, plan.hyper,
                                 lambda cid, _r=rnd: derive_rng(seed0, "global", fold, _r, cid))
            if rnd % plan.eval_gap == 0:
                _global_eval(server, features, labels)
        except Exception as exc:
            raise RuntimeError(f"fold {fold}, global round {rnd}: {exc}") from exc

    path = plan.fold_dir(fold) / "global.fedh"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_global(path, server)
    return path


@_QUIET_OVERFLOW
def run_trial(plan: ExperimentPlan, fold: int, spec: SamplerSpec,
              path: Path, shards=None) -> list[MetricsRecord]:
    """Personalize every client with one sampler from the fold's checkpoint
    at ``path``, recording scheduled rounds; a failure, a checkpoint of
    another client split too, is raised as a RuntimeError that names the
    fold and the sampler.  ``shards`` is as for ``run_global_phase``.

    A head-only trial never moves an encoder or a decoder, so it keeps each
    client's test split and personalization set as one ``EncodedSet``: the
    round-0 evaluation encodes them, and decodes the latter for its
    reconstruction MSE, once, and every step and evaluation after it runs
    the classifier head on those codes.  A full-model trial takes fresh
    sets over the same rows before each later evaluation.
    """
    try:
        shards = partition_clients(plan) if shards is None else shards
        server = load_global(path, _split_clients(shards, _fold_assignment(plan), fold))
        features, labels = plan.dataset.features, plan.dataset.labels
        seed0 = plan.master_seed
        head_only = not plan.personalize_full_model
        test_sets, train_sets = [], []
        for c in server.clients:
            tr, te = c.train_indices, c.test_indices
            test_sets.append(EncodedSet(c.model, features[te], labels[te]))
            if len(tr) == 0:
                warnings.warn(f"client {c.client_id} has no fold-train rows; it keeps the "
                              "global model", stacklevel=2)
                train_sets.append(EncodedSet(c.model, features[:0], labels[:0]))
                continue
            pers = build_personalization_set(
                c.model, features[tr], labels[tr], spec,
                derive_rng(seed0, "resample", fold, spec.kind, c.client_id))
            train_sets.append(EncodedSet(c.model, pers.features, pers.labels))

        schedule = set(plan.eval_schedule())
        records: list[MetricsRecord] = []
        for rnd in range(plan.personalization_rounds + 1):
            for c, rows in zip(server.clients, train_sets):
                if rnd == 0 or len(rows) == 0:  # round 0 scores the global model
                    continue
                train_on(c.model, rows.codes if head_only else rows.features, rows.labels,
                         plan.hyper, derive_rng(seed0, "ptrain", fold, spec.kind, rnd, c.client_id),
                         head_only=head_only)
            if rnd in schedule:
                if not head_only and rnd > 0:  # the encoders moved since the sets were encoded
                    test_sets, train_sets = _afresh(test_sets), _afresh(train_sets)
                summary = evaluate_clients(test_sets, train_sets)
                records.append(MetricsRecord(fold, spec.kind, rnd, *astuple(summary)))
        return records
    except Exception as exc:
        raise RuntimeError(f"fold {fold}, sampler {spec.kind!r}: {exc}") from exc


def run_fold(plan: ExperimentPlan, fold: int, shards=None) -> list[MetricsRecord]:
    """Run one fold's global phase, then each sampler's trial from its
    checkpoint, and return the fold's metric rows.  ``shards`` is the
    client partition, computed here when not given."""
    shards = partition_clients(plan) if shards is None else shards
    path = run_global_phase(plan, fold, shards)
    return [r for spec in plan.samplers for r in run_trial(plan, fold, spec, path, shards)]


def run_experiment(plan: ExperimentPlan, shards=None) -> list[MetricsRecord]:
    """All folds, grid-checked: every (fold, sampler, scheduled round) cell
    must be present exactly once or the run is rejected as inconsistent.
    ``shards`` is the client partition, computed here when not given."""
    shards = partition_clients(plan) if shards is None else shards
    records = [r for fold in range(plan.num_folds) for r in run_fold(plan, fold, shards)]
    _check_grid(plan, records)
    return records


def _check_grid(plan: ExperimentPlan, records: list[MetricsRecord]) -> None:
    want = {(f, s.kind, r)
            for f in range(plan.num_folds)
            for s in plan.samplers
            for r in plan.eval_schedule()}
    got = [(r.fold, r.sampler, r.round) for r in records]
    if len(got) != len(set(got)):
        raise RuntimeError("duplicate metric rows for the same (fold, sampler, round)")
    missing = want - set(got)
    extra = set(got) - want
    if missing or extra:
        raise RuntimeError(f"metrics grid is ragged: missing={sorted(missing)[:5]} "
                           f"extra={sorted(extra)[:5]}")
