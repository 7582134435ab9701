"""Cloud-edge simulation: FedAvg rounds, local SGD, latent-space balancing.

A global round copies the server model to every client, trains it locally
on the client's fold-train rows, and replaces the server model with the
sample-count-weighted average of the returned models.  Personalization
(``crossval``) reuses the same local training but never aggregates: each
client drifts on its own class-balanced data.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

# forward and evaluate_loss stay importable here so that callers and tools
# can patch or wrap them by name, though scoring runs encode and head_scores,
# and a training loss evaluate_head_loss, instead
from .gcae import (  # noqa: F401
    ModelState,
    decode,
    encode,
    evaluate_head_loss,
    evaluate_loss,
    forward,
    head_scores,
    reconstruction_mse,
    train_head_step,
    train_step,
)
from .metrics import _unique, accuracy, roc_auc_macro, sample_std
from .resampling import ResampledSet, SamplerSpec, resample


@dataclass(frozen=True)
class TrainHyper:
    learning_rate: float = 0.01
    batch_size: int = 32
    local_epochs: int = 1

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("batch_size", "local_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class ClientState:
    """One simulated edge device: its model and its fold's row indices."""

    client_id: int
    model: ModelState
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        self.train_indices = np.asarray(self.train_indices, dtype=np.int64)
        self.test_indices = np.asarray(self.test_indices, dtype=np.int64)
        # what np.intersect1d does, without its numpy.ma import
        both = np.concatenate([_unique(self.train_indices), _unique(self.test_indices)])
        if len(_unique(both)) < len(both):
            raise ValueError("train and test indices overlap")


@dataclass
class ServerState:
    global_model: ModelState
    clients: list[ClientState]
    rs_test_acc: list[float] = field(default_factory=list)
    rs_test_auc: list[float] = field(default_factory=list)
    rs_train_loss: list[float] = field(default_factory=list)

    def __post_init__(self):
        for c in self.clients:
            if c.model.arch != self.global_model.arch:
                raise ValueError(f"client {c.client_id} arch differs from the server's")
        if len(self.rs_test_acc) != len(self.rs_test_auc):
            raise ValueError("test accuracy/AUC histories must stay aligned")


def fedavg(models: list[ModelState], sample_counts) -> ModelState:
    """Sample-count-weighted mean of the models' parameter vectors.

    Accumulates in float64 in fixed list order and casts back to the model
    dtype; counts are normalized first, so a single model (or identical
    models) averages to itself exactly.  A non-finite mean raises
    FloatingPointError, naming the first parameter that holds one.
    """
    if not models:
        raise ValueError("need at least one model")
    w = np.asarray(sample_counts, dtype=np.float64)
    if w.shape != (len(models),):
        raise ValueError("one sample count per model required")
    if np.any(w <= 0):
        raise ValueError("sample counts must be positive")
    arch = models[0].arch
    if any(m.arch != arch for m in models[1:]):
        raise ValueError("models have mismatched architectures")
    acc = np.zeros(models[0].flat.shape, dtype=np.float64)
    for c, m in zip(w / w.sum(), models):
        acc += c * m.flat.astype(np.float64)
    mean = ModelState(arch, acc.astype(models[0].dtype))
    name = mean.first_non_finite()
    if name is not None:
        raise FloatingPointError(f"non-finite FedAvg mean of parameter {name}")
    return mean


def train_on(model: ModelState, features, labels, hyper: TrainHyper, rng,
             head_only: bool = False) -> float:
    """Minibatch SGD over seeded shuffled epochs; returns the per-sample
    mean of the pre-update batch losses that each step returns.  The
    trailing partial batch is kept.

    With ``head_only`` the rows are latent codes, as ``encode`` gives them,
    and each batch is one ``train_head_step``: the classifier head alone
    trains, and its losses are beta * cross-entropy.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("cannot train on an empty set")
    total, seen = 0.0, 0
    for _ in range(hyper.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            if head_only:
                batch_loss = train_head_step(model, features[idx], labels[idx],
                                             hyper.learning_rate)
            else:
                batch_loss = train_step(model, features[idx], labels[idx], hyper.learning_rate)
            total += batch_loss * len(idx)
            seen += len(idx)
    return total / seen


def run_global_round(server: ServerState, features, labels, hyper: TrainHyper,
                     rng_factory) -> float:
    """One FedAvg round over every client.

    ``rng_factory(client_id)`` supplies each client's batch-shuffling stream.
    Clients with empty fold-train data are skipped with a warning; if every
    client is empty the round fails.  Returns the sample-weighted mean
    client train loss, which is also appended to rs_train_loss.
    """
    models, weights, losses = [], [], []
    for client in server.clients:
        tr = client.train_indices
        if len(tr) == 0:
            warnings.warn(f"client {client.client_id} has no fold-train data; skipping",
                          stacklevel=2)
            continue
        local = server.global_model.copy()
        client_loss = train_on(local, features[tr], labels[tr], hyper,
                               rng_factory(client.client_id))
        client.model = local
        models.append(local)
        weights.append(len(tr))
        losses.append(client_loss)
    if not models:
        raise ValueError("every client was empty; nothing to aggregate")
    server.global_model = fedavg(models, weights)
    mean_loss = float(np.average(losses, weights=weights))
    server.rs_train_loss.append(mean_loss)
    return mean_loss


@dataclass
class PersonalSet:
    """Client training material after latent-space class balancing.

    Surviving original rows keep their raw features; synthetic latent rows
    are decoded back to feature space by the same model that encoded them.
    ``resampled`` is None when resampling was skipped (single-class client).
    """

    features: np.ndarray
    labels: np.ndarray
    resampled: ResampledSet | None


def build_personalization_set(model: ModelState, features, labels,
                              spec: SamplerSpec, rng) -> PersonalSet:
    """encode -> resample in latent space -> decode synthetics -> feature set.

    A single-class client cannot be resampled; it keeps its raw rows and a
    warning is recorded rather than aborting the experiment.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    if len(_unique(labels)) < 2:
        warnings.warn("single-class training split; resampling skipped", stacklevel=2)
        return PersonalSet(features.astype(model.dtype), labels.copy(), None)
    latent = encode(model, features)
    rs = resample(latent, labels, spec, rng)
    out = np.empty((len(rs.labels), features.shape[1]), dtype=model.dtype)
    originals = ~rs.is_synthetic
    out[originals] = features[rs.source_indices[originals]].astype(model.dtype)
    if rs.is_synthetic.any():
        out[rs.is_synthetic] = decode(model, rs.features[rs.is_synthetic])
    return PersonalSet(features=out, labels=rs.labels.copy(), resampled=rs)


class EncodedSet:
    """A client's rows as ``model`` scores them: what ``evaluate_clients``
    takes.

    The latent codes of the rows, and their reconstruction MSE, which the
    loss adds to the head's cross-entropy, are each computed on first use,
    by ``encode`` and ``decode`` of ``model``, and then kept.  So a set
    stays valid while the encoder and decoder do not move: a head-only
    trial, which moves only the classifier head, keeps its sets for every
    round, and a full-model trial takes fresh ones before each evaluation.
    """

    def __init__(self, model: ModelState, features, labels):
        self.model = model
        self.features = np.asarray(features, dtype=model.dtype)
        self.labels = np.asarray(labels, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def codes(self) -> np.ndarray:
        return encode(self.model, self.features)

    @functools.cached_property
    def mse(self) -> float:
        return reconstruction_mse(decode(self.model, self.codes), self.features)

    def loss(self) -> float:
        """``evaluate_loss``'s total on these rows, from the kept codes and MSE."""
        return evaluate_head_loss(self.model, self.codes, self.labels, self.mse)[0]


@dataclass(frozen=True)
class EvalSummary:
    """Metrics of one evaluation over clients (see ``evaluate_clients``),
    named as ``metrics.METRIC_COLUMNS`` names the metrics.csv columns.

    ``train_loss`` is the sample-weighted mean full loss, alpha * MSE +
    beta * cross-entropy, on the clients' training material, or None when
    the evaluation was given no train sets.
    """

    test_accuracy: float
    test_auc: float
    std_test_accuracy: float
    std_test_auc: float
    train_loss: float | None


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = np.asarray(scores, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def evaluate_clients(test_sets: list[EncodedSet],
                     train_sets: list[EncodedSet] | None = None) -> EvalSummary:
    """Test metrics over clients, each set scored by the model that encodes
    it (``s.model``), on codes it computes once and keeps.

    Entry i of ``test_sets`` and of ``train_sets`` is client i's, and a
    warning names a client by that position.  Test splits are scored by the
    encoder and the classifier head; the decoder does not run.
    Accuracy/AUC are sample-count-weighted means; the std columns are
    unweighted sample standard deviations across clients (0 for one
    client).  A client with an empty test split is excluded with a warning,
    its training material too; a single-class test split is excluded from
    AUC only.  train_loss is the sample-weighted mean full loss on the other
    clients' current training material, or None without ``train_sets``.
    """
    accs, acc_w, aucs, auc_w, losses, loss_w = [], [], [], [], [], []
    trains = [None] * len(test_sets) if train_sets is None else train_sets
    for i, (test, train) in enumerate(zip(test_sets, trains, strict=True)):
        if len(test) == 0:
            warnings.warn(f"client {i} has an empty test split; excluded", stacklevel=2)
            continue
        y_test = test.labels
        scores = head_scores(test.model, test.codes)
        accs.append(accuracy(np.argmax(scores, axis=1), y_test))
        acc_w.append(len(y_test))
        if len(_unique(y_test)) < 2:
            warnings.warn(f"client {i} test split is single-class; excluded from AUC",
                          stacklevel=2)
        else:
            aucs.append(roc_auc_macro(_softmax(scores), y_test))
            auc_w.append(len(y_test))
        if train is not None and len(train):
            losses.append(train.loss())
            loss_w.append(len(train))
    if not accs:
        raise ValueError("no client had test data")
    if not aucs:
        raise ValueError("no client test split had two classes; AUC undefined")
    if train_sets is not None and not losses:
        raise ValueError("no client had both a test split and training material")
    return EvalSummary(
        test_accuracy=float(np.average(accs, weights=acc_w)),
        test_auc=float(np.average(aucs, weights=auc_w)),
        std_test_accuracy=sample_std(accs),
        std_test_auc=sample_std(aucs),
        train_loss=float(np.average(losses, weights=loss_w)) if losses else None,
    )
