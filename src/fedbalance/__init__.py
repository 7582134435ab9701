"""Federated testbench for class-imbalanced clients: FedAvg training of a
convolutional autoencoder-classifier, latent-space resampling, per-client
personalization, and stratified cross-validated evaluation."""

__version__ = "0.1.0"

from .checkpoint import CheckpointError, load_client, load_global, save_client, save_global
from .crossval import ExperimentPlan, MetricsRecord, MetricsTable, run_experiment, run_fold
from .dataset import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    make_synthetic_spec,
    partition_noniid,
    save_csv,
    stratified_kfold,
)
from .federation import (
    ClientState,
    EncodedSet,
    EvalSummary,
    PersonalSet,
    ServerState,
    TrainHyper,
    build_personalization_set,
    evaluate_clients,
    fedavg,
    run_global_round,
    train_on,
)
from .gcae import (
    ArchSpec,
    ConvStage,
    ModelState,
    decode,
    encode,
    evaluate_head_loss,
    evaluate_loss,
    forward,
    grad_check,
    head_scores,
    init_model,
    loss,
    reconstruction_mse,
    train_head_step,
    train_step,
)
from .metrics import accuracy, aggregate_over_folds, roc_auc_macro, sample_std
from .resampling import SAMPLER_NAMES, ResampledSet, SamplerSpec, SvmParams, resample
from .seeding import derive_rng, derive_seed, seed_sequence

__all__ = [
    "__version__",
    "ArchSpec", "ConvStage", "ModelState",
    "encode", "decode", "forward", "head_scores", "loss", "evaluate_loss",
    "evaluate_head_loss", "reconstruction_mse", "init_model", "train_step", "train_head_step",
    "grad_check",
    "Dataset", "SyntheticSpec",
    "make_synthetic_spec", "generate_synthetic", "load_csv", "save_csv",
    "partition_noniid", "stratified_kfold",
    "SAMPLER_NAMES", "SamplerSpec", "SvmParams", "ResampledSet", "resample",
    "ClientState", "ServerState", "TrainHyper", "PersonalSet", "EncodedSet", "EvalSummary",
    "fedavg", "train_on", "run_global_round",
    "build_personalization_set", "evaluate_clients",
    "CheckpointError", "save_global", "load_global", "save_client", "load_client",
    "ExperimentPlan", "MetricsRecord", "MetricsTable", "run_fold", "run_experiment",
    "accuracy", "roc_auc_macro", "sample_std", "aggregate_over_folds",
    "seed_sequence", "derive_rng", "derive_seed",
]
