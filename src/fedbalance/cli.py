"""JSON-configured experiment runner and the ``fedbalance`` console command.

Configs are strict: any key the schema does not define is an error, so a
typo like ``eval_gaps`` fails loudly instead of silently running with the
default.  Outputs (metrics.csv, summary.csv, violin.csv, run_manifest.json)
are written with fixed formatting and "\n" newlines, so two runs of the
same config produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import inspect
import json
import os
import sys
from pathlib import Path

from . import __version__
from .checkpoint import CheckpointError
from .crossval import ExperimentPlan, MetricsTable, run_experiment
from .dataset import Dataset, generate_synthetic, load_csv, make_synthetic_spec
from .federation import TrainHyper
from .gcae import ArchSpec, ConvStage
from .metrics import aggregate_over_folds
from .resampling import SAMPLER_NAMES, SamplerSpec, SvmParams
from .seeding import derive_seed


def _positive_ints(v) -> bool:
    return isinstance(v, list) and all(type(x) is int and x >= 1 for x in v)


def _counts(v, name):
    if not _positive_ints(v) or len(v) < 2:
        raise ValueError(f"{name} must be a list of >= 2 positive integers")
    return v


def _stages(v, name):
    if not isinstance(v, list) or not v or not all(_positive_ints(s) and len(s) == 3 for s in v):
        raise ValueError(f"{name} must be a list of [channels, kernel, pool] triples")
    return v


def _widths(v, name):
    if not _positive_ints(v):
        raise ValueError(f"{name} must be a list of positive integers")
    return v


def _column(v, name):
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise ValueError(f"{name} must be a column name or index")
    return v


def _samplers(v, name):
    if not isinstance(v, list) or not v:
        raise ValueError(f"{name} must be a non-empty list")
    for kind in v:
        if kind not in SAMPLER_NAMES:
            raise ValueError(f"unknown sampler {kind!r}; valid: {', '.join(SAMPLER_NAMES)}")
    if len(set(v)) != len(v):
        raise ValueError(f"{name} contains duplicates")
    return v


def _dataset(v, name):
    if not isinstance(v, dict):
        raise ValueError(f"{name} must be an object")
    kind = v.get("kind")
    if kind not in ("synthetic", "csv"):
        raise ValueError(f"dataset.kind must be 'synthetic' or 'csv', got {kind!r}")
    return {"kind": kind, **_section(v, kind, name, extra={"kind"})}


# Every config key as (section, key, type, minimum).  Section None is the top
# level; "synthetic" and "csv" are the two forms of config.dataset; a type of
# dict is a nested section named by the key.  A key without a default in
# _DEFAULTS is required.
_FIELDS = (
    (None, "seed", int, 0),
    (None, "dataset", _dataset, None),
    (None, "num_clients", int, 2),
    (None, "samplers", _samplers, None),
    (None, "num_folds", int, 2),
    (None, "global_rounds", int, 1),
    (None, "personalization_rounds", int, 1),
    (None, "eval_gap", int, 1),
    (None, "concentration", float, None),
    (None, "personalize_full_model", bool, None),
    (None, "output_dir", str, None),
    (None, "hyper", dict, None),
    (None, "sampler_params", dict, None),
    (None, "arch", dict, None),
    ("synthetic", "class_counts", _counts, None),
    ("synthetic", "dim", int, 1),
    ("synthetic", "scale", float, None),
    ("csv", "path", str, None),
    ("csv", "label_column", _column, None),
    ("hyper", "learning_rate", float, None),
    ("hyper", "batch_size", int, 1),
    ("hyper", "local_epochs", int, 1),
    ("sampler_params", "k_neighbors", int, 1),
    ("sampler_params", "m_neighbors", int, 1),
    ("sampler_params", "enn_k", int, 1),
    ("sampler_params", "svm_learning_rate", float, None),
    ("sampler_params", "svm_epochs", int, 1),
    ("sampler_params", "svm_regularization", float, None),
    ("arch", "stages", _stages, None),
    ("arch", "latent_dim", int, 1),
    ("arch", "mlp_hidden", _widths, None),
    ("arch", "recon_weight", float, None),
    ("arch", "pred_weight", float, None),
)


def _defaults(fn, prefix: str = "") -> dict:
    """Parameter defaults of a library class or function, as config keys."""
    return {prefix + name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def _plain(v):
    """A library default in its JSON form: tuples and conv stages as lists."""
    if isinstance(v, ConvStage):
        return [v.channels, v.kernel, v.pool]
    return [_plain(x) for x in v] if isinstance(v, tuple) else v


# A missing section defaults to {} (every key at its default); a None
# default leaves the key out of the config.
_DEFAULTS = {
    None: {**_defaults(ExperimentPlan), "output_dir": "results",
           "hyper": {}, "sampler_params": {}},
    "synthetic": _defaults(make_synthetic_spec),
    "csv": _defaults(load_csv),
    "hyper": _defaults(TrainHyper),
    "sampler_params": {**_defaults(SamplerSpec), **_defaults(SvmParams, "svm_")},
    "arch": _defaults(ArchSpec),
}


def _value(v, name: str, kind, minimum):
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if minimum is not None and v < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {v}")
        return v
    if kind is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{name} must be a number, got {v!r}")
        return float(v)
    if kind is bool:
        if not isinstance(v, bool):
            raise ValueError(f"{name} must be true or false, got {v!r}")
        return v
    if kind is str:
        if not isinstance(v, str) or not v:
            raise ValueError(f"{name} must be a non-empty string")
        return v
    if kind is dict:
        return _section(v, name.rpartition(".")[2], name)
    return kind(v, name)


def _section(obj, section, where: str, extra=frozenset()) -> dict:
    """Validate one config object against its rows of _FIELDS, filling in
    defaults; strict about keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    rows = [row for row in _FIELDS if row[0] == section]
    unknown = set(obj) - {key for _, key, _, _ in rows} - extra
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    defaults = _DEFAULTS[section]
    out = {}
    for _, key, kind, minimum in rows:
        if key in obj:
            out[key] = _value(obj[key], f"{where}.{key}", kind, minimum)
        elif key not in defaults:
            raise ValueError(f"{where}: missing required key {key!r}")
        elif defaults[key] is not None:
            out[key] = _value(_plain(defaults[key]), f"{where}.{key}", kind, minimum)
    return out


def parse_config(obj) -> dict:
    """Validate a decoded JSON object into the canonical config: a JSON-ready
    dict with every default filled in, which parses back to itself."""
    if not isinstance(obj, dict):
        raise ValueError("config root must be a JSON object")
    config = _section(obj, None, "config")
    if config["concentration"] <= 0:
        raise ValueError("config.concentration must be positive")
    if "arch" in config:
        recon, pred = config["arch"]["recon_weight"], config["arch"]["pred_weight"]
        if recon < 0 or pred < 0 or recon + pred <= 0:
            raise ValueError("arch loss weights must be non-negative with a positive sum")
    return config


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(obj)


def build_dataset(config: dict) -> Dataset:
    src = config["dataset"]
    if src["kind"] == "synthetic":
        spec = make_synthetic_spec(src["class_counts"], src["dim"], src["scale"],
                                   seed=config["seed"])
        return generate_synthetic(spec, derive_seed(config["seed"], "data"))
    return load_csv(src["path"], src["label_column"])


def build_plan(config: dict, ds: Dataset, work_dir) -> ExperimentPlan:
    # sampler_params holds SamplerSpec's fields, and SvmParams' behind "svm_"
    spec = {key: v for key, v in config["sampler_params"].items() if not key.startswith("svm_")}
    svm = SvmParams(**{key[4:]: v for key, v in config["sampler_params"].items()
                       if key.startswith("svm_")})
    arch = None
    if "arch" in config:
        a = config["arch"]
        arch = ArchSpec(input_len=ds.num_features, num_classes=ds.num_classes,
                        **{**a, "stages": tuple(ConvStage(*s) for s in a["stages"]),
                           "mlp_hidden": tuple(a["mlp_hidden"])})
    return ExperimentPlan(
        dataset=ds,
        num_clients=config["num_clients"],
        samplers=tuple(SamplerSpec(kind=name, svm=svm, **spec) for name in config["samplers"]),
        work_dir=Path(work_dir),
        num_folds=config["num_folds"],
        global_rounds=config["global_rounds"],
        personalization_rounds=config["personalization_rounds"],
        eval_gap=config["eval_gap"],
        master_seed=config["seed"],
        concentration=config["concentration"],
        arch=arch,
        hyper=TrainHyper(**config["hyper"]),
        personalize_full_model=config["personalize_full_model"],
    )


_METRIC_COLUMNS = ("test_accuracy", "test_auc", "std_test_accuracy", "std_test_auc", "train_loss")


# a user who sets any of these has chosen the BLAS thread count
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when this numpy has no such library."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def blas_threads() -> int | str:
    """The BLAS thread count in effect, or "unknown" without a known getter."""
    blas = _openblas()
    return blas[0]() if blas is not None else "unknown"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_outputs(table: MetricsTable, config: dict, output_dir: Path):
    output_dir.mkdir(parents=True, exist_ok=True)
    records = table.records
    _write_csv(output_dir / "metrics.csv", ("fold", "sampler", "round") + _METRIC_COLUMNS,
               ([r.fold, r.sampler, r.round] + [f"{getattr(r, c):.6f}" for c in _METRIC_COLUMNS]
                for r in records))
    _write_csv(output_dir / "summary.csv", ("sampler", "round") + _METRIC_COLUMNS,
               ([row["sampler"], row["round"]] + [f"{row[c]:.6f}" for c in _METRIC_COLUMNS]
                for row in aggregate_over_folds(records)))
    rank = {name: i for i, name in enumerate(config["samplers"])}
    _write_csv(output_dir / "violin.csv", ("sampler", "fold", "round", "std_test_accuracy"),
               ([r.sampler, r.fold, r.round, f"{r.std_test_accuracy:.6f}"]
                for r in sorted(records, key=lambda r: (rank[r.sampler], r.fold, r.round))))
    manifest = {
        "tool": "fedbalance",
        "version": __version__,
        "config": config,
        "num_records": len(table),
        "blas_threads": blas_threads(),
    }
    with open(output_dir / "run_manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run(config: dict, output_dir=None) -> MetricsTable:
    """Execute the full experiment and write all output files.

    ``output_dir`` overrides the config's own ``output_dir`` when given."""
    output_dir = Path(output_dir if output_dir is not None else config["output_dir"])
    ds = build_dataset(config)
    plan = build_plan(config, ds, output_dir / "checkpoints")
    table = run_experiment(plan)
    write_outputs(table, config, output_dir)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedbalance",
        description="Federated resampling testbench: global FedAvg training, "
                    "latent-space class balancing, per-client personalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config file")
    run_p.add_argument("--output", default=None,
                       help="output directory (default: the config's output_dir)")
    run_p.add_argument("--seed", type=int, default=None, help="override config seed")
    run_p.add_argument("--folds", type=int, default=None, help="override config num_folds")
    args = parser.parse_args(argv)

    # metrics depend on the BLAS thread count, so a run uses one thread
    # unless the user chose a count; the previous count is restored after
    blas = _openblas()
    restore = None
    if blas is not None and not any(os.environ.get(v) for v in _BLAS_ENV):
        restore = blas[0]()
        blas[1](1)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = {**config, "seed": args.seed}
        if args.folds is not None:
            config = {**config, "num_folds": args.folds}
        out_dir = args.output if args.output is not None else config["output_dir"]
        table = run(config, out_dir)
    except (ValueError, RuntimeError, FloatingPointError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if restore is not None:
            blas[1](restore)
    print(f"wrote {len(table)} metric records to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
