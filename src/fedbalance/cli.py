"""JSON-configured experiment runner and the ``fedbalance`` console command.

Configs are strict: any key the schema does not define is an error, so a
typo like ``eval_gaps`` fails loudly instead of silently running with the
default.  Parsing checks keys and JSON types; the library classes check the
values, and their errors name the key as ``config.<section>.<key>``.
Outputs (metrics.csv, summary.csv, violin.csv, run_manifest.json) are
written with fixed formatting and "\n" newlines, so two runs of the same
config produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import inspect
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .checkpoint import CheckpointError
from .crossval import ExperimentPlan, MetricsRecord, run_experiment
from .dataset import Dataset, generate_synthetic, load_csv, make_synthetic_spec
from .federation import TrainHyper
from .gcae import ArchSpec, ConvStage
from .metrics import METRIC_COLUMNS, aggregate_over_folds
from .resampling import SAMPLER_NAMES, SamplerSpec, SvmParams
from .seeding import derive_seed


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(type(x) is int for x in v)


def _ints(v, name):
    if not _is_int_list(v):
        raise ValueError(f"{name} must be a list of integers")
    return v


def _stages(v, name):
    if not isinstance(v, list) or not all(_is_int_list(s) and len(s) == 3 for s in v):
        raise ValueError(f"{name} must be a list of [channels, kernel, pool] triples")
    return v


def _seed(v, name):
    # no library class owns the master seed's range; numpy is the only other check
    if _value(v, name, int) < 0:
        raise ValueError(f"{name} must be >= 0, got {v}")
    return v


def _column(v, name):
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise ValueError(f"{name} must be a column name or index")
    return v


def _samplers(v, name):
    if not isinstance(v, list) or not all(isinstance(kind, str) for kind in v):
        raise ValueError(f"{name} must be a list of sampler names")
    return v


def _dataset(v, name):
    if not isinstance(v, dict):
        raise ValueError(f"{name} must be an object")
    kind = v.get("kind")
    if kind not in ("synthetic", "csv"):
        raise ValueError(f"{name}.kind must be 'synthetic' or 'csv', got {kind!r}")
    return {"kind": kind, **_section(v, kind, name, extra={"kind"})}


# Every config key as (section, key, JSON type).  Section None is the top
# level; "synthetic" and "csv" are the two forms of config.dataset; a type of
# dict is a nested section named by the key.  A key without a default in
# _DEFAULTS is required.
_FIELDS = (
    (None, "seed", _seed),
    (None, "dataset", _dataset),
    (None, "num_clients", int),
    (None, "samplers", _samplers),
    (None, "num_folds", int),
    (None, "global_rounds", int),
    (None, "personalization_rounds", int),
    (None, "eval_gap", int),
    (None, "concentration", float),
    (None, "personalize_full_model", bool),
    (None, "output_dir", str),
    (None, "hyper", dict),
    (None, "sampler_params", dict),
    (None, "arch", dict),
    ("synthetic", "class_counts", _ints),
    ("synthetic", "dim", int),
    ("synthetic", "scale", float),
    ("csv", "path", str),
    ("csv", "label_column", _column),
    ("hyper", "learning_rate", float),
    ("hyper", "batch_size", int),
    ("hyper", "local_epochs", int),
    ("sampler_params", "k_neighbors", int),
    ("sampler_params", "m_neighbors", int),
    ("sampler_params", "enn_k", int),
    ("sampler_params", "svm_learning_rate", float),
    ("sampler_params", "svm_epochs", int),
    ("sampler_params", "svm_regularization", float),
    ("arch", "stages", _stages),
    ("arch", "latent_dim", int),
    ("arch", "mlp_hidden", _ints),
    ("arch", "recon_weight", float),
    ("arch", "pred_weight", float),
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


def _value(v, name: str, kind):
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        return v
    if kind is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{name} must be a number, got {v!r}")
        if not abs(v) <= sys.float_info.max:  # NaN and Infinity, which json reads, fail too
            raise ValueError(f"{name} must be a finite number, got {v!r}")
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
    unknown = set(obj) - {key for _, key, _ in rows} - extra
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    defaults = _DEFAULTS[section]
    out = {}
    for _, key, kind in rows:
        if key in obj:
            out[key] = _value(obj[key], f"{where}.{key}", kind)
        elif key not in defaults:
            raise ValueError(f"{where}: missing required key {key!r}")
        elif defaults[key] is not None:
            out[key] = _value(_plain(defaults[key]), f"{where}.{key}", kind)
    return out


def parse_config(obj) -> dict:
    """Check a decoded JSON object's keys and types into the canonical config:
    a JSON-ready dict with every default filled in, which parses back to itself."""
    if not isinstance(obj, dict):
        raise ValueError("config root must be a JSON object")
    return _section(obj, None, "config")


def load_config(path, **overrides) -> dict:
    """Parse a JSON config file whose top-level keys ``overrides`` replace."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config({**obj, **overrides} if isinstance(obj, dict) else obj)


def _build(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError's message, which starts with a
    field's name, gets ``where`` in front to name the config key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None


def build_dataset(config: dict) -> Dataset:
    src = config["dataset"]
    if src["kind"] == "synthetic":
        spec = _build("config.dataset.", make_synthetic_spec, src["class_counts"], src["dim"],
                      src["scale"], seed=config["seed"])
        return _build("config.dataset.", generate_synthetic, spec,
                      derive_seed(config["seed"], "data"))
    return load_csv(src["path"], src["label_column"])


def build_plan(config: dict, ds: Dataset, work_dir) -> ExperimentPlan:
    # sampler_params holds SamplerSpec's fields, and SvmParams' behind "svm_"
    params = config["sampler_params"]
    svm = _build("config.sampler_params.svm_", SvmParams,
                 **{key[4:]: v for key, v in params.items() if key.startswith("svm_")})
    # the parameters are checked once, on a spec of a known sampler, so the
    # per-sampler copies below can fail only on a sampler's name
    template = _build("config.sampler_params.", SamplerSpec, SAMPLER_NAMES[0], svm=svm,
                      **{key: v for key, v in params.items() if not key.startswith("svm_")})
    samplers = [_build("config.samplers: ", replace, template, kind=name)
                for name in config["samplers"]]
    arch = None
    if "arch" in config:
        arch = _build("config.arch.", ArchSpec, input_len=ds.num_features,
                      num_classes=ds.num_classes, **config["arch"])
    hyper = _build("config.hyper.", TrainHyper, **config["hyper"])
    same = ("num_clients", "num_folds", "global_rounds", "personalization_rounds", "eval_gap",
            "concentration", "personalize_full_model")  # keys named as the plan's fields
    return _build("config.", ExperimentPlan, dataset=ds, samplers=samplers,
                  work_dir=Path(work_dir), master_seed=config["seed"], arch=arch, hyper=hyper,
                  **{key: config[key] for key in same})


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


# glibc's heap settings for a run: a 16 MiB top pad keeps the memory a train
# step frees mapped for the next step, which would otherwise fault it in again
# zeroed, and a fixed mmap threshold keeps the step's arrays on that heap
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3   # mallopt parameter numbers, malloc.h
_TOP_PAD = 16 << 20
_MMAP_THRESHOLD = 32 << 20
_GLIBC_DEFAULT = 128 << 10   # glibc's default for both
# a user who sets any of these has chosen the allocator's behaviour
_MALLOC_ENV = ("MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "GLIBC_TUNABLES")


@functools.cache
def _mallopt():
    """glibc's ``mallopt``, or None outside glibc.  Looked up in the running
    process: ``ctypes.util.find_library`` would start a subprocess."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


@contextlib.contextmanager
def _run_settings():
    """A run's process settings, restored on exit: one BLAS thread, and a
    glibc heap that keeps freed memory.  Each is left alone when the user
    chose it through the environment.  Metrics depend on the BLAS thread
    count, which the manifest records, and not on the heap settings."""
    blas = None if any(os.environ.get(v) for v in _BLAS_ENV) else _openblas()
    heap = None if any(v in os.environ for v in _MALLOC_ENV) else _mallopt()
    threads = None
    if blas is not None:
        threads = blas[0]()
        blas[1](1)
    if heap is not None:
        heap(_M_TOP_PAD, _TOP_PAD)
        heap(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    try:
        yield
    finally:
        if threads is not None:
            blas[1](threads)
        if heap is not None:
            heap(_M_TOP_PAD, _GLIBC_DEFAULT)
            heap(_M_MMAP_THRESHOLD, _GLIBC_DEFAULT)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_outputs(records: list[MetricsRecord], config: dict, output_dir: Path):
    output_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(output_dir / "metrics.csv", ("fold", "sampler", "round") + METRIC_COLUMNS,
               ([r.fold, r.sampler, r.round] + [f"{getattr(r, c):.6f}" for c in METRIC_COLUMNS]
                for r in records))
    _write_csv(output_dir / "summary.csv", ("sampler", "round") + METRIC_COLUMNS,
               ([row["sampler"], row["round"]] + [f"{row[c]:.6f}" for c in METRIC_COLUMNS]
                for row in aggregate_over_folds(records)))
    rank = {name: i for i, name in enumerate(config["samplers"])}
    _write_csv(output_dir / "violin.csv", ("sampler", "fold", "round", "std_test_accuracy"),
               ([r.sampler, r.fold, r.round, f"{r.std_test_accuracy:.6f}"]
                for r in sorted(records, key=lambda r: (rank[r.sampler], r.fold, r.round))))
    manifest = {
        "tool": "fedbalance",
        "version": __version__,
        "config": config,
        "num_records": len(records),
        "blas_threads": blas_threads(),
    }
    with open(output_dir / "run_manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run(config: dict, output_dir=None) -> list[MetricsRecord]:
    """Execute the full experiment and write all output files.

    ``output_dir`` overrides the config's own ``output_dir`` when given."""
    output_dir = Path(output_dir if output_dir is not None else config["output_dir"])
    ds = build_dataset(config)
    plan = build_plan(config, ds, output_dir / "checkpoints")
    records = run_experiment(plan)
    write_outputs(records, config, output_dir)
    return records


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

    try:
        with _run_settings():
            overrides = {"seed": args.seed, "num_folds": args.folds}
            config = load_config(args.config,
                                 **{key: v for key, v in overrides.items() if v is not None})
            out_dir = args.output if args.output is not None else config["output_dir"]
            records = run(config, out_dir)
    except (ValueError, RuntimeError, FloatingPointError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1
    print(f"wrote {len(records)} metric records to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
