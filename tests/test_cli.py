"""Config parsing, deterministic output files, and the console entry point."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbalance import cli
from fedbalance.crossval import MetricsRecord
from fedbalance.dataset import make_synthetic_spec
from fedbalance.federation import TrainHyper
from fedbalance.gcae import ArchSpec
from fedbalance.resampling import SAMPLER_NAMES, SamplerSpec, SvmParams

# Tiny datasets hand some clients single-class splits; that path is exercised
# deliberately in test_crossval, here it is just noise.
pytestmark = pytest.mark.filterwarnings(
    "ignore:single-class training split",
    "ignore:client \\d+ test split is single-class",
)


def minimal_config(**over):
    obj = {
        "seed": 7,
        "dataset": {"kind": "synthetic", "class_counts": [30, 20, 8], "dim": 8},
        "num_clients": 3,
        "samplers": ["smote", "random_over"],
    }
    obj.update(over)
    return obj


def tiny_config(**over):
    """A config small enough to run end-to-end in about a second."""
    obj = minimal_config(
        num_folds=2,
        global_rounds=2,
        personalization_rounds=2,
        eval_gap=1,
        arch={"stages": [[3, 3, 2]], "latent_dim": 4, "mlp_hidden": [5]},
        hyper={"learning_rate": 0.05, "batch_size": 8},
    )
    obj.update(over)
    return obj


def build(**over):
    """Parse a minimal config with ``over`` and build its library objects,
    where the value rules are checked."""
    cfg = cli.parse_config(minimal_config(**over))
    return cli.build_plan(cfg, cli.build_dataset(cfg), "unused")


# --- config parsing ---


def test_minimal_config_fills_defaults():
    cfg = cli.parse_config(minimal_config())
    assert cfg["num_folds"] == 5
    assert cfg["global_rounds"] == 200
    assert cfg["personalization_rounds"] == 200
    assert cfg["eval_gap"] == 1
    assert cfg["concentration"] == 0.5
    assert cfg["personalize_full_model"] is True
    assert cfg["output_dir"] == "results"
    assert "arch" not in cfg
    assert cfg["hyper"] == asdict(TrainHyper())
    assert cfg["hyper"]["learning_rate"] == 0.01
    assert cfg["hyper"]["batch_size"] == 32
    assert cfg["sampler_params"]["k_neighbors"] == 5
    assert cfg["sampler_params"]["svm_epochs"] == 200
    arch = cli.parse_config(minimal_config(arch={"latent_dim": 4}))["arch"]
    assert arch == {"stages": [[8, 5, 2], [16, 5, 2]], "latent_dim": 4, "mlp_hidden": [32],
                    "recon_weight": 1.0, "pred_weight": 1.0}


def test_every_library_setting_is_a_config_key():
    """Each field of a class the config builds is a key of its config
    section: no value that shapes a run can be set from the library alone.
    The dataset fixes input_len and num_classes; kind and svm are built
    from config.samplers and the svm_ keys."""
    keys = {section: {key for sec, key, _ in cli._FIELDS if sec == section}
            for section in ("arch", "hyper", "sampler_params")}
    settings = {
        "arch": {f.name for f in fields(ArchSpec)} - {"input_len", "num_classes"},
        "hyper": {f.name for f in fields(TrainHyper)},
        "sampler_params": ({f.name for f in fields(SamplerSpec)} - {"kind", "svm"})
        | {f"svm_{f.name}" for f in fields(SvmParams)},
    }
    for section, names in settings.items():
        assert names <= keys[section], f"config.{section} lacks {sorted(names - keys[section])}"


def test_unknown_top_level_key_is_an_error():
    with pytest.raises(ValueError, match="eval_gaps"):
        cli.parse_config(minimal_config(eval_gaps=5))


def test_unknown_nested_keys_are_errors():
    with pytest.raises(ValueError, match="config.hyper"):
        cli.parse_config(minimal_config(hyper={"lr": 0.1}))
    with pytest.raises(ValueError, match="config.dataset"):
        cli.parse_config(minimal_config(dataset={"kind": "synthetic", "rows": 5}))
    with pytest.raises(ValueError, match="config.sampler_params"):
        cli.parse_config(minimal_config(sampler_params={"knn": 3}))
    with pytest.raises(ValueError, match="config.arch"):
        cli.parse_config(minimal_config(arch={"stages": [[3, 3, 2]], "depth": 2}))
    for key in ("train_cost", "send_cost"):  # no simulated deployment costs
        with pytest.raises(ValueError, match=f"unknown key\\(s\\) in config.hyper: {key}"):
            cli.parse_config(minimal_config(hyper={key: 0.0}))


def test_unknown_sampler_error_lists_valid_names():
    with pytest.raises(ValueError, match="config.samplers: unknown sampler 'smoke'.*smote_tomek"):
        build(samplers=["smoke"])


def test_duplicate_samplers_rejected():
    with pytest.raises(ValueError, match="config.samplers contains duplicates"):
        build(samplers=["smote", "smote"])


def test_booleans_do_not_pass_as_integers():
    with pytest.raises(ValueError, match="seed"):
        cli.parse_config(minimal_config(seed=True))
    with pytest.raises(ValueError, match="num_folds"):
        cli.parse_config(minimal_config(num_folds=True))


def test_missing_required_keys():
    for key in ("seed", "dataset", "num_clients", "samplers"):
        obj = minimal_config()
        del obj[key]
        with pytest.raises(ValueError, match=key):
            cli.parse_config(obj)


def test_dataset_source_validation():
    with pytest.raises(ValueError, match="kind"):
        cli.parse_config(minimal_config(dataset={"kind": "parquet"}))
    with pytest.raises(ValueError, match="config.dataset.class_counts"):
        build(dataset={"kind": "synthetic", "class_counts": [10]})
    with pytest.raises(ValueError, match="config.dataset.class_counts must be a list of integers"):
        cli.parse_config(minimal_config(dataset={"kind": "synthetic", "class_counts": [1.5, 2]}))
    with pytest.raises(ValueError, match="path"):
        cli.parse_config(minimal_config(dataset={"kind": "csv"}))


def test_out_of_range_values_rejected():
    # value ranges are the library's rules, checked as the plan is built
    with pytest.raises(ValueError, match="config.num_clients must be >= 2, got 1"):
        build(num_clients=1)
    with pytest.raises(ValueError, match="config.num_folds must be >= 2, got 1"):
        build(num_folds=1)
    with pytest.raises(ValueError, match="config.concentration must be finite and > 0"):
        build(concentration=0.0)
    with pytest.raises(ValueError, match="config.hyper.batch_size must be >= 1, got 0"):
        build(hyper={"batch_size": 0})
    # no library class owns these two, so parsing checks them
    with pytest.raises(ValueError, match="config.seed must be >= 0, got -1"):
        cli.parse_config(minimal_config(seed=-1))
    with pytest.raises(ValueError, match="output_dir"):
        cli.parse_config(minimal_config(output_dir=""))


def test_parsing_checks_types_not_ranges():
    cfg = cli.parse_config(minimal_config(num_clients=1, concentration=-1,
                                          samplers=["smoke", "smoke"], hyper={"batch_size": 0}))
    assert cfg["num_clients"] == 1 and cfg["samplers"] == ["smoke", "smoke"]


def test_config_round_trips_through_dict():
    def round_trip(cfg):
        return cli.parse_config(json.loads(json.dumps(cfg)))

    cfg = cli.parse_config(tiny_config(output_dir="out", concentration=0.3))
    assert round_trip(cfg) == cfg

    plain = cli.parse_config(minimal_config())
    assert round_trip(plain) == plain

    csv_cfg = cli.parse_config(minimal_config(
        dataset={"kind": "csv", "path": "d.csv", "label_column": 0}))
    assert round_trip(csv_cfg) == csv_cfg
    assert csv_cfg["dataset"] == {"kind": "csv", "path": "d.csv", "label_column": 0}

    # integers given where numbers are allowed are stored as floats
    ints = cli.parse_config(minimal_config(concentration=1, hyper={"learning_rate": 1}))
    assert type(ints["concentration"]) is float and type(ints["hyper"]["learning_rate"]) is float


# --- output files ---


def test_output_files_exact_text(tmp_path):
    records = [
        MetricsRecord(0, "smote", 0, 0.5, 0.625, 0.01, 0.02, 1.0),
        MetricsRecord(1, "smote", 0, 0.75, 0.875, 0.03, 0.04, 0.5),
    ]
    cfg = cli.parse_config(minimal_config(samplers=["smote"]))
    cli.write_outputs(records, cfg, tmp_path)
    assert (tmp_path / "metrics.csv").read_text(encoding="utf-8") == (
        "fold,sampler,round,test_accuracy,test_auc,"
        "std_test_accuracy,std_test_auc,train_loss\n"
        "0,smote,0,0.500000,0.625000,0.010000,0.020000,1.000000\n"
        "1,smote,0,0.750000,0.875000,0.030000,0.040000,0.500000\n"
    )
    assert (tmp_path / "summary.csv").read_text(encoding="utf-8") == (
        "sampler,round,test_accuracy,test_auc,"
        "std_test_accuracy,std_test_auc,train_loss\n"
        "smote,0,0.625000,0.750000,0.020000,0.030000,0.750000\n"
    )
    assert (tmp_path / "violin.csv").read_text(encoding="utf-8") == (
        "sampler,fold,round,std_test_accuracy\n"
        "smote,0,0,0.010000\n"
        "smote,1,0,0.030000\n"
    )


def test_violin_rows_follow_config_sampler_order(tmp_path):
    records = [
        MetricsRecord(0, "random_over", 0, 0.5, 0.5, 0.1, 0.1, 1.0),
        MetricsRecord(0, "smote", 0, 0.5, 0.5, 0.2, 0.2, 1.0),
    ]
    cfg = cli.parse_config(minimal_config())  # smote before random_over
    cli.write_outputs(records, cfg, tmp_path)
    lines = (tmp_path / "violin.csv").read_text(encoding="utf-8").splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["smote", "random_over"]


# --- end-to-end runs ---


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    cfg = cli.parse_config(tiny_config())
    records = cli.run(cfg, root / "out")
    return cfg, root / "out", records


def test_run_writes_all_outputs(cli_run):
    _, out, records = cli_run
    for name in ("metrics.csv", "summary.csv", "violin.csv", "run_manifest.json"):
        assert (out / name).is_file()
    # 2 samplers x 2 folds x evaluations at rounds {0, 1, 2}
    assert len(records) == 12


def test_metrics_csv_layout(cli_run):
    _, out, _ = cli_run
    lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("fold,sampler,round,test_accuracy,test_auc,"
                        "std_test_accuracy,std_test_auc,train_loss")
    assert len(lines) == 1 + 12
    for ln in lines[1:]:
        fold, sampler, rnd, *values = ln.split(",")
        assert int(fold) in (0, 1)
        assert sampler in ("smote", "random_over")
        assert int(rnd) in (0, 1, 2)
        assert len(values) == 5
        assert all(np.isfinite(float(v)) for v in values)


def test_summary_and_violin_shapes(cli_run):
    _, out, _ = cli_run
    summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(summary) == 1 + 2 * 3  # samplers x evaluation rounds
    violin = (out / "violin.csv").read_text(encoding="utf-8").splitlines()
    assert len(violin) == 1 + 12
    order = [ln.split(",")[0] for ln in violin[1:]]
    assert order == ["smote"] * 6 + ["random_over"] * 6


def test_manifest_is_deterministic_metadata(cli_run):
    cfg, out, records = cli_run
    text = (out / "run_manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(text)
    assert set(manifest) == {"tool", "version", "config", "num_records", "blas_threads"}
    assert manifest["blas_threads"] == cli.blas_threads()
    assert manifest["tool"] == "fedbalance"
    assert manifest["num_records"] == len(records)
    assert cli.parse_config(manifest["config"]) == cfg
    assert text.endswith("\n")


def test_rerun_writes_byte_identical_outputs(cli_run, tmp_path):
    cfg, out, _ = cli_run
    cli.run(cfg, tmp_path / "again")
    for name in ("metrics.csv", "summary.csv", "violin.csv", "run_manifest.json"):
        assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes()


def test_run_uses_config_output_dir_when_not_overridden(tmp_path):
    out = tmp_path / "from_config"
    cfg = cli.parse_config(tiny_config(output_dir=str(out)))
    cli.run(cfg)
    assert (out / "metrics.csv").is_file()


# SHA-1 of each output file, each fold's global.fedh (format 6) and the run's stderr,
# with every warning shown as "Category: message", for the configs below
# (skewed enough that clients meet empty and single-class splits and their
# warnings name them), recorded with OpenBLAS's SkylakeX kernels
_RUN_CONFIGS = {
    "full": tiny_config(seed=12, concentration=0.3, samplers=list(SAMPLER_NAMES)),
    "head": tiny_config(seed=13, concentration=0.3, samplers=["smote", "svm_smote", "smote_tomek"],
                        personalize_full_model=False),
}
_RUN_DIGESTS = {
    ("full", "metrics.csv"): "9b6d3a413e54b07d72d36fd7423dffa0f57e7d66",
    ("full", "summary.csv"): "3742c6b4656b8c56759f8432cd6838c7a8e5ca72",
    ("full", "violin.csv"): "350e5ccdf158166133960014fae9556c5beda546",
    ("full", "fold_0/global.fedh"): "66b4497d6fc5d07bca1b16e4a91f9645ab5cd4c5",
    ("full", "fold_1/global.fedh"): "906df7224d530ddae7454ac8fcec47dc1a280c2b",
    ("full", "stderr"): "7ce5a94ddec9a13b1379c427800fbe4f8df96da3",
    ("head", "metrics.csv"): "37d622d443a4a3a656a7d8ef52d672438a5b6962",
    ("head", "summary.csv"): "7c044b6310b638aa0bec850932797c373acb4773",
    ("head", "violin.csv"): "74b6188e1bd9c06ca9c867b4fc2cf98031c1f2d6",
    ("head", "fold_0/global.fedh"): "f44067479ec5e68ff1ef4eb95a226b7fe841c288",
    ("head", "fold_1/global.fedh"): "9ed8fbbe5bd9da5f2c9ab8870ba8221c315fd9fc",
    ("head", "stderr"): "5653f7681fc992370fd263ae70ff7625af121f9d",
}


def test_runs_keep_their_bytes(tmp_path):
    """A full-model run under every sampler and a head-only run write the
    very bytes recorded here.  ``main`` runs under ``cli._run_settings()``,
    at one BLAS thread.  OpenBLAS picks its kernels by CPU, so the digests
    hold for one OpenBLAS core type (``OPENBLAS_CORETYPE`` pins it):
    Haswell or Sandybridge kernels move them."""
    got = {}
    for name, cfg in _RUN_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / name
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", str(cfg_path), "--output", str(out)]) == 0
        shown = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        files = {f: (out / f).read_bytes() for f in ("metrics.csv", "summary.csv", "violin.csv")}
        files |= {f"fold_{k}/global.fedh": (out / "checkpoints" / f"fold_{k}" / "global.fedh")
                  .read_bytes() for k in range(cfg["num_folds"])}
        files["stderr"] = shown.encode("utf-8")
        got |= {(name, f): hashlib.sha1(b).hexdigest() for f, b in files.items()}
    assert got == _RUN_DIGESTS


def test_every_sampler_runs_on_clients_of_one_row_per_class(tmp_path):
    """At seed 0 a client's fold-train split is one row of each class, fewer
    rows than smote_enn's enn_k + 1; every sampler still finishes."""
    cfg = {"seed": 0, "dataset": {"kind": "synthetic", "class_counts": [4, 4], "dim": 4},
           "num_clients": 2, "samplers": list(SAMPLER_NAMES), "num_folds": 2,
           "global_rounds": 1, "personalization_rounds": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("ignore", UserWarning)
        rc = cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
    assert (rc, err.getvalue()) == (0, "")


# --- console entry point ---


def test_main_runs_and_reports(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()), encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg_path),
                   "--output", str(tmp_path / "out")])
    assert rc == 0
    assert "wrote 12 metric records" in capsys.readouterr().out
    assert (tmp_path / "out" / "metrics.csv").is_file()


def test_main_seed_and_fold_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(num_folds=3)), encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg_path), "--output", str(out),
                   "--seed", "11", "--folds", "2"])
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["seed"] == 11
    assert manifest["config"]["num_folds"] == 2
    assert manifest["num_records"] == 12  # 2 folds ran, not 3


def test_main_defaults_to_config_output_dir(tmp_path, capsys):
    out = tmp_path / "configured"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(output_dir=str(out))),
                        encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (out / "metrics.csv").is_file()


_SYNTHETIC = {"kind": "synthetic", "class_counts": [30, 20, 8], "dim": 8}


@pytest.mark.parametrize("over, key", [
    ({"num_clients": 1}, "config.num_clients"),
    ({"concentration": 0}, "config.concentration"),
    ({"samplers": ["smote", "smote"]}, "config.samplers"),
    ({"samplers": ["smote", "smoke"]}, "config.samplers: unknown sampler 'smoke'; valid: smote, "),
    ({"hyper": {"learning_rate": -1}}, "config.hyper.learning_rate"),
    ({"dataset": {**_SYNTHETIC, "scale": 0}}, "config.dataset.scale"),
    ({"arch": {"recon_weight": -1}}, "config.arch.recon_weight"),
    ({"arch": {"stages": [[0, 3, 2]]}}, "config.arch.stages"),
    ({"sampler_params": {"svm_learning_rate": -1}}, "config.sampler_params.svm_learning_rate"),
    ({"sampler_params": {"svm_regularization": -5}}, "config.sampler_params.svm_regularization"),
    ({"sampler_params": {"svm_epochs": 0}}, "config.sampler_params.svm_epochs"),
    ({"sampler_params": {"enn_k": 0}}, "config.sampler_params.enn_k"),
    ({"num_clients": 40}, "config.num_clients: cannot give each of 40 clients"),
    ({"num_folds": 500}, "config.num_folds must be <= the dataset's 58 rows, got 500"),
    ({"sampler_params": {"svm_regularization": 100}},
     "config.sampler_params.svm_regularization must be < 1 / learning_rate"),
    # Python's json reads NaN and Infinity
    ({"hyper": {"learning_rate": float("nan")}}, "config.hyper.learning_rate must be a finite number"),
    ({"hyper": {"learning_rate": float("inf")}}, "config.hyper.learning_rate must be a finite number"),
    ({"concentration": float("nan")}, "config.concentration must be a finite number"),
    ({"arch": {"pred_weight": float("inf")}}, "config.arch.pred_weight must be a finite number"),
    # finite, but the drawn features overflow
    ({"dataset": {**_SYNTHETIC, "scale": 1e308}}, "config.dataset.scale 1e+308 is too large"),
])
def test_main_value_errors_name_their_config_key(tmp_path, capsys, over, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(**over)), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        rc = cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


def test_library_positivity_checks_reject_nan():
    cfg = cli.parse_config(minimal_config())
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"learning_rate must be finite and > 0, got {bad}"):
            TrainHyper(learning_rate=bad)
        for weight in ("recon_weight", "pred_weight"):
            with pytest.raises(ValueError, match="recon_weight and pred_weight"):
                ArchSpec(input_len=8, num_classes=3, **{weight: bad})
        with pytest.raises(ValueError,
                           match=f"config.concentration must be finite and > 0, got {bad}"):
            cli.build_plan(cfg | {"concentration": bad}, cli.build_dataset(cfg), "unused")
        with pytest.raises(ValueError, match=f"learning_rate must be finite and > 0, got {bad}"):
            SvmParams(learning_rate=bad, regularization=0.0)
        with pytest.raises(ValueError, match=f"scale must be finite and > 0, got {bad}"):
            make_synthetic_spec(scale=bad)


# Integers stay small wherever they land, so that a mutated count of rounds,
# folds, clients, channels or latent units allocates little and runs fast.
_SMALL_INT = st.integers(-2, 6)
_LEAF = st.one_of(
    st.none(), st.booleans(), _SMALL_INT,
    st.sampled_from([0.0, -1.0, 0.5, 3.0, 1e308, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from(["", "x", "smote", "csv", "synthetic", "label", "x" * 5000]),
)
_JSON = st.one_of(
    _LEAF,
    st.lists(_LEAF, max_size=3),
    st.lists(st.lists(_SMALL_INT, max_size=4), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "dim", "x"]), _LEAF, max_size=2),
)


@st.composite
def mutated_configs(draw):
    """tiny_config() with keys deleted, set to values of any JSON type, or
    added under a name the schema does not know, at the top level or inside
    a section."""
    cfg = tiny_config()
    for _ in range(draw(st.integers(1, 3))):
        name, section = draw(st.sampled_from(
            [(None, cfg)] + [(v.get("kind") if k == "dataset" else k, v)
                             for k, v in cfg.items() if isinstance(v, dict)]))
        known = sorted({key for sec, key, _ in cli._FIELDS if sec == name} | set(section))
        action = draw(st.sampled_from(["delete", "delete", "set", "set", "set", "add"]))
        if action == "delete" and section:
            del section[draw(st.sampled_from(sorted(section)))]
        elif action == "add" or not known:
            section[draw(st.sampled_from(["eval_gaps", "x"]))] = draw(_JSON)
        else:
            section[draw(st.sampled_from(known))] = draw(_JSON)
    return cfg


@settings(max_examples=150, deadline=None)
@given(mutated_configs())
def test_main_on_a_mutated_config_succeeds_or_prints_one_error(tmp_path_factory, cfg):
    """Whatever a config holds, the command exits 0, or exits 1 with one
    ``error:`` line; it never ends in a traceback."""
    work = tmp_path_factory.mktemp("fuzz")
    cfg_path = work / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--config", str(cfg_path), "--output", str(work / "out")])
    lines = err.getvalue().splitlines()
    assert rc == 0 or (rc == 1 and len(lines) == 1 and lines[0].startswith("error: ")), lines


@pytest.mark.parametrize("section, key", [("hyper", "learning_rate"), ("arch", "pred_weight"),
                                          ("arch", "recon_weight")])
@pytest.mark.parametrize("batch_size", [8, 64])
def test_main_reports_overflowing_training_in_one_line(tmp_path, capsys, section, key,
                                                       batch_size):
    # at batch 64 each client takes one step per round, so the NaN model it
    # leaves meets FedAvg before any further step can score it
    cfg = tiny_config()
    cfg["hyper"]["batch_size"] = batch_size
    cfg[section][key] = 1e308
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        rc = cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: fold 0, global round 1: "), lines
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_main_reports_a_diverged_svm_smote_fit_in_one_line(tmp_path, capsys):
    cfg = tiny_config(samplers=["svm_smote"],
                      sampler_params={"svm_learning_rate": 1e308, "svm_regularization": 0.0})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        rc = cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: fold 0, sampler 'svm_smote': "), lines
    assert "svm_learning_rate=1e+308" in lines[0]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("seed, counts, line", [
    # no client's test split has two classes before the first global round
    (4, [4, 4], "fold 0, global round 0: no client test split had two classes; AUC undefined"),
    # client 0 has no fold-train rows, client 1 no test rows
    (0, [2, 2], "fold 0, sampler 'smote': no client had both a test split and training "
                "material"),
])
def test_main_names_where_a_tiny_skewed_run_stops(tmp_path, capsys, seed, counts, line):
    cfg = {"seed": seed, "dataset": {"kind": "synthetic", "class_counts": counts, "dim": 4},
           "num_clients": 2, "samplers": ["smote"], "num_folds": 2,
           "global_rounds": 1, "personalization_rounds": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rc = cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (1, f"error: {line}\n")


def test_main_reports_an_allocation_that_cannot_succeed(tmp_path, capsys):
    # a 10^12-wide latent asks numpy for hundreds of TiB, which it refuses at once
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(arch={"latent_dim": 1000000000000})),
                        encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


@pytest.mark.parametrize("flag, value, key", [("--folds", "1", "config.num_folds"),
                                              ("--seed", "-1", "config.seed")])
def test_main_overrides_pass_the_config_checks(tmp_path, capsys, flag, value, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()), encoding="utf-8")
    rc = cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out"),
                   flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be >= ") and err.count("\n") == 1


def test_main_rejects_an_eval_gap_that_skips_every_trained_round(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(eval_gap=3)), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: config.eval_gap must be <= personalization_rounds "
                                       "(2), got 3\n")
    assert not (tmp_path / "out").exists()


def test_main_rejects_an_eval_gap_that_skips_every_trained_global_round(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(personalization_rounds=3, eval_gap=3)),
                        encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: config.eval_gap must be <= global_rounds (2), got 3\n"
    assert not (tmp_path / "out").exists()


def test_main_reports_config_errors(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "missing.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(minimal_config(eval_gaps=2)), encoding="utf-8")
    assert cli.main(["run", "--config", str(wrong)]) == 1
    assert "eval_gaps" in capsys.readouterr().err


@pytest.mark.parametrize("content, column, message", [
    ("label\n0\n1\n0\n1\n", "label", "no feature columns besides the label column 'label'"),
    ("label,label\n0,0\n1,1\n0,0\n1,1\n", "label",
     "label column 'label' appears 2 times in the header"),
    ("a,label\n1.0,x\n2.0,x\n3.0,x\n", "label", "label column 'label' holds fewer than 2 classes"),
    ("a,y\n1.0,0\n2.0,1\n", "label", "label column 'label' not in header"),
    ("a,y\n1.0,0\n2.0,1\n", 5, "label column index 5 out of range"),
], ids=["no_features", "label_twice", "one_class", "no_label", "index_out_of_range"])
def test_main_csv_errors_name_the_file_and_column(tmp_path, capsys, content, column, message):
    data = tmp_path / "data.csv"
    data.write_text(content, encoding="utf-8")
    cfg_path = tmp_path / "cfg.json"
    dataset = {"kind": "csv", "path": str(data), "label_column": column}
    cfg_path.write_text(json.dumps(tiny_config(dataset=dataset)), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: {message}")
    assert err.count("\n") == 1 and "config." not in err
    assert not (tmp_path / "out").exists()


# --- BLAS thread count ---

_MAIN = "import sys; from fedbalance.cli import main; sys.exit(main(sys.argv[1:]))"


def _env(**env_vars):
    """This environment without the BLAS thread and allocator variables, plus
    ``env_vars``, with the package importable."""
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_ENV + cli._MALLOC_ENV}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    return env


def _main_in_subprocess(cfg_path, out, **env_vars):
    """Run the console entry point in a fresh process; return its manifest."""
    subprocess.run([sys.executable, "-c", _MAIN, "run", "--config", str(cfg_path),
                    "--output", str(out)], env=_env(**env_vars), check=True,
                   capture_output=True)
    return json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))


def test_main_pins_one_blas_thread_unless_the_user_chose(tmp_path):
    if cli._openblas() is None:
        pytest.skip("numpy has no bundled OpenBLAS thread getter")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()), encoding="utf-8")
    assert _main_in_subprocess(cfg_path, tmp_path / "auto")["blas_threads"] == 1
    by_hand = _main_in_subprocess(cfg_path, tmp_path / "hand", OPENBLAS_NUM_THREADS="1")
    assert by_hand["blas_threads"] == 1
    for name in ("metrics.csv", "summary.csv", "violin.csv"):
        assert (tmp_path / "auto" / name).read_bytes() == (tmp_path / "hand" / name).read_bytes()
    # a count the user set is kept: the manifest shows what OpenBLAS made of it
    chosen = _main_in_subprocess(cfg_path, tmp_path / "two", OMP_NUM_THREADS="2")
    probe = subprocess.run(
        [sys.executable, "-c", "from fedbalance.cli import blas_threads; print(blas_threads())"],
        env=_env(OMP_NUM_THREADS="2"), check=True, capture_output=True, text=True)
    assert chosen["blas_threads"] == int(probe.stdout)
    if len(os.sched_getaffinity(0)) >= 2:
        assert chosen["blas_threads"] == 2


def test_main_restores_the_callers_blas_thread_count(tmp_path, monkeypatch):
    blas = cli._openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS thread getter")
    for var in cli._BLAS_ENV:
        monkeypatch.delenv(var, raising=False)
    before = cli.blas_threads()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["blas_threads"] == 1
    assert cli.blas_threads() == before


def test_blas_threads_unknown_without_a_getter(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    assert cli.blas_threads() == "unknown"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["blas_threads"] == "unknown"


# --- heap settings and one-time costs ---


def _python(code, *args, **env_vars) -> str:
    """Run ``code`` in a fresh interpreter; return the last line it printed."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=_env(**env_vars),
                         check=True, capture_output=True, text=True).stdout
    return out.rstrip("\n").rpartition("\n")[2]


def _tiny_config_file(tmp_path) -> Path:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()), encoding="utf-8")
    return cfg_path


_MAIN_THEN = ("import resource, sys; from fedbalance.cli import main\n"
              "assert main(['run', '--config', sys.argv[1], '--output', sys.argv[2]]) == 0\n")


def test_main_starts_no_process(tmp_path):
    # a child's peak would count in the benchmark's peak_rss_mb
    # (ctypes.util.find_library, for one, starts a subprocess)
    code = _MAIN_THEN + "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    assert _python(code, _tiny_config_file(tmp_path), tmp_path / "out") == "0"


def test_a_run_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs a run about 30 ms of import and first-call time
    code = _MAIN_THEN + "print('numpy.ma' in sys.modules)"
    assert _python(code, _tiny_config_file(tmp_path), tmp_path / "out") == "False"


_TRAIN_FAULTS = """
import resource
import numpy as np
from fedbalance import cli
from fedbalance.gcae import ArchSpec, init_model, train_step

rng = np.random.default_rng(0)
model = init_model(ArchSpec(input_len=24, num_classes=6), rng)
x = rng.standard_normal((512, 24)).astype(np.float32)
y = rng.integers(0, 6, 512)
with cli._run_settings():
    train_step(model, x, y, 0.01)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        train_step(model, x, y, 0.01)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_train_steps_reuse_freed_heap_memory_in_a_run():
    if cli._mallopt() is None:
        pytest.skip("no glibc mallopt")
    # without the settings each batch-512 step faults in about 1000 fresh pages
    assert float(_python(_TRAIN_FAULTS)) < 100


def test_heap_settings_leave_metrics_unchanged(tmp_path):
    cfg_path = _tiny_config_file(tmp_path)
    _python(_MAIN_THEN, cfg_path, tmp_path / "main")
    plain = ("import sys; from fedbalance import cli\n"
             "cli.run(cli.load_config(sys.argv[1]), sys.argv[2])")
    _python(plain, cfg_path, tmp_path / "plain", OPENBLAS_NUM_THREADS="1")
    for name in ("metrics.csv", "summary.csv", "violin.csv"):
        assert (tmp_path / "main" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("var", [None, *cli._MALLOC_ENV])
def test_main_sets_and_restores_the_heap_unless_the_user_chose(tmp_path, monkeypatch, var):
    calls = []
    monkeypatch.setattr(cli, "_mallopt", lambda: lambda param, value: calls.append((param, value)))
    for name in cli._MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    if var is not None:
        monkeypatch.setenv(var, "1")
    assert cli.main(["run", "--config", str(_tiny_config_file(tmp_path)),
                     "--output", str(tmp_path / "out")]) == 0
    set_and_restored = [(cli._M_TOP_PAD, cli._TOP_PAD), (cli._M_MMAP_THRESHOLD, cli._MMAP_THRESHOLD),
                        (cli._M_TOP_PAD, cli._GLIBC_DEFAULT),
                        (cli._M_MMAP_THRESHOLD, cli._GLIBC_DEFAULT)]
    assert calls == ([] if var else set_and_restored)


def test_main_requires_a_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
