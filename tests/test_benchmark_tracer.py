"""The benchmark's span tracer still finds every package attribute it wraps.

``perfbench/spans.py`` replaces package functions by name (``crossval.load_global``,
``federation.train_step`` and the rest), so a rename in the package breaks the
traced benchmark without failing any other test.  This runs one traced
experiment in a fresh process, the way ``perfbench/run.py --trace 1`` does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"

pytestmark = pytest.mark.skipif(not CHILD.is_file(), reason="no perfbench/ in this checkout")


def test_traced_experiment_runs_and_counts_checkpoint_reads(tmp_path):
    config = {
        "seed": 3,
        "dataset": {"kind": "synthetic", "class_counts": [30, 20, 8], "dim": 8},
        "num_clients": 2,
        "samplers": ["smote", "random_over"],
        "num_folds": 2,
        "global_rounds": 1,
        "personalization_rounds": 1,
        "arch": {"stages": [[3, 3, 2]], "latent_dim": 4, "mlp_hidden": [5]},
        "hyper": {"batch_size": 8},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    result_path = tmp_path / "result.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(CHILD), "experiment", "--config", str(cfg_path),
         "--out", str(tmp_path / "out"), "--result", str(result_path),
         "--spans", str(tmp_path / "spans.json")],
        env=env, capture_output=True, text=True, timeout=300)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["ok"], result.get("stderr") or proc.stderr
    layers = result["layers"]
    assert layers["checkpoint.bytes_read"] > 0
    assert layers["checkpoint.bytes_written"] > 0
    assert layers["gcae.train_step.calls"] > 0
    assert layers["federation.fedavg.calls"] > 0
    assert result["fedavg_failures"] == []
    # each phase is tagged by wrapping a function crossval calls through its
    # module globals; a call that bypasses them leaves its phase at zero
    for phase in ("global_train", "global_eval", "resample", "ptrain", "peval", "ckpt"):
        assert layers[f"crossval.{phase}_s"] > 0, phase
