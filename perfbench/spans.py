"""In-memory span tracer and the instrumentation of fedbalance's layers.

Every span is recorded from outside the program: a module attribute that
one layer uses to call another layer's public function is replaced by a
wrapper that records ``[name, start, end, parent, tag]``.  Spans stay in a
list until the run ends.  Span names are ``<layer>.<function>``; the tag
names the crossval phase the call belongs to.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

from workloads import ALL_SAMPLERS

LAYERS = ("crossval", "gcae", "resampling", "federation", "metrics",
          "checkpoint", "dataset", "cli")
PHASES = ("global_train", "global_eval", "resample", "ptrain", "peval", "ckpt")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index, tag]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "global"         # "global" until a fold's first trial starts
        self.fedavg_checks = 0
        self.fedavg_failures: list[str] = []

    def wrap(self, module, attr: str, name, tag=None, after=None, enters=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper.

        ``name`` is a string or a callable of the call's arguments; ``tag``
        is a phase name or a callable of the tracer; ``enters`` switches the
        tracer's phase ("global" or "personal") when the call starts;
        ``after(args, result)`` runs once the span has closed.
        """
        inner = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if enters is not None:
                self.phase = enters
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, tag(self) if callable(tag) else tag]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, wrapper)

    # --- aggregation -------------------------------------------------------

    def durations(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def phase_seconds(self) -> dict[str, float]:
        out = {p: 0.0 for p in PHASES}
        for _, start, end, _, tag in self.spans:
            if tag is not None:
                out[tag] += end - start
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "tag"],
                       "spans": self.spans}, fh)


def layer_self_seconds(spans) -> dict[str, float]:
    """Per layer: span time minus the time its direct child spans cover.

    Children of one span run one after another, so their durations add up to
    the covered part of the parent's interval.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".", 1)[0]] += (end - start) - child_time[i]
    return out


def balanced_synthetic_count(labels) -> int:
    """Rows a balance-to-majority sampler must generate for ``labels``."""
    counts = np.bincount(np.asarray(labels, dtype=np.int64))
    present = counts[counts > 0]
    return int(present.max() * len(present) - present.sum())


def fedavg_reference(models, sample_counts) -> dict[str, np.ndarray]:
    """Float64 weighted parameter mean, computed apart from the program."""
    w = np.asarray(sample_counts, dtype=np.float64)
    w = w / w.sum()
    return {name: sum(c * m.params[name].astype(np.float64) for c, m in zip(w, models))
            for name in models[0].params}


def instrument(tracer: Tracer) -> None:
    """Wrap the calls between fedbalance's layers.  Imports the package."""
    from fedbalance import cli, crossval, federation

    counts = tracer.counts

    def count(key, amount=1):
        counts[key] += amount

    # cli: the whole run, dataset ingestion and output writing
    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli, "load_csv", "dataset.load_csv")
    tracer.wrap(cli, "write_outputs", "cli.write_outputs")
    tracer.wrap(cli, "run_experiment", "crossval.run_experiment")

    # crossval: folds and the phases it drives.  A fold starts with the
    # global model's init; a sampler trial starts by reloading the checkpoint.
    tracer.wrap(crossval, "run_fold", "crossval.run_fold")
    tracer.wrap(crossval, "partition_noniid", "dataset.partition_noniid",
                after=lambda a, r: count("dataset.partition_noniid.calls"))
    tracer.wrap(crossval, "init_model", "gcae.init_model", enters="global")
    tracer.wrap(crossval, "run_global_round", "federation.run_global_round",
                tag="global_train")
    tracer.wrap(crossval, "evaluate_clients", "federation.evaluate_clients",
                tag=lambda t: "global_eval" if t.phase == "global" else "peval")
    tracer.wrap(crossval, "build_personalization_set",
                "federation.build_personalization_set", tag="resample")
    tracer.wrap(crossval, "train_on", "federation.train_on", tag="ptrain")

    # checkpoint
    def saved(args, _result):
        count("checkpoint.bytes_written", os.path.getsize(args[0]))

    def loaded(args, result):
        count("checkpoint.bytes_read", os.path.getsize(args[0]))
        if hasattr(result, "global_model"):
            models = [result.global_model] + [c.model for c in result.clients]
            count("checkpoint.global_tensor_bytes", _nbytes(result.global_model))
        else:
            models = [result.model]
        count("checkpoint.tensor_bytes_loaded", sum(_nbytes(m) for m in models))

    for attr in ("save_global", "save_client"):
        tracer.wrap(crossval, attr, f"checkpoint.{attr}", tag="ckpt", after=saved)
    tracer.wrap(crossval, "load_global", "checkpoint.load_global",
                tag="ckpt", after=loaded, enters="personal")
    tracer.wrap(crossval, "load_client", "checkpoint.load_client", tag="ckpt", after=loaded)

    # gcae, resampling, federation and metrics as federation calls them
    def stepped(args, _result):
        count("gcae.train_step.calls")
        count("gcae.train_step.rows", len(args[1]))

    tracer.wrap(federation, "train_step", "gcae.train_step", after=stepped)
    for attr in ("forward", "encode", "decode", "evaluate_loss"):
        tracer.wrap(federation, attr, f"gcae.{attr}")

    def resampled(args, result):
        labels = args[1]
        generated = balanced_synthetic_count(labels)
        count("resampling.rows_in", len(labels))
        count("resampling.rows_synth", generated)
        count("resampling.synth_kept", int(np.count_nonzero(result.is_synthetic)))
        count("resampling.rows_removed", len(labels) + generated - len(result.labels))

    tracer.wrap(federation, "resample", lambda args: f"resampling.{args[2].kind}",
                after=resampled)

    def averaged(args, result):
        count("federation.fedavg.calls")
        models, weights = args[0], args[1]
        ref = fedavg_reference(models, weights)
        tracer.fedavg_checks += 1
        for name, want in ref.items():
            got = result.params[name].astype(np.float64)
            # one float32 rounding step of the reference, plus a float64 margin
            limit = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64) + 1e-12
            if not np.all(np.abs(got - want) <= limit):
                tracer.fedavg_failures.append(
                    f"fedavg call {tracer.fedavg_checks}: {name} differs from the "
                    f"float64 weighted mean by {np.max(np.abs(got - want)):.3g}")
                break

    tracer.wrap(federation, "fedavg", "federation.fedavg", after=averaged)
    tracer.wrap(federation, "roc_auc_macro", "metrics.roc_auc_macro",
                after=lambda a, r: count("metrics.roc_auc_macro.calls"))


def _nbytes(model) -> int:
    return sum(int(p.nbytes) for p in model.params.values())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced workload run."""
    dur = tracer.durations()
    c = tracer.counts
    out: dict[str, float] = {}
    for phase, secs in tracer.phase_seconds().items():
        out[f"crossval.{phase}_s"] = secs
    out["gcae.train_step.calls"] = c["gcae.train_step.calls"]
    out["gcae.train_step.rows"] = c["gcae.train_step.rows"]
    for fn in ("train_step", "forward", "encode", "decode", "evaluate_loss"):
        out[f"gcae.{fn}_s"] = dur[f"gcae.{fn}"]
    for kind in ALL_SAMPLERS:
        out[f"resampling.{kind}_s"] = dur[f"resampling.{kind}"]
    for key in ("rows_in", "rows_synth", "rows_removed"):
        out[f"resampling.{key}"] = c[f"resampling.{key}"]
    synth = c["resampling.rows_synth"]
    out["resampling.synth_kept_ratio"] = c["resampling.synth_kept"] / synth if synth else 1.0
    out["federation.fedavg_s"] = dur["federation.fedavg"]
    out["federation.fedavg.calls"] = c["federation.fedavg.calls"]
    out["federation.evaluate_clients_s"] = dur["federation.evaluate_clients"]
    out["metrics.roc_auc_macro_s"] = dur["metrics.roc_auc_macro"]
    out["metrics.roc_auc_macro.calls"] = c["metrics.roc_auc_macro.calls"]
    out["checkpoint.save_s"] = dur["checkpoint.save_global"] + dur["checkpoint.save_client"]
    out["checkpoint.load_s"] = dur["checkpoint.load_global"] + dur["checkpoint.load_client"]
    out["checkpoint.bytes_written"] = c["checkpoint.bytes_written"]
    out["checkpoint.bytes_read"] = c["checkpoint.bytes_read"]
    loaded = c["checkpoint.tensor_bytes_loaded"]
    out["checkpoint.useful_read_ratio"] = (c["checkpoint.global_tensor_bytes"] / loaded
                                           if loaded else 1.0)
    out["dataset.partition_noniid.calls"] = c["dataset.partition_noniid.calls"]
    out["dataset.partition_s"] = dur["dataset.partition_noniid"]
    out["cli.write_outputs_s"] = dur["cli.write_outputs"]
    for layer, secs in layer_self_seconds(tracer.spans).items():
        out[f"{layer}.self_s"] = secs
    return out
