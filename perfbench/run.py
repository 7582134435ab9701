"""End-to-end and per-layer benchmark of fedbalance.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's experiment runs again and again, each time
in a fresh process through the ``fedbalance run`` entry point, until
``--seconds`` have passed (at least three times), and the medians of the
end-to-end metrics are printed.  With ``--trace 1`` the fixed-shape layer
timings run, then one untraced and one traced experiment; the per-layer
metrics come from the traced one.  Every run checks the program's outputs.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One BLAS thread for every process: metrics.csv depends on the count at
# large batches, and two threads are slower on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from outputs import check_identical, check_outputs, output_bytes, tree_bytes  # noqa: E402
from spans import PHASES  # noqa: E402
from tally import Tally  # noqa: E402
from workloads import WORKLOADS, Workload, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_REPEATS, MAX_REPEATS = 3, 12
RUN_LIMIT_S = 170.0   # the whole run, set-up and traced work included
PHASE_COVERAGE_MIN = 0.9
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class Experiment:
    """Runs the workload's experiment in fresh processes and checks each."""

    def __init__(self, w: Workload, seed: int, run_dir: Path, tally: Tally, deadline: float):
        self.w, self.seed, self.run_dir, self.tally = w, seed, run_dir, tally
        self.deadline = deadline
        self.config_path = write_inputs(w, seed, run_dir)
        self.count = 0

    def _spawn(self, argv: list[str], result_path: Path) -> tuple[dict, float]:
        """Run child.py to completion; return its result and spawn time."""
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py")] + argv
                                + ["--result", str(result_path)],
                                stdout=subprocess.DEVNULL, cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"ok": False, "stderr": "timed out"}, t_spawn
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        try:
            return json.loads(result_path.read_text(encoding="utf-8")), t_spawn
        except (OSError, ValueError) as exc:
            return {"ok": False, "stderr": f"no result from child: {exc}"}, t_spawn

    def run(self, spans_path: Path | None = None) -> dict | None:
        """One experiment: figures, layer metrics and output bytes, or None
        if the program failed.  Its sampler trials are counted either way.
        With ``spans_path`` the run is traced and its spans written there."""
        self.count += 1
        tag = f"rep{self.count}"
        out = self.run_dir / tag
        argv = ["experiment", "--config", str(self.config_path), "--out", str(out)]
        if spans_path is not None:
            argv += ["--spans", str(spans_path), "--run-id", f"{self.w.name}-{self.seed}-{tag}"]
        res, t_spawn = self._spawn(argv, self.run_dir / f"{tag}.json")
        self.tally.attempted += self.w.trials()
        if not res.get("ok") or "t_first_step" not in res:
            self.tally.failed += self._failed_trials(res.get("stderr", ""))
            self.tally.failures.append(f"experiment {tag}: {res.get('stderr', '').strip()}")
            shutil.rmtree(out, ignore_errors=True)
            return None
        figures = {
            "setup_s": res["t_first_step"] - t_spawn,
            "wall_s": res["t_end"] - res["t_start"],
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ckpt_bytes": float(tree_bytes(out / "checkpoints")),
        }
        check_outputs(self.tally, out, self.w)
        record = {"figures": figures, "bytes": output_bytes(out), "result": res}
        shutil.rmtree(out, ignore_errors=True)
        return record

    def _failed_trials(self, message: str) -> int:
        """Trials of the fold named in the error and of every later fold."""
        m = re.search(r"fold (\d+)", message)
        first = int(m.group(1)) if m and int(m.group(1)) < self.w.num_folds else 0
        return (self.w.num_folds - first) * len(self.w.samplers)

    def layers(self) -> dict:
        path = self.run_dir / "layers.json"
        res, _ = self._spawn(["layers", "--seed", str(self.seed)], path)
        if not res.get("ok"):
            self.tally.attempted += 1
            self.tally.failed += 1
            self.tally.failures.append(f"fixed-shape layers: {res.get('stderr', '').strip()}")
            return {}
        self.tally.absorb(res)
        return res["metrics"]


def timed_run(exp: Experiment, seconds: float) -> tuple[dict, list[dict]]:
    """Repeat the experiment for ``seconds``; the medians of its figures and
    the figures of every experiment."""
    t0 = time.monotonic()
    records, durations, first = [], [], None
    while len(durations) < MAX_REPEATS:
        rep_start = time.monotonic()
        rec = exp.run()
        durations.append(time.monotonic() - rep_start)
        if rec is not None:
            records.append(rec)
            if first is None:
                first = rec["bytes"]
            else:
                check_identical(exp.tally, "a rerun writes byte-identical output files",
                                first, rec["bytes"])
        now = time.monotonic()
        if now + durations[-1] > exp.deadline:
            break
        if len(durations) >= MIN_REPEATS and now + statistics.median(durations) > t0 + seconds:
            break
    if not records:
        return {}, []
    figures = [r["figures"] for r in records]
    return {k: statistics.median(f[k] for f in figures) for k in END_TO_END}, figures


def traced_run(exp: Experiment, spans_path: Path) -> dict:
    """Fixed-shape layer timings, then an untraced and a traced experiment.
    Whatever of them succeeded is reported."""
    metrics = exp.layers()
    plain = exp.run()
    traced = exp.run(spans_path)
    if traced is None:
        return metrics
    t = exp.tally
    res = traced["result"]
    t.attempted += res["fedavg_checks"]
    t.failed += len(res["fedavg_failures"])
    t.checks_failed += len(res["fedavg_failures"])
    t.failures.extend(res["fedavg_failures"])
    layer = res["layers"]
    phases = sum(layer[f"crossval.{p}_s"] for p in PHASES)
    wall = traced["figures"]["wall_s"]
    t.check("crossval phases cover at least 90% of the traced wall time",
            phases >= PHASE_COVERAGE_MIN * wall, f"({phases:.3f} of {wall:.3f} s)")
    metrics.update(layer)
    if plain is not None:
        check_identical(t, "a traced run writes the same output files as an untraced one",
                        plain["bytes"], traced["bytes"])
        plain_wall = plain["figures"]["wall_s"]
        metrics["crossval.phase_coverage"] = phases / plain_wall
        metrics["trace.overhead_s"] = wall - plain_wall
    return metrics


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_version}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Leave through the `finally` clauses, which stop a running experiment.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fedbalance" / "__init__.py").is_file():
        print(f"error: no fedbalance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    started = time.monotonic()
    run_dir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        exp = Experiment(w, args.seed, run_dir, tally, started + RUN_LIMIT_S)
        if args.trace:
            spans_path = OUT / f"{w.name}-seed{args.seed}.spans.json"
            metrics, runs = traced_run(exp, spans_path), []
        else:
            metrics, runs = timed_run(exp, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    machine = machine_record()
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    missing = [k for k in (PER_LAYER if args.trace else END_TO_END) if k not in metrics]
    if missing:
        print(f"error: no figures for {', '.join(missing)}", file=sys.stderr)
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "experiments": runs, "machine": machine, "metrics": metrics,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures}
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("machine: " + json.dumps(machine, sort_keys=True))
    kind = ("per-layer metrics of a traced run" if args.trace
            else f"medians of {len(runs)} experiments")
    print(f"workload {w.name}, seed {args.seed}: {kind}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>16.6f} {UNITS[name]}")
    # A run that lacks figures still reports its counts, but is not correct.
    print(json.dumps({
        "correct": tally.checks_failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
