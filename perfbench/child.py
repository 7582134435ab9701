"""One fresh process of the benchmark.

``experiment`` runs the program's console entry point on a config, and
``layers`` runs the fixed-shape timings.  Either writes a JSON result file;
timestamps are ``time.monotonic()``, a clock the parent process shares.

    python3 perfbench/child.py experiment --config C --out DIR --result R [--spans S]
    python3 perfbench/child.py layers --seed N --result R
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    """Import fedbalance from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import fedbalance

    where = Path(fedbalance.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"fedbalance was imported from {where}, not from {SRC}")
    return fedbalance


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; a child's peak is added to this process's
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def experiment(args) -> dict:
    import_program()
    from fedbalance import cli, federation

    import spans

    result = {}
    tracer = None
    if args.spans:
        tracer = spans.Tracer(args.run_id)
        spans.instrument(tracer)

    # Mark the first training step with a wrapper that removes itself.
    inner = federation.train_step

    def first_step(*a, **k):
        result["t_first_step"] = time.monotonic()
        federation.train_step = inner
        return inner(*a, **k)

    federation.train_step = first_step
    cpu0 = _cpu_seconds()
    errors = io.StringIO()
    result["t_start"] = time.monotonic()
    with contextlib.redirect_stderr(errors):
        rc = cli.main(["run", "--config", args.config, "--output", args.out])
    result["t_end"] = time.monotonic()
    result["cpu_s"] = _cpu_seconds() - cpu0
    result["peak_rss_mb"] = _peak_rss_mb()
    result["ok"] = rc == 0
    result["stderr"] = errors.getvalue()[-4000:]
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["fedavg_checks"] = tracer.fedavg_checks
        result["fedavg_failures"] = tracer.fedavg_failures
        tracer.dump(args.spans)
    return result


def layers(args) -> dict:
    import_program()
    import fixed_shapes

    result = fixed_shapes.run(args.seed).as_dict()
    result["ok"] = True
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("experiment", "layers"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        result = experiment(args) if args.mode == "experiment" else layers(args)
    except Exception:  # reported to the parent, which counts the failure
        result = {"ok": False, "stderr": traceback.format_exc()[-4000:]}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
