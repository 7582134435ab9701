"""Run the benchmark on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1 2 3 4 5

Each run lasts BENCHMARK.json's ``run_seconds`` with tracing off.  For each
metric it prints the median over the seeds and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = last_json_line(proc.stdout)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{m['name']:12s} median {statistics.median(vals):14.6f}  "
              f"spread {spread:8.4f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
