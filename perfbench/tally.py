"""Counts of attempted and failed operations, with what failed."""

from __future__ import annotations

import time

import numpy as np


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}

    def timed(self, label: str, fn, calls: int, warmup: int = 1):
        """Median seconds per call of ``fn()`` over ``calls`` timed calls
        after ``warmup`` untimed ones, and the last result.  Every call is
        an operation; if one raises, the rest are skipped and (None, None)
        is returned."""
        times, result = [], None
        for i in range(warmup + calls):
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # a failing call is counted, not fatal
                self.failed += 1
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
                return None, None
            if i >= warmup:
                times.append(time.perf_counter() - start)
        return float(np.median(times)), result

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks_failed += 1
            self.failures.append(f"check failed: {label} {detail}".rstrip())

    def absorb(self, other: dict) -> None:
        """Add the counts of a tally reported as a dict by another process."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.checks_failed += other["checks_failed"]
        self.failures.extend(other["failures"])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "checks_failed": self.checks_failed, "failures": self.failures, "metrics": self.metrics}
