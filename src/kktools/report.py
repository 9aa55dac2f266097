"""Shared result container for the verification sweeps."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of one verification sweep.

    A sweep passes iff it recorded no violations.  `witnesses` carries
    positive evidence (extremal pairs, per-parameter maxima) where a check
    produces some; `checks_run` counts individual grid points examined.
    """

    check: str
    params: dict
    violations: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    checks_run: int = 0
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "passed": self.passed,
            "checks_run": self.checks_run,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "elapsed_ms": self.elapsed_ms,
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return (f"{self.check}: {verdict} "
                f"[{self.checks_run} checks, {self.elapsed_ms:.1f} ms]")


def timed(fn):
    """Fill in elapsed_ms on the report a checker returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
        return rep

    return wrapper
