"""Verification reports shared by every checker in the package."""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """Outcome of a single named axiom/equation check.

    ``status`` is one of "pass", "fail", "skipped".  ``witness`` is a
    JSON-able description of the first (lexicographically smallest)
    violation, present iff status is "fail".
    """

    name: str
    status: str
    witness: object = None
    elapsed_ms: float = 0.0

    def to_json(self):
        out = {"name": self.name, "status": self.status, "elapsed_ms": round(self.elapsed_ms, 3)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class VerificationReport:
    """A bundle of checks about one subject; passes iff every non-skipped check passes."""

    subject: str
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks if c.status != "skipped")

    @property
    def witness(self):
        """Witness of the first failing check, or None."""
        for c in self.checks:
            if c.status == "fail":
                return c.witness
        return None

    def to_json(self):
        return {
            "subject": self.subject,
            "overall": "pass" if self.passed else "fail",
            "checks": [c.to_json() for c in self.checks],
        }


def difference_witness(a, b):
    """{"row", "col"} of the smallest entry where two operators differ, or None."""
    k = a.first_difference(b)
    return None if k is None else {"row": k[0], "col": k[1]}


class ReportBuilder:
    """Accumulates timed checks into a VerificationReport."""

    def __init__(self, subject: str):
        self.subject = subject
        self._checks = []
        self._t0 = time.perf_counter()

    def _elapsed(self) -> float:
        t = time.perf_counter()
        ms = (t - self._t0) * 1000.0
        self._t0 = t
        return ms

    def record(self, name: str, ok: bool, witness=None):
        status = "pass" if ok else "fail"
        self._checks.append(Check(name, status, witness if not ok else None, self._elapsed()))
        return ok

    def skip(self, name: str, reason=None):
        self._checks.append(Check(name, "skipped", reason, self._elapsed()))

    def extend(self, report: VerificationReport):
        self._checks.extend(report.checks)
        self._t0 = time.perf_counter()

    def build(self) -> VerificationReport:
        return VerificationReport(self.subject, tuple(self._checks))
