"""Verification reports shared by every checker in the package."""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, replace

from . import scalars
from .errors import NotCertifiedError, PreconditionError, VerdictDisagreementError


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


def first_difference(lhs: dict, rhs: dict, mode: str):
    """The smallest key where two sparse sides differ, or None.

    This is the one difference rule behind every verdict: a missing key
    reads as zero, and in float mode a difference within
    ``scalars.EPS_CMP`` counts as none.
    """
    if lhs == rhs:
        return None
    keys = lhs.keys() | rhs.keys()
    return min((k for k in keys if not scalars.eq(lhs.get(k, 0), rhs.get(k, 0), mode)), default=None)


def column_witness(columns, mode: str):
    """{"row", "col"} of the smallest (row, col) where a stream of
    (col, lhs, rhs) columns differs by ``first_difference``, or None.
    The columns may arrive in any order."""
    best = None
    for col, lhs, rhs in columns:
        row = first_difference(lhs, rhs, mode)
        if row is not None and (best is None or (row, col) < best):
            best = row, col
    return None if best is None else {"row": best[0], "col": best[1]}


def list_witness(lhs, rhs, diff):
    """``column_witness`` of sides with one entry per column, given as row
    lists that differ where diff holds, at min(lhs[c], rhs[c])."""
    if not any(diff):
        return None
    row, col = min(min(itertools.compress(ys, diff)) for ys in (lhs, rhs)), len(diff)
    for ys in (lhs, rhs):
        with contextlib.suppress(ValueError):
            c = ys.index(row, 0, col)
            while not diff[c]:
                c = ys.index(row, c + 1, col)
            col = c
    return {"row": row, "col": col}


def refuse_uncertified(obj, what: str):
    """Refuse an input whose laws neither a check nor a theorem has established."""
    if not obj.certified:
        raise NotCertifiedError(f"{what} needs a certified {type(obj).__name__}; check it first")


def certified(obj, check, failure: str):
    """``obj`` itself if it is certified, else a certified copy once its law
    report ``check(obj)`` passes; a failing law raises PreconditionError
    with the report's witness."""
    if obj.certified:
        return obj
    report = check(obj)
    if not report.passed:
        raise PreconditionError(failure, report.witness)
    return replace(obj, certified=True)


def confirm(obj, check, recheck: bool):
    """A theorem-certified output obj, whose law report ``check(obj)`` must
    pass first when ``recheck`` asks for it."""
    if recheck and not (report := check(obj)).passed:
        raise VerdictDisagreementError("a theorem-certified construction failed its recheck", report.witness)
    return obj


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

    def record_witness(self, name: str, witness):
        """Record a check whose verdict is its witness: it passes iff that is None."""
        return self.record(name, witness is None, witness)

    def skip(self, name: str, reason=None):
        self._checks.append(Check(name, "skipped", reason, self._elapsed()))

    def extend(self, report: VerificationReport):
        self._checks.extend(report.checks)
        self._t0 = time.perf_counter()

    def build(self) -> VerificationReport:
        return VerificationReport(self.subject, tuple(self._checks))
