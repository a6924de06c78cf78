"""Check and suite reports: verdicts with deterministic witnesses.

A failed check always carries the lexicographically smallest failing basis
tuple and the nonzero defect vector at that tuple, serialized in the scalar
grammar.  Reports serialize to JSON with a fixed key order; timing metadata
is kept in memory but excluded from serialized output by default so that
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "PASS",
    "FAIL",
    "PRECONDITION_FAILED",
    "CheckReport",
    "SuiteReport",
    "PreconditionError",
]

PASS = "pass"
FAIL = "fail"
PRECONDITION_FAILED = "precondition_failed"

_SEVERITY = {PASS: 0, FAIL: 1, PRECONDITION_FAILED: 2}


def worst_status(statuses) -> str:
    worst = PASS
    for status in statuses:
        if _SEVERITY[status] > _SEVERITY[worst]:
            worst = status
    return worst


@dataclass(frozen=True)
class CheckReport:
    """Verdict for one identity, condition, or structural check."""

    check: str
    status: str
    roles: tuple[tuple[str, str], ...] = ()
    witness: tuple[str, ...] | None = None
    defect: tuple[tuple[str, str], ...] | None = None
    detail: str = ""
    seconds: float = 0.0
    preconditions: tuple["CheckReport", ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self, include_timing: bool = False) -> dict:
        out: dict = {"check": self.check, "status": self.status}
        if self.roles:
            out["roles"] = dict(self.roles)
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.defect is not None:
            out["defect"] = dict(self.defect)
        if self.detail:
            out["detail"] = self.detail
        if self.preconditions:
            out["preconditions"] = [r.to_dict(include_timing) for r in self.preconditions]
        if include_timing:
            out["seconds"] = self.seconds
        return out

    def describe(self) -> str:
        parts = [f"{self.check}: {self.status.upper()}"]
        if self.witness:
            parts.append(f"witness=({', '.join(self.witness)})")
        if self.defect:
            body = ", ".join(f"{k}: {v}" for k, v in self.defect)
            parts.append(f"defect={{{body}}}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


@dataclass
class SuiteReport:
    """Conjunction of check reports for one structure or bimodule kind."""

    kind: str
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def status(self) -> str:
        return worst_status(c.status for c in self.checks) if self.checks else PASS

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "kind": self.kind,
            "status": self.status,
            "checks": [c.to_dict(include_timing) for c in self.checks],
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2) + "\n"

    def describe(self) -> str:
        lines = [f"suite {self.kind}: {self.status.upper()}"]
        lines.extend("  " + c.describe() for c in self.checks)
        return "\n".join(lines)


class PreconditionError(Exception):
    """A construction's theorem hypothesis failed; carries the failing reports."""

    def __init__(self, message: str, reports: tuple = ()):
        super().__init__(message)
        self.reports = tuple(reports)

    def describe(self) -> str:
        lines = [str(self)]
        for report in self.reports:
            lines.append(report.describe())
        return "\n".join(lines)
