"""Check and suite reports: verdicts with deterministic witnesses.

A failed check always carries the lexicographically smallest failing basis
tuple and the nonzero defect vector at that tuple, serialized in the scalar
grammar.  Reports serialize to JSON with a fixed key order; timing metadata
is kept in memory but excluded from serialized output by default so that
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

__all__ = [
    "PASS",
    "FAIL",
    "PRECONDITION_FAILED",
    "CheckReport",
    "SuiteReport",
    "PreconditionError",
    "json_text",
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
        return json_text(self.to_dict(include_timing)) + "\n"

    def describe(self) -> str:
        lines = [f"suite {self.kind}: {self.status.upper()}"]
        lines.extend("  " + c.describe() for c in self.checks)
        return "\n".join(lines)


def json_text(doc) -> str:
    """The text that ``json.dumps`` writes for ``doc`` with an indent of 2,
    for documents of dicts with string keys, lists, strings, ints, finite
    floats, booleans and None.

    ``json.dumps`` uses its C encoder only without an indent; this writer
    appends the same pieces to one list and quotes strings with the C
    function the encoder itself uses."""
    parts: list[str] = []
    _write(doc, "\n", parts)
    return "".join(parts)


def _write(value, newline: str, parts: list[str]) -> None:
    """Append the text of ``value`` to ``parts``; ``newline`` is the line
    break and indent of the line that ``value`` starts on."""
    if isinstance(value, str):
        parts.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            parts.append(sep + _quote(key) + ": ")
            if type(item) is str:
                parts.append(_quote(item))
            else:
                _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            if type(item) is str:
                parts.append(_quote(item))
            else:
                _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
