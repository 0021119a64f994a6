"""Lint findings: what a static-analysis rule reports.

A :class:`LintFinding` is the analyzer's unit of output, mirroring
:class:`repro.check.report.CheckFinding` but carrying a source position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Finding severities, in increasing order of badness.
SEVERITIES = ("warning", "error")

#: What ``--fail-on`` accepts.  Kept here, not beside ``lint_paths``, so
#: the CLI can list them without importing the index or a rule.
FAIL_ON = ("error", "warning")


@dataclass(frozen=True)
class LintFinding:
    """One violation reported by a static-analysis rule."""

    rule: str      #: rule ID, e.g. "SH501"
    severity: str  #: "warning" or "error"
    path: str      #: repo-relative source path
    line: int      #: 1-based line of the offending node
    scope: str     #: enclosing qualname ("SMCore.tick", "<module>", ...)
    message: str   #: human-readable detail

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "scope": self.scope,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule} [{self.severity}] "
            f"{self.scope}: {self.message}"
        )
