"""Lint findings: what the static analyzer reports.

A :class:`LintFinding` is the analyzer's unit of output, mirroring
:class:`repro.check.report.CheckFinding` but carrying a source position.
Every finding is an error: ``repro lint`` exits 1 on any of them, and
the ``repro check --mode static`` pillar reports each as a violation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict


@dataclass(frozen=True)
class LintFinding:
    """One violation reported by the static analyzer."""

    rule: str      #: rule ID, e.g. "SH501"
    path: str      #: repo-relative source path
    line: int      #: 1-based line of the offending node
    scope: str     #: enclosing qualname ("SMCore.tick", ...)
    message: str   #: human-readable detail

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.scope}: {self.message}"
