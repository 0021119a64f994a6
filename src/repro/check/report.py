"""Machine-readable verification reports.

Every pillar of :mod:`repro.check` reports its outcome as a list of
:class:`CheckFinding`\\ s: ``violation`` findings mean a correctness
contract was broken, ``info`` findings record context (what was checked,
observed divergences that stayed within tolerance).  A
:class:`CheckReport` aggregates findings across apps/simulators, renders
a terminal summary, and serializes to JSON so CI can archive and diff
verification runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

#: Finding severities, in increasing order of badness.
SEVERITIES = ("info", "violation")

#: The verification modes ``repro check`` accepts.  "all" covers the
#: in-process pillars; "serve" spawns server subprocesses and binds
#: unix sockets, so it only runs when requested by name.  Kept here, not
#: beside ``run_checks``, so the CLI can list them without importing a
#: pillar.
MODES = (
    "shadow-jump", "differential", "determinism", "sanitize",
    "resilience", "guard", "serve", "all",
)


@dataclass(frozen=True)
class CheckFinding:
    """One observation made by a verification check."""

    check: str     #: which pillar produced it (e.g. "shadow-jump")
    severity: str  #: "info" or "violation"
    subject: str   #: what was being checked (app, simulator, module, ...)
    message: str   #: human-readable detail

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def as_dict(self) -> Dict[str, str]:
        return {
            "check": self.check,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
        }


def violation(check: str, subject: str, message: str) -> CheckFinding:
    """Shorthand for a violation-severity finding."""
    return CheckFinding(check=check, severity="violation", subject=subject,
                        message=message)


def info(check: str, subject: str, message: str) -> CheckFinding:
    """Shorthand for an info-severity finding."""
    return CheckFinding(check=check, severity="info", subject=subject,
                        message=message)


@dataclass
class CheckReport:
    """Aggregated outcome of one ``repro check`` invocation."""

    mode: str
    gpu_name: str
    scale: str
    apps: List[str] = field(default_factory=list)
    simulators: List[str] = field(default_factory=list)
    findings: List[CheckFinding] = field(default_factory=list)

    @property
    def checks_run(self) -> int:
        """Distinct ``(check, subject)`` pairs the findings cover."""
        return len({(f.check, f.subject) for f in self.findings})

    @property
    def violations(self) -> List[CheckFinding]:
        return [f for f in self.findings if f.severity == "violation"]

    @property
    def ok(self) -> bool:
        """True when no check reported a violation."""
        return not self.violations

    def extend(self, findings: List[CheckFinding]) -> None:
        self.findings.extend(findings)

    def as_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "gpu": self.gpu_name,
            "scale": self.scale,
            "apps": list(self.apps),
            "simulators": list(self.simulators),
            "checks_run": self.checks_run,
            "violations": len(self.violations),
            "ok": self.ok,
            "findings": [f.as_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def render(self, verbose: bool = False) -> str:
        """Terminal summary: violations always, info findings on demand."""
        lines = [
            f"repro check --mode {self.mode}: {self.gpu_name}, "
            f"scale {self.scale}, {len(self.apps)} app(s), "
            f"{self.checks_run} check(s) run"
        ]
        shown = self.findings if verbose else self.violations
        for finding in shown:
            lines.append(
                f"  [{finding.severity}] {finding.check} :: "
                f"{finding.subject}: {finding.message}"
            )
        if self.ok:
            lines.append("PASS: no invariant violations")
        else:
            lines.append(f"FAIL: {len(self.violations)} violation(s)")
        return "\n".join(lines)
