"""The static pillar: run :mod:`repro.analyze` as a verification check.

The other seven pillars execute simulations and watch invariants at
runtime; this one checks the *source* of the package for the bugs the
seeded trials found they miss — hash-seed-dependent iteration order
(DT203) and module state touched around the ports (SH501, SH502) —
without running anything.  It lints the installed
``repro`` package itself, so ``repro check --mode all`` covers both the
behavior and the code that produces it.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.check.report import CheckFinding, info, violation


def static_check(paths: Optional[List[Path]] = None) -> List[CheckFinding]:
    """Lint ``paths`` (default: the installed ``repro`` package) and
    report every lint finding as a violation."""
    from repro.analyze import RULES, lint_paths

    if paths is None:
        import repro

        paths = [Path(repro.__file__).parent]
    report = lint_paths(paths)
    findings: List[CheckFinding] = [
        violation(
            "static",
            f"{lint_finding.path}:{lint_finding.line}",
            f"{lint_finding.rule} {lint_finding.scope}: "
            f"{lint_finding.message}",
        )
        for lint_finding in report.findings
    ]
    if report.ok:
        findings.append(info(
            "static",
            ", ".join(str(p) for p in paths),
            f"clean: {report.files_scanned} file(s) against "
            f"{len(RULES)} rule(s), {report.suppressed} suppression(s)",
        ))
    return findings
