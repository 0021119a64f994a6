"""The static pillar: run :mod:`repro.analyze` as a verification check.

The other seven pillars execute simulations and watch invariants at
runtime; this one checks the *source* of the package for the bugs they
cannot see — hash-seed-dependent iteration order and cross-shard
access around the ports — without running anything.  It lints the installed
``repro`` package itself, so ``repro check --mode all`` covers both the
behavior and the code that produces it.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.check.report import CheckFinding, info, violation


def static_check(paths: Optional[List[Path]] = None) -> List[CheckFinding]:
    """Lint ``paths`` (default: the installed ``repro`` package) and map
    the lint findings onto check findings: lint errors become
    violations, lint warnings stay informational."""
    from repro.analyze import lint_paths

    if paths is None:
        import repro

        paths = [Path(repro.__file__).parent]
    report = lint_paths(paths, fail_on="error")
    findings: List[CheckFinding] = []
    for lint_finding in report.findings:
        make = violation if lint_finding.severity == "error" else info
        findings.append(make(
            "static",
            f"{lint_finding.path}:{lint_finding.line}",
            f"{lint_finding.rule} {lint_finding.scope}: "
            f"{lint_finding.message}",
        ))
    if report.ok:
        findings.append(info(
            "static",
            ", ".join(str(p) for p in paths),
            f"clean: {report.files_scanned} file(s) against "
            f"{report.rules_run} rule(s), {report.suppressed} suppression(s)",
        ))
    return findings
