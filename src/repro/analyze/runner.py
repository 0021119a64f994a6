"""The lint driver: parse, run the rules, suppress, report.

:func:`lint_paths` is the single entry point both ``repro lint`` and the
``repro check --mode static`` pillar use.  The pipeline:

1. collect and parse the sources into a whole-program index;
2. run the three rules over it;
3. drop findings a ``# repro: noqa[RULE]`` on the reported line names
   (counted, so suppression stays visible).

Every finding left fails the gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analyze.findings import LintFinding
from repro.analyze.index import ProgramIndex, load_index
from repro.analyze.rules_determinism import check_set_iteration
from repro.analyze.rules_sharding import check_shard_safety
from repro.errors import UnknownRuleError

#: The rule catalog (docs/static-analysis.md § "Rule catalog").
RULES = ("DT203", "SH501", "SH502")


@dataclass
class LintReport:
    """Outcome of one lint run."""

    paths: List[str]
    files_scanned: int
    findings: List[LintFinding] = field(default_factory=list)
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict:
        return {
            "paths": self.paths,
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "suppressed": self.suppressed,
            "findings": [f.as_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def render(self) -> str:
        lines = [
            f"repro lint: {self.files_scanned} file(s), "
            f"rules {', '.join(RULES)}"
        ]
        ordered = sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule)
        )
        lines.extend("  " + finding.render() for finding in ordered)
        if self.suppressed:
            lines.append(f"  ({self.suppressed} finding(s) noqa-suppressed)")
        lines.append(
            "PASS: no findings" if self.ok
            else f"FAIL: {len(self.findings)} finding(s)"
        )
        return "\n".join(lines)


def lint_paths(
    paths: Sequence[Path], root: Optional[Path] = None
) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`."""
    index = load_index(paths, root=root)
    _validate_noqa(index)
    by_path = {source.path: source for source in index.files}
    kept: List[LintFinding] = []
    suppressed = 0
    for check in (check_set_iteration, check_shard_safety):
        for finding in check(index):
            source = by_path.get(finding.path)
            if source is not None and source.suppressed(
                finding.line, finding.rule
            ):
                suppressed += 1
            else:
                kept.append(finding)
    return LintReport(
        paths=[str(path) for path in paths],
        files_scanned=len(index.files),
        findings=kept,
        suppressed=suppressed,
    )


def _validate_noqa(index: ProgramIndex) -> None:
    """Reject ``# repro: noqa[...]`` comments naming unknown rules.

    A typo'd rule ID would otherwise suppress nothing, silently — the
    author believes the finding is waived while the gate still fires (or
    worse, a future rule collides with the typo).
    """
    for source in index.files:
        for line, rules in sorted(source.noqa.items()):
            unknown = sorted(rules - set(RULES))
            if unknown:
                raise UnknownRuleError(
                    f"{source.path}:{line}: noqa names unknown rule(s) "
                    f"{', '.join(unknown)}; the rules are {', '.join(RULES)}"
                )
