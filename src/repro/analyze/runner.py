"""The lint driver: parse, run rules, suppress, report.

:func:`lint_paths` is the single entry point both ``repro lint`` and the
``repro check --mode static`` pillar use.  The pipeline:

1. collect and parse the sources into a whole-program index;
2. run every selected rule over it;
3. drop findings covered by a ``# repro: noqa[RULE]`` on the offending
   line (counted, so suppression stays visible).

The exit policy lives here too: ``--fail-on error`` (the default)
gates on error-severity findings, ``--fail-on warning`` on any finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analyze.findings import FAIL_ON, LintFinding
from repro.analyze.index import ProgramIndex, load_index
from repro.analyze.registry import Rule, all_rules, resolve_rules
from repro.errors import AnalysisError, UnknownRuleError


@dataclass
class LintReport:
    """Outcome of one lint run."""

    paths: List[str]
    rules_run: int
    files_scanned: int
    findings: List[LintFinding] = field(default_factory=list)
    suppressed: int = 0
    fail_on: str = "error"

    @property
    def errors(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when the gate passes under the ``fail_on`` policy."""
        gated = self.findings if self.fail_on == "warning" else self.errors
        return not gated

    def as_dict(self) -> Dict:
        return {
            "paths": self.paths,
            "rules_run": self.rules_run,
            "files_scanned": self.files_scanned,
            "fail_on": self.fail_on,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "suppressed": self.suppressed,
            "findings": [f.as_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def render(self) -> str:
        lines = [
            f"repro lint: {self.files_scanned} file(s), "
            f"{self.rules_run} rule(s), fail-on {self.fail_on}"
        ]
        ordered = sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule)
        )
        for finding in ordered:
            lines.append("  " + finding.render())
        if self.suppressed:
            lines.append(f"  ({self.suppressed} finding(s) noqa-suppressed)")
        if self.ok:
            lines.append(
                "PASS: no "
                + ("findings" if self.fail_on == "warning" else "errors")
            )
        else:
            lines.append(
                f"FAIL: {len(self.errors)} error(s), "
                f"{len(self.warnings)} warning(s)"
            )
        return "\n".join(lines)


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[str]] = None,
    fail_on: str = "error",
    index: Optional[ProgramIndex] = None,
) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`.

    ``index`` lets callers that already built a :class:`ProgramIndex`
    (tests, the partition report) skip re-parsing.
    """
    if fail_on not in FAIL_ON:
        raise AnalysisError(f"fail_on must be one of {FAIL_ON}, got {fail_on!r}")
    selected: List[Rule] = (
        resolve_rules(rules) if rules else all_rules()
    )
    if index is None:
        index = load_index(paths, root=root)
    _validate_noqa(index)
    by_path = {source.path: source for source in index.files}
    kept: List[LintFinding] = []
    suppressed = 0
    for rule_obj in selected:
        for finding in rule_obj.check(index):
            source = by_path.get(finding.path)
            if source is not None and source.suppressed(
                finding.line, finding.rule
            ):
                suppressed += 1
            else:
                kept.append(finding)
    return LintReport(
        paths=[str(path) for path in paths],
        rules_run=len(selected),
        files_scanned=len(index.files),
        findings=kept,
        suppressed=suppressed,
        fail_on=fail_on,
    )


def _validate_noqa(index: ProgramIndex) -> None:
    """Reject ``# repro: noqa[...]`` comments naming unknown rules.

    A typo'd rule ID would otherwise suppress nothing, silently — the
    author believes the finding is waived while the gate still fires (or
    worse, a future rule collides with the typo).  Checked against the
    *full* catalog, not the selected subset, so running with ``--rules``
    does not flag suppressions of unselected rules.
    """
    known = {registered.id for registered in all_rules()}
    for source in index.files:
        for line, rules in sorted(source.noqa.items()):
            if not rules:
                continue  # blanket noqa suppresses everything by design
            unknown = sorted(set(rules) - known)
            if unknown:
                raise UnknownRuleError(
                    f"{source.path}:{line}: noqa names unknown rule(s) "
                    f"{', '.join(unknown)}; see `repro lint --list-rules`"
                )
