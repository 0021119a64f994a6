"""The lint driver: parse, run rules, suppress, baseline, report.

:func:`lint_paths` is the single entry point both ``repro lint`` and the
``repro check --mode static`` pillar use.  The pipeline:

1. collect sources and parse them (through the optional
   :class:`~repro.analyze.index.AstCache`);
2. run every registered rule over the whole-program index;
3. drop findings covered by a ``# repro: noqa[RULE]`` on the offending
   line (counted, so suppression stays visible);
4. split the remainder against the committed baseline, if given.

The exit policy lives here too: ``--fail-on error`` (the default)
gates on fresh error-severity findings, ``--fail-on warning`` on any
fresh finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analyze.baseline import apply_baseline, load_baseline
from repro.analyze.findings import FAIL_ON, LintFinding
from repro.analyze.index import AstCache, ProgramIndex, load_index
from repro.analyze.registry import Rule, all_rules, resolve_rules
from repro.errors import AnalysisError, UnknownRuleError


@dataclass
class LintReport:
    """Outcome of one lint run."""

    paths: List[str]
    rules_run: int
    files_scanned: int
    findings: List[LintFinding] = field(default_factory=list)
    grandfathered: List[LintFinding] = field(default_factory=list)
    stale_baseline: List[dict] = field(default_factory=list)
    suppressed: int = 0
    fail_on: str = "error"
    cache_hits: int = 0
    cache_misses: int = 0

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
            "grandfathered": len(self.grandfathered),
            "stale_baseline": self.stale_baseline,
            "findings": [f.as_dict() for f in self.findings],
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def render(self, verbose: bool = False) -> str:
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
        if self.grandfathered:
            lines.append(
                f"  ({len(self.grandfathered)} finding(s) grandfathered "
                f"by the baseline)"
            )
        for entry in self.stale_baseline:
            lines.append(
                f"  stale baseline entry: {entry['rule']} {entry['path']} "
                f"{entry['scope']} — fixed? regenerate the baseline"
            )
        if self.stale_baseline:
            count = len(self.stale_baseline)
            lines.append(
                f"  warning: {count} stale baseline entr"
                f"{'y' if count == 1 else 'ies'} — run "
                f"`repro lint --prune-baseline` to drop them"
            )
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
    baseline: Optional[Path] = None,
    fail_on: str = "error",
    cache: Optional[AstCache] = None,
    index: Optional[ProgramIndex] = None,
) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`.

    ``index`` lets callers that already built a :class:`ProgramIndex`
    (tests, the check pillar) skip re-parsing.
    """
    if fail_on not in FAIL_ON:
        raise AnalysisError(f"fail_on must be one of {FAIL_ON}, got {fail_on!r}")
    selected: List[Rule] = (
        resolve_rules(rules) if rules else all_rules()
    )
    if index is None:
        index = load_index(paths, root=root, cache=cache)
    _validate_noqa(index)
    by_path = {source.path: source for source in index.files}
    findings_key = None
    cached = None
    if cache is not None:
        findings_key = cache.findings_key(
            [source.content_hash for source in index.files],
            [r.id for r in selected],
        )
        cached = cache.findings_for(findings_key)
    if cached is not None:
        kept, suppressed = cached
    else:
        raw: List[LintFinding] = []
        for rule_obj in selected:
            raw.extend(rule_obj.check(index))
        kept = []
        suppressed = 0
        for finding in raw:
            source = by_path.get(finding.path)
            if source is not None and source.suppressed(
                finding.line, finding.rule
            ):
                suppressed += 1
            else:
                kept.append(finding)
        if cache is not None and findings_key is not None:
            # Post-noqa, pre-baseline: suppression depends only on file
            # content (hashed into the key); the baseline is applied
            # fresh on every run so edits to it take effect immediately.
            cache.store_findings(findings_key, (kept, suppressed))
    if cache is not None:
        cache.save()
    grandfathered: List[LintFinding] = []
    stale: List[dict] = []
    if baseline is not None:
        kept, grandfathered, stale = apply_baseline(
            kept, load_baseline(baseline)
        )
    return LintReport(
        paths=[str(path) for path in paths],
        rules_run=len(selected),
        files_scanned=len(index.files),
        findings=kept,
        grandfathered=grandfathered,
        stale_baseline=stale,
        suppressed=suppressed,
        fail_on=fail_on,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
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
