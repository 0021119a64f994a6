"""``repro.analyze`` — the framework-contract linter.

The runtime verification stack (:mod:`repro.check`) and the
fault-tolerant sweep machinery (:mod:`repro.resilience`) enforce
Swift-Sim's contracts *after* a simulation runs.  This package checks
the source at commit time, with an AST pass over the whole program
(stdlib :mod:`ast`, no dependencies).  It holds three rules, each the
only detector of a seeded bug that did harm (``docs/static-analysis.md``
§ "Trial"):

* **DT203** — bare set iteration in clocked code paths, whose order
  depends on the hash seed; every runtime pillar misses it, because
  each runs under a single seed;
* **SH501** — a clocked method writing another module's state around
  its ports;
* **SH502** — a mutable object passed across a port and retained by the
  far side.

The SH rules rest on a call graph (:mod:`~repro.analyze.callgraph`), a
state-flow pass (:mod:`~repro.analyze.stateflow`) and a partition of the
modules into clock domains (:mod:`~repro.analyze.partition`).  Every
finding is an error; a ``# repro: noqa[RULE]`` comment on the reported
line waives it, is counted in the report, and must name a known rule
(else :class:`~repro.errors.UnknownRuleError`).

Drive it with ``repro lint`` (text on stdout, ``--json PATH`` for the
machine-readable report; exit 1 on any finding) or as the
``repro check --mode static`` pillar, which reports each finding as a
violation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analyze.findings": ("LintFinding",),
    "repro.analyze.index": ("ProgramIndex", "SourceFile", "load_index"),
    "repro.analyze.runner": ("RULES", "LintReport", "lint_paths"),
})

__all__ = [
    "LintFinding",
    "LintReport",
    "ProgramIndex",
    "RULES",
    "SourceFile",
    "lint_paths",
    "load_index",
]
