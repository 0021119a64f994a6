"""``repro.analyze`` — framework-contract linter and static analysis.

The runtime verification stack (:mod:`repro.check`, PR 1) and the
fault-tolerant sweep machinery (:mod:`repro.resilience`, PR 2) enforce
Swift-Sim's contracts *after* a simulation runs.  This package enforces
them at commit time, with an AST-based whole-program analysis (stdlib
:mod:`ast`, no dependencies).  Its rules are the ones a seeded trial
found to be the *only* detector of a real bug (``docs/static-analysis.md``
§ "Trial"), in two families:

* **DT — determinism**: bare set iteration in clocked code paths
  (DT203), whose order depends on the hash seed — a hazard every
  runtime pillar misses, because each runs under a single seed;
* **SH — shard safety**: whole-program dataflow over every module's
  clocked surface (:mod:`~repro.analyze.callgraph`,
  :mod:`~repro.analyze.stateflow`) catching cross-module races before a
  PDES decomposition exists to hit them — unsynchronized cross-shard
  writes (SH501), mutable objects retained across ports (SH502), and
  tick-order-dependent cross-module reads (SH503).  The same analysis
  emits a partition manifest (:mod:`~repro.analyze.partition`,
  ``repro lint --partition-report``) proposing SM-side/memory-side
  shards with every cross-shard edge enumerated.

Mechanics shared by all rules: a pluggable registry
(:mod:`~repro.analyze.registry`), per-rule severity with a
``--fail-on`` gate, and inline ``# repro: noqa[RULE]`` suppressions
(counted in the report; unknown rule names are rejected with
:class:`~repro.errors.UnknownRuleError`).

Drive it with ``repro lint`` (text on stdout, ``--json PATH`` for the
machine-readable report) or as the ``repro check --mode static``
pillar; the rule catalog lives in ``docs/static-analysis.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analyze.callgraph": ("CallGraph", "build_callgraph"),
    "repro.analyze.findings": ("FAIL_ON", "SEVERITIES", "LintFinding"),
    "repro.analyze.index": ("ProgramIndex", "SourceFile", "load_index"),
    "repro.analyze.partition": (
        "Partition",
        "build_partition",
        "write_manifest",
    ),
    "repro.analyze.registry": (
        "FAMILIES",
        "RULES",
        "Rule",
        "all_rules",
        "resolve_rules",
    ),
    "repro.analyze.runner": ("LintReport", "lint_paths"),
    "repro.analyze.stateflow": ("StateFlow", "build_stateflow"),
})

__all__ = [
    "FAIL_ON",
    "FAMILIES",
    "CallGraph",
    "LintFinding",
    "LintReport",
    "Partition",
    "ProgramIndex",
    "RULES",
    "Rule",
    "SEVERITIES",
    "SourceFile",
    "StateFlow",
    "all_rules",
    "build_callgraph",
    "build_partition",
    "build_stateflow",
    "lint_paths",
    "load_index",
    "resolve_rules",
    "write_manifest",
]
