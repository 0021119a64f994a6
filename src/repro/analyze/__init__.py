"""``repro.analyze`` — framework-contract linter and static analysis.

The runtime verification stack (:mod:`repro.check`, PR 1) and the
fault-tolerant sweep machinery (:mod:`repro.resilience`, PR 2) enforce
Swift-Sim's contracts *after* a simulation runs.  This package enforces
them at commit time, with an AST-based whole-program analysis (stdlib
:mod:`ast`, no dependencies) organized as four rule families:

* **IF — interface conformance**: every ``Module`` subclass declares its
  component slot and :class:`~repro.sim.module.ModelLevel`, every
  ``ClockedModule`` implements ``tick``, and nothing reaches into
  another module's private state around the :mod:`repro.sim.ports`
  contracts;
* **DT — determinism**: no wall-clock reads, unseeded randomness, bare
  set iteration, or ``id()``-derived ordering in clocked code paths —
  the hazards that silently break shadow-clocking bit-equivalence and
  journal-resume convergence;
* **WR — wiring & race surface**: dangling and double-driven sinks,
  statically detectable duplicate module names (the compile-time twin of
  ``MetricsGatherer``'s runtime warning), module-global state written
  from the clocked phase, mutable class attributes on modules;
* **SW — sweep safety**: unpicklable fields on objects shipped to
  :mod:`repro.resilience` workers, complementing the runtime
  ``validate_picklable`` pre-flight;
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
``--fail-on`` gate, inline ``# repro: noqa[RULE]`` suppressions
(unknown rule names are rejected with
:class:`~repro.errors.UnknownRuleError`), a committed baseline for
grandfathered findings (:mod:`~repro.analyze.baseline`, prunable via
``--prune-baseline``), SARIF 2.1.0 output
(:mod:`~repro.analyze.sarif`), and a persistent cache
(:class:`~repro.analyze.index.AstCache`) holding both parsed ASTs and
rule results, keyed on a digest of the rule catalog so editing any
rule invalidates cached findings but not the parse.

Drive it with ``repro lint`` (text/JSON/SARIF output) or as the sixth
``repro check`` pillar (``--mode static``); the rule catalog lives in
``docs/static-analysis.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analyze.baseline": (
        "apply_baseline",
        "load_baseline",
        "prune_baseline",
        "write_baseline",
    ),
    "repro.analyze.callgraph": ("CallGraph", "build_callgraph"),
    "repro.analyze.findings": ("FAIL_ON", "SEVERITIES", "LintFinding"),
    "repro.analyze.index": (
        "AstCache",
        "ProgramIndex",
        "SourceFile",
        "load_index",
    ),
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
        "catalog_hash",
        "resolve_rules",
    ),
    "repro.analyze.runner": ("LintReport", "lint_paths"),
    "repro.analyze.sarif": ("to_sarif", "to_sarif_json"),
    "repro.analyze.stateflow": ("StateFlow", "build_stateflow"),
})

__all__ = [
    "FAIL_ON",
    "FAMILIES",
    "AstCache",
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
    "apply_baseline",
    "build_callgraph",
    "build_partition",
    "build_stateflow",
    "catalog_hash",
    "lint_paths",
    "load_baseline",
    "load_index",
    "prune_baseline",
    "resolve_rules",
    "to_sarif",
    "to_sarif_json",
    "write_baseline",
    "write_manifest",
]
