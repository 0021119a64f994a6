"""``repro.analyze`` — framework-contract linter and static analysis.

The runtime verification stack (:mod:`repro.check`, PR 1) and the
fault-tolerant sweep machinery (:mod:`repro.resilience`, PR 2) enforce
Swift-Sim's contracts *after* a simulation runs.  This package enforces
them at commit time, with an AST-based whole-program analysis (stdlib
:mod:`ast`, no dependencies) organized as five rule families:

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
