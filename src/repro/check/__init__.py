"""``repro.check`` — simulation sanitizer & differential verification.

Swift-Sim's speedups are *exactness claims*: clock jumping and hybrid
modules must agree with per-cycle, cycle-accurate execution wherever
their plans coincide.  This package turns those claims into
machine-checked invariants, in seven pillars:

1. :func:`~repro.check.sanitizer.sanitize_check` — runs every
   simulator with an :class:`~repro.check.sanitizer.EngineSanitizer`
   on the engine's checker hooks (monotonic ticks, stable same-cycle
   ordering, no wake-before-now);
2. :func:`~repro.check.shadow.shadow_jump_check` — re-runs a workload
   with the engine's clock jumping inverted and demands bit-identical
   cycles and counters;
3. :func:`~repro.check.differential.differential_check` — runs the same
   trace through all assembled simulators and checks declared
   invariants (exact agreement for plan-coincident cycle-accurate
   slots, bounded divergence for hybrid ones);
4. :func:`~repro.check.determinism.determinism_check` — serial,
   multiprocess-parallel, and repeated runs must be bit-identical;
5. :func:`~repro.check.resilience.resilience_check` — sweeps run under
   seeded fault injection (:mod:`repro.resilience`) and sweeps resumed
   from a :class:`~repro.resilience.journal.RunJournal` must converge
   bit-identically to a clean run;
6. :func:`~repro.check.guard.guard_check` — :mod:`repro.guard` runs
   (watchdog + invariant guards armed) must be bit-identical to
   unguarded runs, and injected stall and invariant saboteurs must be
   caught, named, and leave a forensic bundle (see
   ``docs/robustness-guard.md``);
7. :func:`~repro.check.serve.serve_check` — the sweep service
   (:mod:`repro.serve`) killed mid-sweep and restarted must converge
   bit-identically to an uninterrupted server, grid re-submission must
   be >90% cache hits, and degraded answers must carry their tags and
   error bounds while the exact store stays clean (see
   ``docs/serving.md``).  Spawns server subprocesses, so it runs only
   when requested explicitly (``--mode serve``), never under
   ``--mode all``.

Each pillar plugs into :func:`~repro.check.runner.run_checks` through
one signature and one table (:data:`~repro.check.runner.PILLARS`).
``repro check`` (see :mod:`repro.cli`) drives all of this from the
command line and emits a machine-readable JSON report; see
``docs/verification.md`` for the methodology.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.check.determinism": ("determinism_check",),
    "repro.check.differential": (
        "DEFAULT_TOLERANCE",
        "SLOT_EXACT_COUNTERS",
        "differential_check",
    ),
    "repro.check.guard": ("guard_check",),
    "repro.check.report": ("MODES", "CheckFinding", "CheckReport"),
    "repro.check.resilience": ("resilience_check",),
    "repro.check.runner": ("run_checks", "select_apps"),
    "repro.check.sanitizer": ("EngineSanitizer", "sanitize_check"),
    "repro.check.serve": ("serve_check",),
    "repro.check.shadow": ("TICK_OBSERVER_COUNTERS", "shadow_jump_check"),
})

__all__ = [
    "CheckFinding",
    "CheckReport",
    "DEFAULT_TOLERANCE",
    "EngineSanitizer",
    "MODES",
    "SLOT_EXACT_COUNTERS",
    "TICK_OBSERVER_COUNTERS",
    "determinism_check",
    "differential_check",
    "guard_check",
    "resilience_check",
    "run_checks",
    "sanitize_check",
    "select_apps",
    "serve_check",
    "shadow_jump_check",
]
