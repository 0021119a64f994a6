"""In-simulation robustness: watchdog, invariant guards, forensic bundles.

:mod:`repro.resilience` makes *sweeps* fault tolerant but treats each
simulation as an opaque task — a wedged engine is only caught by
wall-clock timeout.  This package works *inside* the run, on the
:class:`~repro.sim.engine.EngineChecker` hook surface:

* :class:`ProgressWatchdog` — detects deadlock/livelock (flat
  architectural-progress signature with ticks still occurring) and
  raises a typed :class:`~repro.errors.SimulationStall` naming the
  non-progressing modules, instead of spinning to ``max_cycles``.
* :class:`InvariantGuard` — polls each module's self-declared
  conservation properties (:meth:`~repro.sim.module.Module.invariants`)
  every K cycles; violations raise
  :class:`~repro.errors.InvariantViolation` after writing a forensic
  bundle (:func:`write_bundle`).
* :class:`SimulationGuard` — arms both on each kernel's engine and
  injects the saboteurs that prove they fire.

Nothing here saves or restores a run: the one recovery path is the
supervisor's whole-run retry.  Everything is off by default
(:data:`NO_GUARD`); an unguarded engine keeps its fast dispatch loop and
pays nothing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.guard.config": ("NO_GUARD", "GuardConfig"),
    "repro.guard.forensic": ("write_bundle",),
    "repro.guard.guard": ("SimulationGuard",),
    "repro.guard.invariants": ("InvariantGuard",),
    "repro.guard.saboteur": ("InvariantSaboteur", "StallSaboteur"),
    "repro.guard.watchdog": ("ProgressWatchdog", "progress_signature"),
})

__all__ = [
    "GuardConfig",
    "InvariantGuard",
    "InvariantSaboteur",
    "NO_GUARD",
    "ProgressWatchdog",
    "SimulationGuard",
    "StallSaboteur",
    "progress_signature",
    "write_bundle",
]
