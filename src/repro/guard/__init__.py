"""In-simulation robustness: watchdog, invariant guards, checkpoints.

:mod:`repro.resilience` (PR 2) made *sweeps* fault tolerant but treats
each simulation as an opaque task — a wedged engine is only caught by
wall-clock timeout and every cycle simulated before the kill is lost.
This package works *inside* the run, on the
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
* :class:`SimulationGuard` + the checkpoint store — periodic
  deterministic mid-run snapshots so a killed run resumes from its last
  checkpoint bit-identically (``repro check --mode guard`` verifies).

Everything is off by default (:data:`NO_GUARD`); an unguarded engine
keeps its fast dispatch loop and pays nothing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.guard.checkpoint": (
        "FORMAT_VERSION",
        "checkpoint_name",
        "find_resumable",
        "list_checkpoints",
        "prune_checkpoints",
        "read_checkpoint",
        "write_checkpoint",
    ),
    "repro.guard.config": ("NO_GUARD", "GuardConfig"),
    "repro.guard.forensic": ("config_hash", "write_bundle"),
    "repro.guard.guard": ("GuardResume", "SimulationGuard"),
    "repro.guard.invariants": ("InvariantGuard",),
    "repro.guard.saboteur": ("InvariantSaboteur", "StallSaboteur"),
    "repro.guard.watchdog": (
        "PROGRESS_IGNORED_COUNTERS",
        "ProgressWatchdog",
        "progress_signature",
    ),
})

__all__ = [
    "FORMAT_VERSION",
    "GuardConfig",
    "GuardResume",
    "InvariantGuard",
    "InvariantSaboteur",
    "NO_GUARD",
    "PROGRESS_IGNORED_COUNTERS",
    "ProgressWatchdog",
    "SimulationGuard",
    "StallSaboteur",
    "checkpoint_name",
    "config_hash",
    "find_resumable",
    "list_checkpoints",
    "progress_signature",
    "prune_checkpoints",
    "read_checkpoint",
    "write_bundle",
    "write_checkpoint",
]
