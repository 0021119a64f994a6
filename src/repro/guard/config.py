"""Configuration for the in-simulation guard subsystem.

One frozen dataclass of flags, all off by default, so an unguarded run
never pays for the machinery: a guard with nothing enabled attaches no
checker, and :meth:`repro.sim.engine.Engine.run` picks its
uninstrumented loop whenever no checker is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class GuardConfig:
    """Knobs for :class:`repro.guard.SimulationGuard`.

    Watchdog
        ``watchdog`` arms the progress watchdog; ``stall_window`` is how
        many cycles the architectural-progress signature may stay flat
        (while ticks keep occurring) before the run is declared stalled.
        Detection granularity is ``check_every`` cycles, so the real
        detection latency is ``stall_window`` rounded up to the next
        check point.

    Invariant guards
        ``invariants`` polls every module's :meth:`Module.invariants`
        each ``check_every`` cycles.  Checks are cheap self-reads, but
        any nonzero work is work — hence flag-gated.

    Checkpointing
        ``checkpoint_every`` > 0 writes a deterministic snapshot each
        time the engine clock crosses a multiple of that many cycles
        (at a cycle boundary, so restore is exact).  ``checkpoint_dir``
        is where ``ckpt_*.ckpt`` files land; the newest
        ``keep_checkpoints`` are retained.  ``stop_after_checkpoints``
        deliberately interrupts the run (raising
        :class:`repro.errors.SimulationInterrupted`) after that many
        checkpoints have been written — the deterministic stand-in for
        a mid-run kill, used by ``repro check --mode guard`` and CI.

    Forensics
        ``bundle_dir`` is where watchdog/invariant violations drop their
        forensic bundle; empty string disables bundle writing (the typed
        error is still raised).  ``trace_window`` bounds the trailing
        event window recorded in the bundle.
    """

    watchdog: bool = False
    invariants: bool = False
    stall_window: int = 20_000
    check_every: int = 256
    checkpoint_every: int = 0
    checkpoint_dir: str = ""
    keep_checkpoints: int = 2
    stop_after_checkpoints: int = 0
    bundle_dir: str = ""
    trace_window: int = 64
    inject: Tuple[str, ...] = ()
    inject_at: int = 0

    def __post_init__(self) -> None:
        for kind in self.inject:
            if kind not in ("stall", "violation"):
                raise ConfigError(
                    f"unknown injection kind {kind!r} "
                    f"(expected 'stall' or 'violation')"
                )
        if self.inject_at < 0:
            raise ConfigError("inject_at must be >= 0")
        if self.stall_window <= 0:
            raise ConfigError("stall_window must be positive")
        if self.check_every <= 0:
            raise ConfigError("check_every must be positive")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ConfigError("checkpoint_every requires checkpoint_dir")
        if self.keep_checkpoints < 1:
            raise ConfigError("keep_checkpoints must be >= 1")
        if self.stop_after_checkpoints < 0:
            raise ConfigError("stop_after_checkpoints must be >= 0")
        if self.stop_after_checkpoints and not self.checkpoint_every:
            raise ConfigError(
                "stop_after_checkpoints requires checkpoint_every > 0"
            )
        if self.trace_window < 1:
            raise ConfigError("trace_window must be >= 1")

    @property
    def active(self) -> bool:
        """True when any guard component needs an engine checker."""
        return bool(
            self.watchdog or self.invariants or self.checkpoint_every
        )

    def with_(self, **changes: object) -> "GuardConfig":
        """A copy with ``changes`` applied (frozen-dataclass helper)."""
        return replace(self, **changes)


#: Everything off — the default for normal simulation runs.
NO_GUARD = GuardConfig()
