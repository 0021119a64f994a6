"""Configuration for the in-simulation guard subsystem.

One frozen dataclass of flags, all off by default, so an unguarded run
never pays for the machinery: a guard with nothing enabled attaches no
checker, and :meth:`repro.sim.engine.Engine.run` picks its
uninstrumented loop whenever no checker is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    Forensics
        ``bundle_dir`` is where watchdog/invariant violations drop their
        forensic bundle; empty string disables bundle writing (the typed
        error is still raised).  The bundle records the trailing
        :data:`~repro.guard.watchdog.TRACE_WINDOW` engine events.

    Injection
        ``inject`` names saboteur modules (``"stall"``, ``"violation"``)
        added to the engine when the first kernel starts, so detection
        can be tested end to end.
    """

    watchdog: bool = False
    invariants: bool = False
    stall_window: int = 20_000
    check_every: int = 256
    bundle_dir: str = ""
    inject: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for kind in self.inject:
            if kind not in ("stall", "violation"):
                raise ConfigError(
                    f"unknown injection kind {kind!r} "
                    f"(expected 'stall' or 'violation')"
                )
        if self.stall_window <= 0:
            raise ConfigError("stall_window must be positive")
        if self.check_every <= 0:
            raise ConfigError("check_every must be positive")

    @property
    def active(self) -> bool:
        """True when any guard component needs an engine checker."""
        return bool(self.watchdog or self.invariants)


#: Everything off — the default for normal simulation runs.
NO_GUARD = GuardConfig()
