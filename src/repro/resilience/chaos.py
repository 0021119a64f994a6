"""Deterministic fault injection for the supervised driver.

A :class:`ChaosPlan` decides, per (task, attempt), whether to inject a
worker crash, a hang (delay), or a corrupted result.  Decisions come
from a stable hash of ``(seed, task, attempt)``, so a chaos run is
bit-reproducible: the same plan injects the same faults at the same
points every time, and a retry (a different attempt number) gets a fresh
draw — which is what lets a supervised sweep *converge* to the clean
run's results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.utils.rng import derive_seed

#: Exit code a chaos-crashed worker dies with (distinguishable from
#: genuine interpreter crashes in supervisor logs).
CRASH_EXIT_CODE = 73


@dataclass(frozen=True)
class CorruptedResult:
    """Marker wrapping a payload the chaos plan corrupted in transit.

    The supervisor's validation layer rejects it unconditionally, the
    way a checksum would reject a truncated real payload.
    """

    original: object = None


class CrashInjected(Exception):
    """In-process stand-in for a hard worker crash (``os._exit``)."""


class HangInjected(Exception):
    """In-process stand-in for a hang that would exceed the task
    timeout in a real worker."""


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded fault-injection plan.

    Rates are independent probabilities per attempt; their sum must not
    exceed 1.  ``hang_seconds`` is how long an injected hang sleeps —
    set it above the supervisor's task timeout to model a true hang
    (worker gets reaped), below it to model a transient stall.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_seconds: float = 5.0
    #: In-simulation faults (see :mod:`repro.guard.saboteur`): rather
    #: than attacking the worker process, these wedge or corrupt the
    #: *model* so the in-run watchdog / invariant guards must catch it.
    stall_rate: float = 0.0
    violation_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        total = self.crash_rate + self.hang_rate + self.corrupt_rate
        if total > 1.0:
            raise ConfigError(
                f"injection rates sum to {total:.2f} > 1.0"
            )
        if self.hang_seconds < 0:
            raise ConfigError("hang_seconds must be non-negative")
        for name in ("stall_rate", "violation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.stall_rate + self.violation_rate > 1.0:
            raise ConfigError(
                f"in-simulation injection rates sum to "
                f"{self.stall_rate + self.violation_rate:.2f} > 1.0"
            )

    @property
    def active(self) -> bool:
        return (self.crash_rate + self.hang_rate + self.corrupt_rate) > 0

    @property
    def sim_active(self) -> bool:
        """True when any in-simulation fault kind can fire."""
        return (self.stall_rate + self.violation_rate) > 0

    def decide(self, task: str, attempt: int) -> Optional[str]:
        """The fault to inject for this (task, attempt), or ``None``.

        Returns one of ``"crash"``, ``"hang"``, ``"corrupt"``.
        """
        if not self.active:
            return None
        rng = random.Random(derive_seed("chaos", self.seed, task, attempt))
        draw = rng.random()
        if draw < self.crash_rate:
            return "crash"
        if draw < self.crash_rate + self.hang_rate:
            return "hang"
        if draw < self.crash_rate + self.hang_rate + self.corrupt_rate:
            return "corrupt"
        return None

    def decide_sim(self, task: str, attempt: int = 1) -> Optional[str]:
        """The in-simulation fault for this (task, attempt), or ``None``.

        Returns ``"stall"`` or ``"violation"`` — the injection kinds
        :class:`repro.guard.GuardConfig` accepts.  Drawn from an
        independent seed stream (``"chaos-sim"``) so enabling process
        faults never reshuffles which runs get wedged models.
        """
        if not self.sim_active:
            return None
        rng = random.Random(
            derive_seed("chaos-sim", self.seed, task, attempt)
        )
        draw = rng.random()
        if draw < self.stall_rate:
            return "stall"
        if draw < self.stall_rate + self.violation_rate:
            return "violation"
        return None

    def corrupt(self, result: object) -> object:
        """Corrupt a task result the way a torn write would."""
        # SimulationResult gets a recognisably-impossible cycle count so
        # domain validators (not just the marker check) can catch it too.
        total = getattr(result, "total_cycles", None)
        if total is not None:
            import copy

            mangled = copy.copy(result)
            mangled.total_cycles = -(abs(total) + 1)
            return mangled
        return CorruptedResult(original=result)

    def faults_for(self, task: str, max_attempts: int) -> list:
        """Preview the fault sequence a task would see (for tests/docs)."""
        return [
            self.decide(task, attempt)
            for attempt in range(1, max_attempts + 1)
        ]


#: No-op plan.
NO_CHAOS = ChaosPlan()
