"""Progress watchdog: in-run deadlock/livelock detection.

A wedged simulation normally burns cycles until ``max_cycles`` (hours
for a cycle-accurate run) and then dies with no hint of *which* module
stopped making progress.  The watchdog instead samples an
*architectural-progress signature* every ``check_every`` cycles: the sum
of every module counter that tracks real work (instructions committed,
cache accesses, flits delivered, ...).  Ticks with a flat signature are
livelock — modules oscillating through wake/tick cycles without
advancing state — and a flat signature for a full ``stall_window``
raises :class:`repro.errors.SimulationStall` with a per-module diagnosis
naming the modules that kept ticking without producing work.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import SimulationStall
from repro.sim.engine import ClockedModule, Engine, EngineChecker

# Counters that increment merely because a module *ticked* (cycle
# bookkeeping), not because it advanced architectural state.  A livelock
# keeps these climbing while everything here-excluded stays flat, so the
# progress signature must ignore them.  Kept textually in sync with
# ``repro.check.shadow.TICK_OBSERVER_COUNTERS`` (a test asserts this)
# rather than imported: repro.check sits *above* the simulators in the
# layering and repro.guard must stay below them.
PROGRESS_IGNORED_COUNTERS = frozenset(
    {
        "active_cycles",
        "idle_cycles",
        "stalled_cycles",
        "dispatch_stalls",
        "scoreboard_wait_cycles",
        "drain_wait_cycles",
        "fetch_idle_cycles",
        "ibuffer_empty_cycles",
    }
)


def progress_signature(engine: Engine) -> int:
    """Sum of architectural-progress counters across the module graph.

    Monotonically non-decreasing over a run (modules only add to
    counters), so "flat signature" == "no architectural progress".
    """
    total = 0
    for root in engine.modules:
        for module in root.walk():
            for name, value in module.counters.as_dict().items():
                if name not in PROGRESS_IGNORED_COUNTERS:
                    total += value
    return total


class ProgressWatchdog(EngineChecker):
    """Engine checker that detects a stalled simulation.

    Evaluates the progress signature on each :meth:`on_cycle_start`
    that crosses a ``check_every`` boundary.  While the signature is
    flat it keeps per-module tick tallies; once flat for
    ``stall_window`` cycles *with ticks still occurring*, it raises
    :class:`SimulationStall`.  (A heap that drains — all modules idle —
    ends the run normally; that is completion, not a stall.)

    ``on_violation`` is called with ``(cycle, diagnosis)`` right before
    raising, letting :class:`repro.guard.SimulationGuard` write the
    forensic bundle and return its path for the error message.
    """

    def __init__(
        self,
        engine: Engine,
        stall_window: int = 20_000,
        check_every: int = 256,
        trace_window: int = 64,
        on_violation: Optional[
            Callable[[int, Dict[str, object]], str]
        ] = None,
    ) -> None:
        self.engine = engine
        self.stall_window = stall_window
        self.check_every = check_every
        self.on_violation = on_violation
        self._last_signature: Optional[int] = None
        self._flat_since: Optional[int] = None
        self._next_check = 0
        # Tick/wake tallies accumulated only while the signature is flat,
        # so the diagnosis names who spun during the stall specifically.
        self._flat_ticks: Dict[str, int] = {}
        self._flat_wakes: Dict[str, int] = {}
        self._ticked_since_check = False
        self.events: Deque[Tuple[int, str, str]] = deque(maxlen=trace_window)

    # -- EngineChecker hooks -------------------------------------------

    def on_tick(self, module: ClockedModule, cycle: int, rank: int) -> None:
        self._ticked_since_check = True
        if self._flat_since is not None:
            name = module.name
            self._flat_ticks[name] = self._flat_ticks.get(name, 0) + 1
        self.events.append((cycle, "tick", module.name))

    def on_wake(self, module: ClockedModule, cycle: int, now: int) -> None:
        if self._flat_since is not None:
            name = module.name
            self._flat_wakes[name] = self._flat_wakes.get(name, 0) + 1
        self.events.append((now, "wake", module.name))

    def on_cycle_start(self, cycle: int) -> None:
        if cycle < self._next_check:
            return
        self._next_check = cycle + self.check_every
        signature = progress_signature(self.engine)
        if signature != self._last_signature:
            self._last_signature = signature
            self._flat_since = None
            self._flat_ticks.clear()
            self._flat_wakes.clear()
            self._ticked_since_check = False
            return
        if not self._ticked_since_check:
            # Clock jumped across an idle gap — silence by design, not
            # a livelock.
            return
        self._ticked_since_check = False
        if self._flat_since is None:
            self._flat_since = cycle
            return
        if cycle - self._flat_since >= self.stall_window:
            self._raise_stall(cycle)

    # -- diagnosis ------------------------------------------------------

    def diagnose(self, cycle: int) -> Dict[str, object]:
        """Structured description of the stall for errors and bundles."""
        spinning = sorted(
            self._flat_ticks.items(), key=lambda item: -item[1]
        )
        return {
            "cycle": cycle,
            "flat_since": self._flat_since,
            "flat_cycles": (
                cycle - self._flat_since
                if self._flat_since is not None
                else 0
            ),
            "progress_signature": self._last_signature,
            "ticks_while_flat": dict(spinning),
            "wakes_while_flat": dict(self._flat_wakes),
            "suspects": [name for name, __count in spinning[:5]],
        }

    def _raise_stall(self, cycle: int) -> None:
        diagnosis = self.diagnose(cycle)
        suspects = diagnosis["suspects"]
        who = ", ".join(repr(s) for s in suspects) or "<no module ticked>"
        bundle_path = ""
        if self.on_violation is not None:
            bundle_path = self.on_violation(cycle, diagnosis) or ""
        raise SimulationStall(
            f"no architectural progress for {diagnosis['flat_cycles']} "
            f"cycles (window {self.stall_window}) at cycle {cycle}; "
            f"modules ticking without progress: {who}",
            cycle=cycle,
            diagnosis=diagnosis,
            bundle_path=bundle_path,
        )
