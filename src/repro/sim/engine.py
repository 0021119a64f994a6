"""The clocked simulation engine.

The engine drives :class:`ClockedModule` instances.  Each tick returns
the next cycle at which the module wants to run again:

* a cycle-accurate module that holds work returns ``cycle + 1``, so it
  is ticked every cycle for as long as it does;
* a hybrid module whose pending work all completes at known future
  cycles may return that future cycle, letting the engine *jump* the
  clock across the idle gap;
* a module that holds nothing returns ``None`` and leaves the schedule
  under either clocking mode: per-cycle clocking clamps every
  *requested* wake to the next cycle, it never invents a tick.

Jumping is exact, not an approximation: a module that returns a wake
cycle ``w`` asserts that its externally visible state cannot change
before ``w`` — nothing else can observe a difference versus ticking it
through the silent cycles.  A module that goes idle (returns ``None``)
can be re-armed by a peer through :meth:`Engine.wake`, e.g. when a core
hands new requests to an idle memory system.

This is where much of Swift-Sim-Basic's speedup over the Accel-Sim-style
baseline comes from (ablation A2 quantifies it).
"""

from __future__ import annotations

import heapq
from abc import abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.errors import CycleBudgetExceeded, SimulationError
from repro.sim.module import Module

_IDLE = -1


class EngineChecker:
    """Opt-in observer of engine scheduling decisions.

    :mod:`repro.check` attaches subclasses (via
    :meth:`Engine.attach_checker`) to validate the jump contract at
    runtime — monotonic tick cycles, stable same-cycle ordering, no
    wake-before-now.  The base class is a no-op, so attaching one never
    changes simulation behavior, only observes it.
    """

    def on_add(self, module: "ClockedModule", start_cycle: int) -> None:
        """``module`` was registered to first tick at ``start_cycle``."""

    def on_schedule(self, module: "ClockedModule", cycle: int, now: int) -> None:
        """``module`` was (re)scheduled to tick at ``cycle``; the engine
        clock currently reads ``now``."""

    def on_wake(self, module: "ClockedModule", cycle: int, now: int) -> None:
        """:meth:`Engine.wake` was called with the *requested* ``cycle``
        (before any clamping to ``now``)."""

    def on_cycle_start(self, cycle: int) -> None:
        """The engine clock is about to advance to ``cycle``.

        Fires once per distinct cycle value, *before* any tick at that
        cycle and before the heap is touched: every tick of the previous
        cycle has completed and the engine + module state is a consistent
        cycle-boundary snapshot.  :mod:`repro.guard` evaluates progress
        and invariants here.
        """

    def on_tick(self, module: "ClockedModule", cycle: int, rank: int) -> None:
        """``module`` (registration rank ``rank``) is about to tick."""

    def on_tick_end(self, module: "ClockedModule", cycle: int) -> None:
        """``module`` returned from its tick at ``cycle``.  Paired with
        :meth:`on_tick`; :mod:`repro.profile` uses the pair to attribute
        wall-clock time per module."""

    def on_run_end(self, final_cycle: int) -> None:
        """:meth:`Engine.run` drained its schedule at ``final_cycle``."""


class CompositeChecker(EngineChecker):
    """Fans every checker callback out to an ordered list of checkers.

    :meth:`Engine.attach_checker` takes exactly one checker; the guard
    subsystem (watchdog + invariant guard) and a
    caller-supplied sanitizer/profiler compose through this instead.
    """

    def __init__(self, checkers: List[EngineChecker]) -> None:
        self.checkers = [c for c in checkers if c is not None]

    def on_add(self, module: "ClockedModule", start_cycle: int) -> None:
        for checker in self.checkers:
            checker.on_add(module, start_cycle)

    def on_schedule(self, module: "ClockedModule", cycle: int, now: int) -> None:
        for checker in self.checkers:
            checker.on_schedule(module, cycle, now)

    def on_wake(self, module: "ClockedModule", cycle: int, now: int) -> None:
        for checker in self.checkers:
            checker.on_wake(module, cycle, now)

    def on_cycle_start(self, cycle: int) -> None:
        for checker in self.checkers:
            checker.on_cycle_start(cycle)

    def on_tick(self, module: "ClockedModule", cycle: int, rank: int) -> None:
        for checker in self.checkers:
            checker.on_tick(module, cycle, rank)

    def on_tick_end(self, module: "ClockedModule", cycle: int) -> None:
        for checker in self.checkers:
            checker.on_tick_end(module, cycle)

    def on_run_end(self, final_cycle: int) -> None:
        for checker in self.checkers:
            checker.on_run_end(final_cycle)


class ClockedModule(Module):
    """A module the engine ticks."""

    @abstractmethod
    def tick(self, cycle: int) -> Optional[int]:
        """Advance to ``cycle``.

        Return the next cycle (> ``cycle``) to be ticked at, or ``None``
        to go idle (the module is either finished or waiting to be woken
        via :meth:`Engine.wake`).
        """

    def is_done(self) -> bool:
        """True when the module has no pending or future work."""
        return True


class Engine:
    """Schedules clocked modules on a shared cycle counter.

    Uses a lazily-invalidated heap: each module has exactly one live
    scheduled cycle; superseded heap entries are skipped on pop.

    :meth:`run` picks its dispatch loop from the one thing it can
    observe: with no checker attached it runs :meth:`_run_fast`, with
    one it runs the instrumented loop (:meth:`_run_checked`).  Dispatch
    order and results are bit-identical either way —
    ``tests/test_fastpath_equivalence.py`` enforces this.
    """

    def __init__(self, allow_jump: bool = True, start_cycle: int = 0) -> None:
        self.allow_jump = allow_jump
        self.cycle = start_cycle
        self._heap: List[Tuple[int, int, int, ClockedModule]] = []
        self._seq = 0
        self._scheduled: Dict[ClockedModule, int] = {}
        self._modules: List[ClockedModule] = []
        self._rank: Dict[ClockedModule, int] = {}
        self.checker: Optional[EngineChecker] = None

    def attach_checker(self, checker: EngineChecker) -> None:
        """Attach an opt-in :class:`EngineChecker` (see :mod:`repro.check`)."""
        self.checker = checker

    def add(self, module: ClockedModule, start_cycle: int = 0) -> None:
        """Register ``module`` to first tick at ``start_cycle``."""
        if module in self._rank:
            raise SimulationError(
                f"module {module.name!r} is already registered with this engine"
            )
        # Same-cycle ties break by registration order — a *stable* key, so
        # clock jumping cannot reorder modules relative to per-cycle
        # ticking (required for jump exactness).
        self._rank[module] = len(self._modules)
        self._modules.append(module)
        if self.checker is not None:
            self.checker.on_add(module, start_cycle)
        self._schedule(module, start_cycle)

    def _schedule(self, module: ClockedModule, cycle: int) -> None:
        if not self.allow_jump and cycle > self.cycle + 1:
            # Per-cycle mode: a module that asked to be ticked is ticked
            # every cycle, even when it knows nothing happens before
            # ``cycle``.
            cycle = self.cycle + 1
        self._scheduled[module] = cycle
        heapq.heappush(self._heap, (cycle, self._rank[module], self._seq, module))
        self._seq += 1
        if self.checker is not None:
            self.checker.on_schedule(module, cycle, self.cycle)

    def wake(self, module: ClockedModule, cycle: int) -> None:
        """Ensure ``module`` is ticked no later than ``cycle``.

        Safe to call for already-scheduled modules: an earlier existing
        schedule wins, a later one is superseded.  Waking a module that
        was never registered via :meth:`add` is a caller bug and raises
        :class:`SimulationError`.
        """
        if module not in self._rank:
            raise SimulationError(
                f"cannot wake module {module.name!r}: it was never registered "
                f"with this engine via add()"
            )
        if self.checker is not None:
            self.checker.on_wake(module, cycle, self.cycle)
        if cycle < self.cycle:
            cycle = self.cycle
        current = self._scheduled.get(module, _IDLE)
        if current != _IDLE and current <= cycle:
            return
        self._schedule(module, cycle)

    @property
    def modules(self) -> List[ClockedModule]:
        return list(self._modules)

    def _run_checked(self, max_cycles: int) -> None:
        """The instrumented dispatch loop, for when a checker is attached.

        Same heap semantics as :meth:`_run_fast`, plus the checker
        callbacks around every tick and at every cycle boundary.
        """
        heap = self._heap
        scheduled = self._scheduled
        checker = self.checker
        while heap:
            cycle, rank, __seq, module = heap[0]
            if scheduled.get(module, _IDLE) != cycle:
                heapq.heappop(heap)
                continue  # superseded entry
            if cycle > max_cycles:
                raise CycleBudgetExceeded(max_cycles, cycle, module.name)
            if cycle > self.cycle:
                # Peeked, not popped: every tick at self.cycle has finished
                # and the heap is untouched, so engine + module state is a
                # consistent cycle-boundary snapshot.
                checker.on_cycle_start(cycle)
            heapq.heappop(heap)
            self.cycle = cycle
            del scheduled[module]
            checker.on_tick(module, cycle, rank)
            next_cycle = module.tick(cycle)
            checker.on_tick_end(module, cycle)
            if next_cycle is not None:
                if next_cycle <= cycle:
                    raise SimulationError(
                        f"module {module.name!r} returned non-advancing wake cycle "
                        f"{next_cycle} at cycle {cycle}"
                    )
                self._schedule(module, next_cycle)

    def run(self, max_cycles: int = 1_000_000_000) -> int:
        """Run until every module goes idle; return the final cycle.

        ``max_cycles`` is a deadlock backstop: exceeding it raises
        :class:`repro.errors.CycleBudgetExceeded` rather than hanging
        (or silently returning the cap as if the run had converged).
        """
        # Either loop leaves ``self.cycle`` at the last executed tick.
        if self.checker is None:
            self._run_fast(max_cycles)
        else:
            self._run_checked(max_cycles)
        for module in self._modules:
            if not module.is_done():
                raise SimulationError(
                    f"module {module.name!r} went idle with work outstanding"
                )
        if self.checker is not None:
            self.checker.on_run_end(self.cycle)
        return self.cycle

    def _run_fast(self, max_cycles: int) -> None:
        """Tightened dispatch loop for the no-checker case.

        Identical heap semantics to :meth:`_run_checked` — same entries,
        same supersede test, same tie-breaking — with the per-tick method
        and checker-callback overhead removed: heap primitives and the
        schedule map are hoisted to locals and the common reschedule
        (module returns its own next wake cycle) is inlined instead of
        going through :meth:`_schedule`.  ``self._seq`` is kept coherent
        every iteration so :meth:`wake` calls made *during* a tick
        interleave exactly as in the instrumented loop.
        """
        heap = self._heap
        scheduled = self._scheduled
        heappop = heapq.heappop
        heappush = heapq.heappush
        allow_jump = self.allow_jump
        while heap:
            cycle, rank, __seq, module = heappop(heap)
            if scheduled.get(module, _IDLE) != cycle:
                continue  # superseded entry
            if cycle > max_cycles:
                raise CycleBudgetExceeded(max_cycles, cycle, module.name)
            self.cycle = cycle
            del scheduled[module]
            next_cycle = module.tick(cycle)
            if next_cycle is not None:
                if next_cycle <= cycle:
                    raise SimulationError(
                        f"module {module.name!r} returned non-advancing wake cycle "
                        f"{next_cycle} at cycle {cycle}"
                    )
                if not allow_jump and next_cycle > cycle + 1:
                    next_cycle = cycle + 1
                seq = self._seq
                scheduled[module] = next_cycle
                heappush(heap, (next_cycle, rank, seq, module))
                self._seq = seq + 1
