"""Runtime engine sanitizer: validates the jump contract while a
simulation runs.

The engine's correctness rests on three scheduling invariants that no
module — present or future — may break:

* **monotonic ticks** — the engine clock never moves backwards;
* **stable same-cycle ordering** — modules ticking in the same cycle do
  so in registration order, *unless* a module was re-armed mid-cycle (a
  same-cycle wake), so clock jumping can never reorder modules relative
  to per-cycle ticking;
* **no wake-before-now** — a completion callback asking to wake a module
  at a cycle already in the past means some model computed an event time
  behind the clock; the engine clamps it (so the simulation survives)
  but the sanitizer flags it, because a clamped wake is timing the model
  did not intend.

Attach one via ``simulator.simulate(app, checker=EngineSanitizer())`` or
``engine.attach_checker(...)``; it observes, never mutates.  In strict
mode the first violation raises :class:`~repro.errors.CheckError`;
otherwise violations accumulate as findings for the report.
:func:`sanitize_check` is the pillar: one sanitized run per
(simulator, app).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Type

from repro.errors import CheckError
from repro.frontend.config import GPUConfig
from repro.sim.engine import ClockedModule, EngineChecker
from repro.simulators.base import PlanSimulator
from repro.tracegen.suites import make_app
from repro.check.report import CheckFinding, info, violation

#: Cap on recorded findings so a systemically broken run cannot eat memory.
MAX_FINDINGS = 1000


class EngineSanitizer(EngineChecker):
    """Checks engine scheduling invariants at runtime.

    One sanitizer may be attached to several engines in sequence (the
    kernel loop builds one engine per kernel); state resets whenever the
    observed clock moves to a fresh engine's timeline via
    :meth:`on_run_end`.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.findings: List[CheckFinding] = []
        self.ticks_observed = 0
        self.wakes_observed = 0
        self._last_tick_cycle: Optional[int] = None
        self._current_cycle: Optional[int] = None
        self._max_rank_this_cycle = -1
        self._exempt_this_cycle: Set[int] = set()

    @property
    def ok(self) -> bool:
        return not self.findings

    def _record(self, subject: str, message: str) -> None:
        if self.strict:
            raise CheckError(f"sanitizer: {subject}: {message}")
        if len(self.findings) < MAX_FINDINGS:
            self.findings.append(violation("sanitizer", subject, message))

    # ------------------------------------------------------------------
    # EngineChecker hooks

    def on_schedule(self, module: ClockedModule, cycle: int, now: int) -> None:
        # A module (re)scheduled for the cycle currently being executed
        # may legitimately tick after higher-ranked modules this cycle.
        if self._current_cycle is not None and cycle == self._current_cycle:
            self._exempt_this_cycle.add(id(module))

    def on_wake(self, module: ClockedModule, cycle: int, now: int) -> None:
        self.wakes_observed += 1
        if cycle < now:
            self._record(
                module.name,
                f"wake requested for past cycle {cycle} at cycle {now} "
                f"(engine clamps, but the model computed an event time "
                f"behind the clock)",
            )

    def on_tick(self, module: ClockedModule, cycle: int, rank: int) -> None:
        self.ticks_observed += 1
        if self._last_tick_cycle is not None and cycle < self._last_tick_cycle:
            self._record(
                module.name,
                f"non-monotonic tick: cycle {cycle} after "
                f"cycle {self._last_tick_cycle}",
            )
        if cycle != self._current_cycle:
            self._current_cycle = cycle
            self._max_rank_this_cycle = rank
            self._exempt_this_cycle.clear()
        else:
            if (
                rank < self._max_rank_this_cycle
                and id(module) not in self._exempt_this_cycle
            ):
                self._record(
                    module.name,
                    f"unstable same-cycle ordering at cycle {cycle}: "
                    f"rank {rank} ticked after rank "
                    f"{self._max_rank_this_cycle} without a same-cycle "
                    f"re-schedule",
                )
            if rank > self._max_rank_this_cycle:
                self._max_rank_this_cycle = rank
        self._exempt_this_cycle.discard(id(module))
        self._last_tick_cycle = cycle

    def on_run_end(self, final_cycle: int) -> None:
        # The next engine (next kernel) starts a fresh timeline that may
        # legally share its first cycle with this one's last.
        self._current_cycle = None
        self._max_rank_this_cycle = -1
        self._exempt_this_cycle.clear()


def sanitize_check(
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str,
    simulator_classes: Sequence[Type[PlanSimulator]],
    workers: Optional[int],
    tolerance: float,
    progress: Callable[[str], None],
) -> List[CheckFinding]:
    """The sanitize pillar: every (simulator, app) pair runs with a fresh
    :class:`EngineSanitizer` attached; a clean run leaves one info
    finding."""
    findings: List[CheckFinding] = []
    for simulator_cls in simulator_classes:
        for name in app_names:
            simulator = simulator_cls(config)
            sanitizer = EngineSanitizer()
            simulator.simulate(
                make_app(name, scale=scale), gather_metrics=False,
                checker=sanitizer,
            )
            findings.extend(sanitizer.findings)
            if sanitizer.ok:
                findings.append(info(
                    "sanitizer", f"{simulator.name} x {name}",
                    f"clean: {sanitizer.ticks_observed} ticks, "
                    f"{sanitizer.wakes_observed} wakes, 0 violations",
                ))
    return findings
