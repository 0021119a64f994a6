"""The guard coordinator: wires the watchdog and invariant guards into
one engine checker and writes forensic bundles when either fires.

A :class:`SimulationGuard` is created per simulation run (one app on one
simulator) and handed to :meth:`repro.simulators.PlanSimulator.simulate`.
The simulator calls :meth:`begin_kernel` before each kernel's
``engine.run``; the guard attaches a :class:`CompositeChecker` of
whichever components are enabled, injects any configured saboteurs, and
thereafter operates purely through the
:meth:`EngineChecker.on_cycle_start` hook — so a guard with everything
disabled never even forces the engine off its fast dispatch loop.

The guard never saves or restores a run: a crashed, hung or timed-out
run is retried from cycle 0 by :class:`repro.resilience.Supervisor`
(see ``docs/robustness-guard.md`` § "Why there is no mid-run restore").
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.guard.config import GuardConfig
from repro.guard.forensic import config_hash, write_bundle
from repro.guard.invariants import InvariantGuard
from repro.guard.saboteur import InvariantSaboteur, StallSaboteur
from repro.guard.watchdog import ProgressWatchdog
from repro.sim.engine import CompositeChecker, Engine, EngineChecker


class SimulationGuard:
    """Per-run robustness harness (see module docstring)."""

    def __init__(
        self,
        config: GuardConfig,
        *,
        app_name: str = "",
        simulator_name: str = "",
        gpu_config: object = None,
        user_checker: Optional[EngineChecker] = None,
    ) -> None:
        self.config = config
        self.app_name = app_name
        self.simulator_name = simulator_name
        self.config_hash = (
            config_hash(gpu_config) if gpu_config is not None else ""
        )
        self.user_checker = user_checker
        self.bundles: List[Path] = []
        self._engine: Optional[Engine] = None
        self._kernel_index = 0
        self._watchdog: Optional[ProgressWatchdog] = None
        self._injected = False

    # -- run meta -------------------------------------------------------

    def run_meta(self) -> Dict[str, object]:
        """Who this run is, as recorded in every forensic bundle."""
        return {
            "app": self.app_name,
            "simulator": self.simulator_name,
            "config_hash": self.config_hash,
            "kernel_index": self._kernel_index,
        }

    # -- kernel lifecycle ----------------------------------------------

    def begin_kernel(
        self,
        engine: Engine,
        kernel_index: int,
        extra_checker: Optional[EngineChecker] = None,
    ) -> None:
        """Arm the guard on ``engine`` for kernel ``kernel_index``.

        ``extra_checker`` is the simulator caller's per-run checker (the
        sanitizer), composed alongside the guard's own components.
        """
        cfg = self.config
        self._engine = engine
        self._kernel_index = kernel_index
        self._inject(engine)
        checkers: List[EngineChecker] = []
        self._watchdog = None
        if cfg.watchdog:
            self._watchdog = ProgressWatchdog(
                engine,
                stall_window=cfg.stall_window,
                check_every=cfg.check_every,
                on_violation=self._on_stall,
            )
            checkers.append(self._watchdog)
        if cfg.invariants:
            checkers.append(
                InvariantGuard(
                    engine,
                    check_every=cfg.check_every,
                    on_violation=self._on_invariant,
                )
            )
        for outside in (self.user_checker, extra_checker):
            if outside is not None and outside not in checkers:
                checkers.append(outside)
        if len(checkers) == 1:
            engine.attach_checker(checkers[0])
        elif checkers:
            engine.attach_checker(CompositeChecker(checkers))

    def _inject(self, engine: Engine) -> None:
        if self._injected or not self.config.inject:
            return
        self._injected = True
        if "stall" in self.config.inject:
            engine.add(StallSaboteur(), start_cycle=engine.cycle)
        if "violation" in self.config.inject:
            engine.add(
                InvariantSaboteur(activate_at=engine.cycle + 1),
                start_cycle=engine.cycle,
            )

    # -- forensic bundle callbacks -------------------------------------

    def _on_stall(self, cycle: int, diagnosis: Dict[str, object]) -> str:
        return self._emit_bundle("stall", cycle, diagnosis)

    def _on_invariant(
        self, cycle: int, module_name: str, messages: List[str]
    ) -> str:
        diagnosis = {"module": module_name, "violations": list(messages)}
        return self._emit_bundle("invariant", cycle, diagnosis)

    def _emit_bundle(
        self, kind: str, cycle: int, diagnosis: Dict[str, object]
    ) -> str:
        if not self.config.bundle_dir or self._engine is None:
            return ""
        events = self._watchdog.events if self._watchdog is not None else None
        path = write_bundle(
            Path(self.config.bundle_dir),
            kind,
            cycle,
            self._engine,
            diagnosis=diagnosis,
            events=events,
            meta=self.run_meta(),
        )
        self.bundles.append(path)
        return str(path)
