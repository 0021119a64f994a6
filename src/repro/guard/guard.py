"""The guard coordinator: wires watchdog, invariants, and checkpoints
into one engine checker and owns the checkpoint/resume lifecycle.

A :class:`SimulationGuard` is created per simulation run (one app on one
simulator) and handed to :meth:`repro.simulators.PlanSimulator.simulate`.
The simulator calls :meth:`begin_kernel` before each kernel's
``engine.run``; the guard attaches a :class:`CompositeChecker` of
whichever components are enabled, injects any configured saboteurs, and
thereafter operates purely through the
:meth:`EngineChecker.on_cycle_start` hook — so a guard with everything
disabled never even forces the engine off its fast dispatch loop.

Checkpoints capture the simulator's *frame*: a dict of the live objects
the kernel loop needs back (engine, scheduler, SMs, memory, accumulated
results).  The guard does not interpret the frame — it pickles it in one
pass (preserving shared references) and hands it back verbatim on
resume, keeping the guard decoupled from simulator internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import CheckpointError, SimulationInterrupted
from repro.guard.checkpoint import (
    find_resumable,
    prune_checkpoints,
    write_checkpoint,
)
from repro.guard.config import GuardConfig
from repro.guard.forensic import config_hash, write_bundle
from repro.guard.invariants import InvariantGuard
from repro.guard.saboteur import InvariantSaboteur, StallSaboteur
from repro.guard.watchdog import ProgressWatchdog
from repro.sim.engine import CompositeChecker, Engine, EngineChecker


@dataclass
class GuardResume:
    """A restored mid-run snapshot, ready to hand back to the simulator."""

    path: Path
    meta: Dict[str, object]
    kernel_index: int
    cycle: int
    engine: Engine
    frame: Dict[str, object]


class _Checkpointer(EngineChecker):
    """Writes a checkpoint each time the clock crosses a period boundary."""

    def __init__(self, guard: "SimulationGuard", every: int,
                 start_cycle: int) -> None:
        self.guard = guard
        self.every = every
        # First target: the next period boundary strictly after the
        # start cycle — identical whether the run started at cycle 0 or
        # was itself restored from a checkpoint at a boundary.
        self._next_target = ((start_cycle // every) + 1) * every

    def on_cycle_start(self, cycle: int) -> None:
        if cycle < self._next_target:
            return
        # One checkpoint per crossing, however far the clock jumped.
        self._next_target = ((cycle // self.every) + 1) * self.every
        self.guard.checkpoint_now(cycle)


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
        auto_resume: bool = False,
    ) -> None:
        self.config = config
        self.app_name = app_name
        self.simulator_name = simulator_name
        self.config_hash = (
            config_hash(gpu_config) if gpu_config is not None else ""
        )
        self.user_checker = user_checker
        #: When True, :meth:`PlanSimulator.simulate` restores the newest
        #: intact checkpoint in ``checkpoint_dir`` before running.
        self.auto_resume = auto_resume
        self.checkpoints_written = 0
        self.last_checkpoint_path: Optional[Path] = None
        self.bundles: List[Path] = []
        self._engine: Optional[Engine] = None
        self._frame: Dict[str, object] = {}
        self._kernel_index = 0
        self._watchdog: Optional[ProgressWatchdog] = None
        self._injected = False

    # -- run meta -------------------------------------------------------

    def run_meta(self) -> Dict[str, object]:
        return {
            "app": self.app_name,
            "simulator": self.simulator_name,
            "config_hash": self.config_hash,
        }

    # -- kernel lifecycle ----------------------------------------------

    def begin_kernel(
        self,
        engine: Engine,
        frame: Dict[str, object],
        kernel_index: int,
        extra_checker: Optional[EngineChecker] = None,
    ) -> None:
        """Arm the guard on ``engine`` for the kernel about to run.

        ``frame`` is the simulator's live-state dict; the guard keeps a
        reference (not a copy) so checkpoints always see current state.
        ``extra_checker`` is the simulator caller's per-run checker (the
        sanitizer), composed alongside the guard's own components.
        """
        cfg = self.config
        self._engine = engine
        self._frame = frame
        self._kernel_index = kernel_index
        self._inject(engine)
        checkers: List[EngineChecker] = []
        self._watchdog = None
        if cfg.watchdog:
            self._watchdog = ProgressWatchdog(
                engine,
                stall_window=cfg.stall_window,
                check_every=cfg.check_every,
                trace_window=cfg.trace_window,
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
        if cfg.checkpoint_every:
            checkers.append(
                _Checkpointer(self, cfg.checkpoint_every, engine.cycle)
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
        at = self.config.inject_at
        if "stall" in self.config.inject:
            engine.add(StallSaboteur(activate_at=at), start_cycle=engine.cycle)
        if "violation" in self.config.inject:
            engine.add(
                InvariantSaboteur(activate_at=max(at, engine.cycle + 1)),
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

    # -- checkpointing --------------------------------------------------

    def checkpoint_now(self, cycle: int) -> Path:
        """Write a checkpoint of the current frame at ``cycle``.

        Called from the engine's ``on_cycle_start`` (state is a
        consistent cycle boundary).  Detaches the engine's checker for
        the pickling pass — guard components hold paths and callbacks
        that have no business inside a snapshot, and a restored run
        re-arms fresh ones via :meth:`begin_kernel`.
        """
        engine = self._engine
        if engine is None:
            raise CheckpointError("guard has no active kernel to checkpoint")
        directory = Path(self.config.checkpoint_dir)
        payload = {
            "engine": engine,
            "frame": self._frame,
        }
        meta = self.run_meta()
        meta["kernel_index"] = self._kernel_index
        checker = engine.checker
        engine.checker = None
        try:
            path = write_checkpoint(directory, cycle, payload, meta)
        finally:
            engine.checker = checker
        prune_checkpoints(directory, self.config.keep_checkpoints)
        self.checkpoints_written += 1
        self.last_checkpoint_path = path
        stop_after = self.config.stop_after_checkpoints
        if stop_after and self.checkpoints_written >= stop_after:
            raise SimulationInterrupted(
                f"run interrupted after checkpoint {self.checkpoints_written} "
                f"at cycle {cycle} (stop_after_checkpoints="
                f"{stop_after}); resume from {path}",
                checkpoint_path=str(path),
                cycle=cycle,
            )
        return path

    def load_resume(self) -> Optional[GuardResume]:
        """Newest intact checkpoint for this run, or ``None``.

        Verifies the checkpoint belongs to this (app, simulator, config)
        triple — resuming a bfs run from a gemm checkpoint is a caller
        bug worth a hard error, not silent wrong numbers.
        """
        if not self.config.checkpoint_dir:
            return None
        found = find_resumable(Path(self.config.checkpoint_dir))
        if found is None:
            return None
        path, meta, payload = found
        for key, expected in self.run_meta().items():
            if expected and meta.get(key) not in ("", None, expected):
                raise CheckpointError(
                    f"checkpoint {path} was written by "
                    f"{key}={meta.get(key)!r}, this run has {expected!r}"
                )
        engine = payload["engine"]
        return GuardResume(
            path=path,
            meta=meta,
            kernel_index=int(meta.get("kernel_index", 0)),
            cycle=int(meta.get("cycle", engine.cycle)),
            engine=engine,
            frame=payload["frame"],
        )
