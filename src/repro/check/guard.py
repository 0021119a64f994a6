"""Guard verification: guarded runs are exact and saboteurs are caught.

``repro.guard`` promises two things this pillar turns into
machine-checked contracts (see ``docs/robustness-guard.md``):

* **transparency** — a run with the watchdog and invariant guards armed
  must be *bit-identical* (cycles, kernels, instructions, every counter)
  to the same run unguarded: observation must not perturb the model —
  on *every* simulator, including the cycle-accurate ``AccelSimLike``
  baseline;
* **detection** — a synthetically wedged engine (the
  :class:`~repro.guard.StallSaboteur`) must be caught within the stall
  window with the saboteur named in the diagnosis, and a corrupted
  module (:class:`~repro.guard.InvariantSaboteur`) must trip the
  invariant guards; both must leave a forensic bundle behind.

A run that crashes or hangs is not this pillar's business: the
supervisor retries it whole (``repro check --mode resilience``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import InvariantViolation, SimulationStall
from repro.frontend.config import GPUConfig
from repro.guard import GuardConfig, SimulationGuard
from repro.simulators.base import PlanSimulator
from repro.simulators.results import SimulationResult
from repro.tracegen.suites import make_app
from repro.check.report import CheckFinding, info, violation
from repro.check.shadow import compare_results

_CHECK = "guard"

#: Bit-exactness means *nothing* is ignored — guarded runs must match
#: every counter, not just the tick-observer-independent ones.
NOTHING_IGNORED: frozenset = frozenset()

#: Watchdog settings for the stall-detection scenario: a short window so
#: the wedged engine is caught quickly, checked at a fine cadence.
STALL_WINDOW = 2_000
CHECK_EVERY = 64


def _run(
    simulator_cls: Type[PlanSimulator],
    config: GPUConfig,
    app,
    guard: Optional[SimulationGuard] = None,
) -> SimulationResult:
    return simulator_cls(config).simulate(app, guard=guard)


def _check_guard_transparency(
    simulator_cls: Type[PlanSimulator],
    config: GPUConfig,
    app,
    baseline: SimulationResult,
) -> List[CheckFinding]:
    """Watchdog + invariants armed: still bit-identical."""
    simulator_name = simulator_cls(config).name
    subject = f"{simulator_name} x {app.name} [guarded]"
    guard = SimulationGuard(
        GuardConfig(
            watchdog=True,
            invariants=True,
            check_every=CHECK_EVERY,
            stall_window=STALL_WINDOW,
        ),
        app_name=app.name,
        simulator_name=simulator_name,
        gpu_config=config,
    )
    guarded = _run(simulator_cls, config, app, guard=guard)
    findings = compare_results(subject, baseline, guarded,
                               ignore_counters=NOTHING_IGNORED,
                               check=_CHECK)
    if not findings:
        findings.append(info(
            _CHECK, subject, "guarded run bit-identical to unguarded",
        ))
    return findings


def _stall_blame(exc: SimulationStall) -> Tuple[bool, str, str]:
    suspects = list(exc.diagnosis.get("suspects", []))
    return (
        "stall_saboteur" in suspects,
        f"watchdog fired but diagnosis names {suspects}, "
        f"not the injected saboteur",
        f"stall detected at cycle {exc.cycle}, suspects {suspects}",
    )


def _invariant_blame(exc: InvariantViolation) -> Tuple[bool, str, str]:
    return (
        exc.module_name == "invariant_saboteur",
        f"invariant guard fired but blamed {exc.module_name!r}, "
        f"not the injected saboteur",
        f"violation detected at cycle {exc.cycle} in {exc.module_name}",
    )


#: Per injected saboteur kind: its label, the guard switches that must
#: catch it, the typed error it must raise, the blame test on that error
#: (saboteur named?, message if not, detail if so), and the message when
#: nothing fires.
_SABOTEURS: Dict[str, tuple] = {
    "stall": (
        "stall", {"watchdog": True, "stall_window": STALL_WINDOW},
        SimulationStall, _stall_blame,
        f"injected stall saboteur was never detected "
        f"(stall_window={STALL_WINDOW})",
    ),
    "violation": (
        "invariant", {"invariants": True},
        InvariantViolation, _invariant_blame,
        "injected invariant saboteur was never detected",
    ),
}


def _check_detection(
    kind: str,
    simulator_cls: Type[PlanSimulator],
    config: GPUConfig,
    app,
    workdir: Path,
) -> List[CheckFinding]:
    """An injected saboteur must raise its typed error, blame the
    saboteur, and leave a forensic bundle."""
    label, switches, expected, blame, undetected = _SABOTEURS[kind]
    simulator_name = simulator_cls(config).name
    subject = f"{simulator_name} x {app.name} [{label} saboteur]"
    guard = SimulationGuard(
        GuardConfig(
            check_every=CHECK_EVERY,
            bundle_dir=str(workdir / f"{label}_{simulator_name}_{app.name}"),
            inject=(kind,),
            **switches,
        ),
        app_name=app.name,
        simulator_name=simulator_name,
        gpu_config=config,
    )
    try:
        _run(simulator_cls, config, app, guard=guard)
    except expected as exc:
        named, misblamed, detail = blame(exc)
        findings: List[CheckFinding] = []
        if not named:
            findings.append(violation(_CHECK, subject, misblamed))
        if not guard.bundles:
            findings.append(violation(
                _CHECK, subject,
                f"{kind} detected but no forensic bundle was written",
            ))
        if not findings:
            findings.append(info(
                _CHECK, subject, f"{detail}, bundle at {guard.bundles[0]}",
            ))
        return findings
    return [violation(_CHECK, subject, undetected)]


def guard_check(
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str,
    simulator_classes: Sequence[Type[PlanSimulator]],
    workers: Optional[int],
    tolerance: float,
    progress: Callable[[str], None],
) -> List[CheckFinding]:
    """Run every guard scenario over the (simulator, app) grid.

    Transparency runs on the full cross product, the cycle-accurate
    baseline included.  The detection scenarios run once per simulator
    (on the first app): they test the guard machinery, not the workload.
    """
    findings: List[CheckFinding] = []
    with tempfile.TemporaryDirectory(prefix="repro-guard-check-") as tmp:
        workdir = Path(tmp)
        for simulator_cls in simulator_classes:
            simulator_name = simulator_cls(config).name
            for position, name in enumerate(app_names):
                app = make_app(name, scale=scale)
                baseline = _run(simulator_cls, config, app)
                findings.extend(_check_guard_transparency(
                    simulator_cls, config, app, baseline,
                ))
                if position == 0:
                    for kind in _SABOTEURS:
                        findings.extend(_check_detection(
                            kind, simulator_cls, config, app, workdir,
                        ))
                progress(f"guard {simulator_name} x {name}")
    return findings
