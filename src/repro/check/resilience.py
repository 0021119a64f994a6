"""Resilience verification: fault-injected and resumed sweeps converge.

Two contracts tie :mod:`repro.resilience` to the determinism pillar
(see ``docs/verification.md`` and ``docs/resilience.md``):

* **chaos convergence** — a sweep run under a seeded
  :class:`~repro.resilience.chaos.ChaosPlan` (worker crashes, hangs,
  corrupted results) must finish with *bit-identical*
  :class:`~repro.simulators.results.SimulationResult`\\ s to a clean
  run: retries re-execute deterministic simulations, so injected faults
  may cost attempts but never change answers;
* **journal resume** — a sweep interrupted mid-journal and resumed via
  :class:`~repro.resilience.journal.RunJournal` must produce the same
  final results as an uninterrupted run.
"""

from __future__ import annotations

import os
import tempfile
from typing import List, Optional, Sequence, Type

from repro.frontend.config import GPUConfig
from repro.resilience.chaos import ChaosPlan
from repro.resilience.journal import RunJournal
from repro.resilience.policy import RetryPolicy
from repro.simulators.base import PlanSimulator
from repro.simulators.parallel import (
    simulate_apps_parallel,
    simulate_apps_supervised,
)
from repro.tracegen.suites import make_app
from repro.check.report import CheckFinding, info, violation
from repro.check.shadow import compare_results

_CHECK = "resilience"

#: The acceptance-bar injection mix: 30% crashes, 10% hangs.
DEFAULT_CHAOS = ChaosPlan(seed=2025, crash_rate=0.30, hang_rate=0.10,
                          corrupt_rate=0.05, hang_seconds=60.0)

#: Generous retry budget — convergence is the contract under test, so
#: the policy should not be the reason a chaos run fails.
CHAOS_POLICY = RetryPolicy(max_attempts=10, base_delay=0.001,
                           backoff_factor=2.0, max_delay=0.05,
                           jitter=0.1, timeout_seconds=30.0)


def _check_chaos_convergence(
    simulator_cls: Type[PlanSimulator],
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str,
    chaos: ChaosPlan,
    workers: int,
) -> List[CheckFinding]:
    findings: List[CheckFinding] = []
    apps = [make_app(name, scale=scale) for name in app_names]
    clean = simulate_apps_parallel(simulator_cls(config), apps, workers=1)
    outcomes = simulate_apps_supervised(
        simulator_cls(config), apps, workers=workers,
        retry_policy=CHAOS_POLICY, chaos=chaos,
    )
    injected = sum(
        1 for outcome in outcomes.values() for record in outcome.attempts
        if record.outcome != "ok"
    )
    simulator_name = simulator_cls(config).name
    for app in apps:
        outcome = outcomes[app.name]
        subject = f"{simulator_name} x {app.name}"
        if not outcome.ok:
            findings.append(violation(
                _CHECK, subject,
                f"chaos run did not converge after "
                f"{outcome.num_attempts} attempt(s): {outcome.failure}",
            ))
        else:
            findings.extend(compare_results(
                subject, outcome.result, clean[app.name],
                ignore_counters=frozenset(), check=_CHECK,
                labels=("chaos", "clean"),
            ))
    if not findings:
        findings.append(info(
            _CHECK, simulator_name,
            f"chaos sweep (crash {chaos.crash_rate:.0%}, hang "
            f"{chaos.hang_rate:.0%}, corrupt {chaos.corrupt_rate:.0%}, "
            f"seed {chaos.seed}) survived {injected} injected fault(s) "
            f"and matched the clean run bit-identically over "
            f"{len(apps)} app(s)",
        ))
    return findings


def _check_journal_resume(
    simulator_cls: Type[PlanSimulator],
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str,
) -> List[CheckFinding]:
    findings: List[CheckFinding] = []
    apps = [make_app(name, scale=scale) for name in app_names]
    simulator_name = simulator_cls(config).name
    clean = simulate_apps_parallel(simulator_cls(config), apps, workers=1)
    fd, path = tempfile.mkstemp(suffix=".journal")
    os.close(fd)
    os.unlink(path)
    try:
        # First leg: complete only a prefix, as an interrupted sweep would.
        with RunJournal.create(path, gpu_name=config.name, scale=scale) as journal:
            simulate_apps_parallel(
                simulator_cls(config), apps[: max(1, len(apps) // 2)],
                workers=1, journal=journal,
            )
            first_leg = len(journal)
        # Resume: reload the journal, sweep the full list.
        with RunJournal.load(path) as journal:
            if len(journal) != first_leg:
                findings.append(violation(
                    _CHECK, simulator_name,
                    f"journal reload lost entries: wrote {first_leg}, "
                    f"read {len(journal)}",
                ))
            resumed = simulate_apps_parallel(
                simulator_cls(config), apps, workers=1, journal=journal,
            )
        for app in apps:
            findings.extend(compare_results(
                f"{simulator_name} x {app.name}",
                resumed[app.name], clean[app.name],
                ignore_counters=frozenset(), check=_CHECK,
                labels=("resumed", "clean"),
            ))
    finally:
        if os.path.exists(path):
            os.unlink(path)
    if not findings:
        findings.append(info(
            _CHECK, simulator_name,
            f"interrupted sweep ({first_leg} journaled, "
            f"{len(apps) - first_leg} resumed) matched the clean run "
            f"bit-identically",
        ))
    return findings


def resilience_check(
    config: GPUConfig,
    app_names: Sequence[str],
    scale: str = "tiny",
    simulator_classes: Optional[Sequence[Type[PlanSimulator]]] = None,
    chaos: Optional[ChaosPlan] = None,
    workers: Optional[int] = None,
) -> List[CheckFinding]:
    """Run both resilience contracts over ``app_names``.

    ``workers`` defaults to 1 (in-process supervision: injected faults
    become exceptions, which keeps the check fast and start-method
    agnostic).  Pass >= 2 to exercise real worker processes, reaping
    included — that is what ``repro chaos`` does.
    """
    if simulator_classes is None:
        from repro.simulators.swift_basic import SwiftSimBasic

        simulator_classes = [SwiftSimBasic]
    if chaos is None:
        chaos = DEFAULT_CHAOS
    findings: List[CheckFinding] = []
    for simulator_cls in simulator_classes:
        findings.extend(_check_chaos_convergence(
            simulator_cls, config, app_names, scale, chaos,
            workers=workers if workers is not None else 1,
        ))
        findings.extend(_check_journal_resume(
            simulator_cls, config, app_names, scale,
        ))
    return findings
